"""profile_report / render_profile / chrome_trace over real profiles."""

import json

from repro.engine import EvalContext
from repro.engine.database import Database
from repro.engine.seminaive import SemiNaiveEvaluator
from repro.profile import (
    SpanProfiler,
    chrome_trace,
    profile_report,
    render_profile,
)

SG_SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). parent(eve, dan).
parent(carol, fay). parent(dan, gil).
sibling(carol, dan).
"""


def _profiled_run():
    db = Database()
    db.load_source(SG_SOURCE)
    profiler = SpanProfiler()
    result = SemiNaiveEvaluator(
        db, ctx=EvalContext(profiler=profiler)
    ).evaluate()
    return profiler, result


def _synthetic_profile():
    """A hand-built profile with known structure."""
    profiler = SpanProfiler()
    run = profiler.begin("evaluate", "semi_naive")
    round_token = profiler.begin("round", "round 1")
    rule = profiler.begin("rule", "sg(X, Y) :- sibling(X, Y)")
    profiler.end(rule, predicate="sg/2", derived=5, duplicates=0)
    profiler.end(round_token, derived={"sg/2": 5})
    profiler.end(run)
    return profiler


class TestProfileReport:
    def test_self_times_telescope_to_wall(self):
        profiler, _ = _profiled_run()
        report = profile_report(profiler)
        total_self = sum(row["self_ms"] for row in report["rows"])
        assert abs(total_self - report["wall_ms"]) < 1e-6

    def test_coverage_bounds(self):
        profiler, _ = _profiled_run()
        report = profile_report(profiler)
        assert 0.0 < report["coverage"] <= 1.0

    def test_rows_sorted_by_self_time(self):
        profiler, _ = _profiled_run()
        rows = profile_report(profiler)["rows"]
        assert len(rows) > 2
        assert all(
            rows[i]["self_ms"] >= rows[i + 1]["self_ms"]
            for i in range(len(rows) - 1)
        )

    def test_predicate_attribution_from_rule_spans(self):
        report = profile_report(_synthetic_profile())
        (predicate,) = report["predicates"]
        assert predicate["predicate"] == "sg/2"
        assert predicate["count"] == 1 and predicate["derived"] == 5
        assert predicate["tuples_per_sec"] > 0

    def test_counters_add_throughput(self):
        profiler, result = _profiled_run()
        report = profile_report(profiler, result.counters)
        assert report["derived_tuples"] == result.counters.derived_tuples
        assert report["tuples_per_sec"] > 0

    def test_no_counters_no_throughput_key(self):
        report = profile_report(_synthetic_profile())
        assert "tuples_per_sec" not in report

    def test_json_serializable(self):
        profiler, result = _profiled_run()
        report = profile_report(profiler, result.counters)
        json.dumps(report, allow_nan=False)

    def test_empty_profiler(self):
        report = profile_report(SpanProfiler())
        assert report["wall_ms"] == 0.0
        assert report["coverage"] == 0.0
        assert report["rows"] == [] and report["predicates"] == []

    def test_memory_column_present_when_sampled(self):
        with SpanProfiler(memory=True) as profiler:
            token = profiler.begin("rule", "r")
            profiler.end(token, predicate="p/1", derived=1)
        report = profile_report(profiler)
        assert report["memory"]
        assert "alloc_bytes" in report["rows"][0]


class TestRenderProfile:
    def test_header_and_columns(self):
        profiler, result = _profiled_run()
        text = render_profile(profile_report(profiler, result.counters))
        assert text.startswith("profile: wall ")
        assert "% attributed" in text
        assert "self ms" in text and "tuples/s" in text
        assert "per-predicate rule time:" in text
        assert "throughput:" in text

    def test_limit_elides_rows(self):
        profiler, _ = _profiled_run()
        report = profile_report(profiler)
        text = render_profile(report, limit=1)
        assert f"... {len(report['rows']) - 1} more span name(s)" in text

    def test_dropped_noted(self):
        profiler = SpanProfiler(capacity=1)
        profiler.end(profiler.begin("round", "a"))
        profiler.end(profiler.begin("round", "b"))
        assert "[1 spans dropped]" in render_profile(profile_report(profiler))


class TestChromeTrace:
    def test_structure(self):
        profiler, _ = _profiled_run()
        trace = chrome_trace(profiler, process_name="repro test")
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert metadata[0]["args"]["name"] == "repro test"
        assert len(complete) == len(profiler.spans())
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and isinstance(event["tid"], int)
        assert trace["displayTimeUnit"] == "ms"

    def test_meta_lands_in_args(self):
        trace = chrome_trace(_synthetic_profile())
        rule_event = next(
            e for e in trace["traceEvents"] if e.get("cat") == "rule"
        )
        assert rule_event["args"]["predicate"] == "sg/2"
        assert rule_event["args"]["derived"] == 5

    def test_strict_json(self):
        profiler, _ = _profiled_run()
        payload = json.dumps(chrome_trace(profiler), allow_nan=False)
        assert json.loads(payload)["otherData"]["producer"] == "repro.profile"
