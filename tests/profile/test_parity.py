"""A profile must explain the wall.

Parity (answers and counters bit-identical with the profiler off, on,
and memory-sampling, for every strategy) is pinned by the matrix in
``tests/test_context_parity.py``.  What stays here is **coverage**: on
workloads big enough that per-span bookkeeping is noise (width >= 24
sg, levels-5 scsg), at least 95% of the measured wall is attributed to
named round/rule/stage/plan spans rather than unexplained scaffolding —
and no strategy the planner can pick is a blind spot.
"""

import pytest

from repro.core.planner import Planner
from repro.engine import EvalContext, SemiNaiveEvaluator
from repro.profile import SpanProfiler, profile_report
from repro.service import QuerySession
from repro.workloads import (
    ISORT,
    QSORT,
    SCSG,
    SG,
    FamilyConfig,
    family_database,
    load,
)

QUICK_CONFIG = FamilyConfig(
    levels=4, width=6, parents_per_child=2, countries=2, seed=7
)


class TestParity:
    def test_profiler_actually_recorded(self):
        profiler = SpanProfiler()
        ctx = EvalContext(profiler=profiler)
        planner = Planner(family_database(QUICK_CONFIG, program=SCSG))
        planner.execute(planner.plan("scsg(p0_2, Y)", ctx), ctx)
        cats = {s.cat for s in profiler.spans()}
        assert "plan" in cats and "query" in cats
        assert cats & {"round", "rule", "stage"}


class TestCoverage:
    """>= 95% of the wall attributed to named spans on real workloads."""

    def _bottom_up_coverage(self, config, program):
        db = family_database(config, program=program)
        profiler = SpanProfiler()
        result = SemiNaiveEvaluator(
            db, ctx=EvalContext(profiler=profiler)
        ).evaluate()
        return profile_report(profiler, result.counters)

    def test_sg_coverage(self):
        config = FamilyConfig(
            levels=5, width=24, parents_per_child=2, countries=2, seed=7
        )
        report = self._bottom_up_coverage(config, SG)
        assert report["coverage"] >= 0.95, report["coverage"]

    def test_scsg_coverage(self):
        config = FamilyConfig(
            levels=5, width=14, parents_per_child=2, countries=2, seed=7
        )
        report = self._bottom_up_coverage(config, SCSG)
        assert report["coverage"] >= 0.95, report["coverage"]

    def test_planner_path_coverage(self):
        """End-to-end through the planner (plan + evaluate spans)."""
        config = FamilyConfig(
            levels=5, width=24, parents_per_child=2, countries=2, seed=7
        )
        db = family_database(config, program=SG)
        planner = Planner(db)
        profiler = SpanProfiler()
        ctx = EvalContext(profiler=profiler)
        plan = planner.plan("sg(X, Y)", ctx)
        _, counters = planner.execute(plan, ctx)
        report = profile_report(profiler, counters)
        assert report["coverage"] >= 0.9, report["coverage"]

    @pytest.mark.parametrize(
        "program,query,strategy",
        [
            (ISORT, "isort([3,1,2], Y)", "nested_chain_split"),
            (QSORT, "qsort([3,1,2], Y)", "top_down_deferred"),
        ],
        ids=["isort", "qsort"],
    )
    def test_nested_and_top_down_are_not_blind_spots(
        self, program, query, strategy
    ):
        """Both evaluators used to take a budget only: PROFILE saw
        ``plan`` + ``execute`` and explained under a tenth of the wall."""
        report = QuerySession(load(program)).profile(query)
        assert report["strategy"] == strategy
        assert "evaluate" in {row["cat"] for row in report["rows"]}
        assert report["coverage"] >= 0.8, report["coverage"]

    def test_explain_sees_inside_nested_evaluation(self):
        report = QuerySession(load(ISORT)).explain("isort([3,1,2], Y)")
        kinds = [event["kind"] for event in report["events"]["events"]]
        assert "chain_down" in kinds and "chain_up" in kinds
