"""Tests of the ledger itself (not part of tier-1).

Run with ``python -m pytest benchmarks/ledger -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import cli, fixtures, lanes, oracle, spec
from benchmarks.ledger.estimator import Floors, percentile, spread

ROOT = Path(__file__).resolve().parents[2]


# -- catalogue ----------------------------------------------------------
def test_names_units_and_limits_follow_the_contract():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert spec.UNIT_RE.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    assert 1 <= len(spec.END_TO_END) <= 16 and 1 <= len(spec.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(m.bound is None for m in spec.PER_LAYER)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert 1 <= spec.RUN_SECONDS <= 60
    # The driver makes 4 + 22 x workloads runs inside 3420 s.
    assert (4 + 22 * len(spec.WORKLOADS)) * (spec.RUN_SECONDS + 5) < 3420


def test_the_issue_names_are_the_catalogue():
    assert list(spec.WORKLOADS) == ["serve-hot", "serve-cold", "serve-rw", "paper-batch"]
    assert set(spec.E2E_NAMES) == {
        "setup_s", "qps", "query_p50_ms", "query_p95_ms", "pipe_qps",
        "write_p50_ms", "ckpt_stall_ms", "recovery_s", "disk_amp", "batch_s",
        "oneshot_s", "peak_rss_mb"}
    for metric in spec.END_TO_END:
        assert metric.primary, f"{metric.name} is primary on no workload"
        assert set(metric.primary) <= set(spec.WORKLOADS)


def test_list_agrees_with_benchmark_json(capsys):
    assert cli.main(["--list"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert listed == spec.benchmark_json()
    committed = ROOT / "BENCHMARK.json"
    assert committed.exists(), "BENCHMARK.json is generated with --list"
    assert json.loads(committed.read_text()) == listed
    assert set(listed) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert len(committed.read_bytes()) < 64 * 1024


# -- estimator ----------------------------------------------------------
def test_floor_is_the_minimum_over_rounds_and_survives_a_slow_mode():
    floors = Floors()
    truth = {slot: 1.0 + slot / 10 for slot in range(20)}
    for round_index in range(12):
        slow = 1.6 if 3 <= round_index < 9 else 1.0  # a multi-round slow mode
        for slot, base in truth.items():
            floors.add(slot, base * slow * (1 + 0.01 * ((slot + round_index) % 7)))
    assert floors.rounds() == 12
    # Within the 2% jitter of the truth, although half the rounds ran 60% slow.
    assert floors.floors() == pytest.approx(list(truth.values()), rel=0.021)
    assert 1.2 < floors.noise_ratio() < 1.7  # the raw medians did not survive it


def test_a_slot_that_ever_fails_has_no_floor():
    floors = Floors()
    for slot in range(4):
        floors.add(slot, 1.0)
    floors.fail(2)
    floors.add(2, 0.5)
    assert floors.floor(2) is None
    assert len(floors.floors()) == 3
    assert (floors.attempted, floors.failures) == (6, 1)
    timed = Floors()
    timed.count_only(floors)  # a warm-up round: no samples kept, failures are
    timed.add(2, 0.4)
    assert timed.floors() == [] and (timed.attempted, timed.failures) == (7, 1)


def test_percentile_and_spread():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 95) == 95.0
    assert percentile(values, 50) == 50.0
    assert percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    stats = spread([10.0, 10.2, 9.9, 10.1, 10.0])
    assert stats["median"] == 10.0
    assert stats["range_rel"] == pytest.approx(0.03)
    assert stats["iqr_rel"] < stats["range_rel"]


# -- fixtures -----------------------------------------------------------
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload):
    first = fixtures.build_inputs(workload, 7, fixtures.SMOKE)
    again = fixtures.build_inputs(workload, 7, fixtures.SMOKE)
    other = fixtures.build_inputs(workload, 8, fixtures.SMOKE)
    assert first.pins() == again.pins()
    assert first.durable.text == again.durable.text
    assert [s.line for s in first.durable.round] == [s.line for s in again.durable.round]
    assert first.pins() != other.pins()
    # The seed permutes, it never resizes.
    assert len(first.durable.text) == len(other.durable.text)
    assert len(first.durable.round) == len(other.durable.round)
    assert first.durable.kill_fact_bytes == other.durable.kill_fact_bytes
    if first.schedule is not None:
        assert [s.line for s in first.schedule] == [s.line for s in again.schedule]
        assert [s.line for s in first.schedule] != [s.line for s in other.schedule]
        assert sorted(len(s.expected) for s in first.schedule) == sorted(
            len(s.expected) for s in other.schedule)


def test_hot_fits_the_result_cache_and_cold_does_not():
    serving = fixtures.serving_fixture(3, *fixtures.FULL.family, *fixtures.FULL.airports)
    hot = fixtures.hot_schedule(serving, 3, *fixtures.FULL.hot)
    cold = fixtures.cold_schedule(serving, 3, fixtures.FULL.cold_slots)
    assert len(hot) == 256 and len({s.text for s in hot}) == 64
    assert len(cold) == len({s.text for s in cold}) == 512 > 256
    kinds = {text.split("(")[0] for text in (s.text for s in cold)}
    assert kinds == {"sg", "scsg", "travel"}
    assert any(s.text.startswith("sg(X") for s in cold)


def test_durable_round_returns_to_its_starting_state():
    fixture = fixtures.build_inputs("serve-rw", 5, fixtures.SMOKE).durable
    facts = [s.text for s in fixture.round if s.verb == "FACT"]
    retracts = [s.text for s in fixture.round if s.verb == "RETRACT"]
    assert facts == retracts and len(facts) * 2 == fixture.writes
    assert fixture.round[-1].verb == "RETRACT"  # where the checkpoint lands
    assert 0 < fixture.kill_at < len(fixture.round)


# -- oracle -------------------------------------------------------------
def test_oracle_rejects_a_corrupted_reply():
    slot = fixtures.build_inputs("serve-hot", 11, fixtures.SMOKE).schedule[0]
    good = {"ok": True, "verb": "QUERY", "answers": [list(r) for r in slot.expected]}
    assert oracle.reply_ok(good, slot)
    assert oracle.reply_ok({**good, "answers": list(reversed(good["answers"]))}, slot)
    assert not oracle.reply_ok({**good, "answers": good["answers"] + [["x", "y"]]}, slot)
    assert not oracle.reply_ok({**good, "answers": good["answers"][:-1] or [["x"]]}, slot)
    assert not oracle.reply_ok({**good, "ok": False}, slot)
    assert not oracle.reply_ok({"ok": False, "error": {"type": "Overloaded"}}, slot)
    assert not oracle.reply_ok(None, slot)
    write = fixtures.Slot("FACT", "parent(a, b)")
    assert oracle.reply_ok({"ok": True, "added": True}, write)
    assert not oracle.reply_ok({"ok": True, "added": False}, write)


def test_reference_oracles_agree_with_the_engine():
    from repro.core.planner import Planner

    for slot in fixtures.paper_slots(13, smoke=True):
        planner = Planner(slot.build())
        plan = planner.plan(slot.query)
        if slot.force:
            plan.strategy = slot.force
        answers, _ = planner.execute(plan)
        assert oracle.rows_of(answers) == slot.expected, slot.name
    assert len(oracle.queens(6)) == 4


# -- workload intent ----------------------------------------------------
def test_cache_hit_ratio_intent_checks():
    ok_hot = {"result_cache": 0.995, "plan_cache": float("nan")}
    assert lanes.intent_problems("serve-hot", ok_hot) == []
    assert lanes.intent_problems("serve-hot", {**ok_hot, "result_cache": 0.98})
    assert lanes.intent_problems("serve-hot", {**ok_hot, "result_cache": float("nan")})
    ok_cold = {"result_cache": 0.0, "plan_cache": 0.999}
    assert lanes.intent_problems("serve-cold", ok_cold) == []
    assert lanes.intent_problems("serve-cold", {**ok_cold, "result_cache": 0.001})
    assert lanes.intent_problems("serve-cold", {**ok_cold, "plan_cache": 0.9})


# -- the contract, end to end ---------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_contract_line(trace):
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "serve-rw",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for metric in catalogue:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
