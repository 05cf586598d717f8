"""What a recording tracer must *see*, beyond leaving evaluation alone.

Bit-identical answers and counters under every context are pinned by
the matrix in ``tests/test_context_parity.py``; these tests keep the
assertions on the recorded events themselves.
"""

from repro.core.planner import Planner
from repro.engine import Database, EvalContext, SemiNaiveEvaluator
from repro.engine.context import DISABLED
from repro.observe import EngineTracer
from repro.workloads import FamilyConfig, family_database, SCSG, SG

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). parent(eve, dan).
parent(carol, fay). parent(dan, gil).
sibling(carol, dan).
"""


def _planner_run(ctx, query, program=SCSG):
    config = FamilyConfig(levels=4, width=6, parents_per_child=2, countries=2, seed=7)
    db = family_database(config, program=program)
    planner = Planner(db)
    plan = planner.plan(query, ctx)
    answers, counters = planner.execute(plan, ctx)
    return sorted(answers.rows(), key=str), counters.as_dict(), plan.strategy


class TestSemiNaiveParity:
    def test_round_deltas_sum_to_derived_tuples(self):
        db = Database()
        db.load_source(SOURCE)
        tracer = EngineTracer()
        result = SemiNaiveEvaluator(db, ctx=EvalContext(tracer=tracer)).evaluate()
        total = sum(
            sum(event.data["delta"].values())
            for event in tracer.events("round_end")
        )
        assert total == result.counters.derived_tuples > 0


class TestPlannerParity:
    def test_counting_path_counters_bit_identical(self):
        query = "sg(p0_2, Y)"
        rows_off, counters_off, strategy = _planner_run(DISABLED, query, program=SG)
        tracer = EngineTracer()
        rows_on, counters_on, strategy_on = _planner_run(
            EvalContext(tracer=tracer), query, program=SG
        )
        assert strategy == strategy_on == "counting"
        assert rows_on == rows_off
        assert counters_on == counters_off
        assert tracer.events("count_down"), "counting down phase untraced"
        assert tracer.events("count_up"), "counting up phase untraced"

    def test_recording_tracer_chain_split_parity(self):
        query = "scsg(p0_2, Y)"
        rows_off, counters_off, _ = _planner_run(DISABLED, query)
        tracer = EngineTracer()
        rows_on, counters_on, _ = _planner_run(EvalContext(tracer=tracer), query)
        assert rows_on == rows_off
        assert counters_on == counters_off
        kinds = {event.kind for event in tracer.events()}
        assert "strategy" in kinds
        assert "round_end" in kinds
