"""Pathological queries trip budgets deterministically; chain-split
makes the same workloads affordable.

This is the paper's blowup story with teeth: the un-split ``scsg``
rewrite propagates the merged-parents cross product (weak linkage
``same_country`` with one country relates *everyone*), so its magic
set explodes — the budget must catch it within a whisker of the
ceiling.  The chain-split rewrite of the very same query on the very
same EDB completes inside that ceiling.
"""

import pytest

from repro.core.magic import MagicSetsEvaluator
from repro.core.planner import Planner
from repro.datalog.parser import parse_query
from repro.engine import EvalContext
from repro.engine.database import Database
from repro.engine.topdown import TopDownEvaluator
from repro.resilience import Budget, BudgetExceeded
from repro.workloads import APPEND, FamilyConfig, family_database

#: One country: same_country is the full cross product of the
#: population — the worst-case weak linkage.
BLOWUP = FamilyConfig(
    levels=5, width=16, countries=1, parents_per_child=2, seed=0
)

#: Un-split evaluation derives ~659 tuples on this EDB; chain-split
#: ~161.  The ceiling sits between the two.
TUPLE_CEILING = 300


class TestScsgBlowup:
    def test_unsplit_trips_tuple_ceiling(self):
        db = family_database(BLOWUP)
        query = parse_query("scsg(p0_0, Y)")[0]
        evaluator = MagicSetsEvaluator(
            db, ctx=EvalContext(budget=Budget(max_tuples=TUPLE_CEILING))
        )
        with pytest.raises(BudgetExceeded) as info:
            evaluator.evaluate(query)
        exc = info.value
        assert exc.reason == "tuples"
        # Exact enforcement: the raise happens at ceiling + 1 derived
        # tuples — far below the "< 2x ceiling" acceptance bound.
        assert exc.counters is not None
        assert exc.counters["derived_tuples"] == TUPLE_CEILING + 1
        assert exc.counters["derived_tuples"] < 2 * TUPLE_CEILING

    def test_split_completes_within_same_ceiling(self):
        db = family_database(BLOWUP)
        query = parse_query("scsg(p0_0, Y)")[0]
        evaluator = MagicSetsEvaluator(
            db,
            chain_split=True,
            supplementary=True,
            ctx=EvalContext(budget=Budget(max_tuples=TUPLE_CEILING)),
        )
        answers, counters, _ = evaluator.evaluate(query)
        assert counters.derived_tuples <= TUPLE_CEILING
        assert len(answers) > 0

    def test_trip_is_deterministic(self):
        observations = []
        for _ in range(2):
            db = family_database(BLOWUP)
            query = parse_query("scsg(p0_0, Y)")[0]
            evaluator = MagicSetsEvaluator(
                db, ctx=EvalContext(budget=Budget(max_tuples=TUPLE_CEILING))
            )
            with pytest.raises(BudgetExceeded) as info:
                evaluator.evaluate(query)
            observations.append(info.value.counters["derived_tuples"])
        assert observations[0] == observations[1]


class TestUnsafeAppend:
    def test_all_free_append_trips_round_budget(self):
        # append(X, Y, Z) enumerates infinitely many answers top-down;
        # collecting them all must hit the budget, not spin forever.
        db = Database()
        db.load_source(APPEND)
        goals = parse_query("append(X, Y, Z)")
        evaluator = TopDownEvaluator(
            db, ctx=EvalContext(budget=Budget(max_rounds=2_000))
        )
        with pytest.raises(BudgetExceeded) as info:
            list(evaluator.solve(goals))
        assert info.value.reason == "rounds"
        assert info.value.counters is not None

    def test_bounded_append_passes_same_budget(self):
        # The finitely evaluable adornment of the same predicate under
        # the same budget completes: chain-split partial evaluation
        # never touches the ceiling.
        db = Database()
        db.load_source(APPEND)
        planner = Planner(db)
        ctx = EvalContext(budget=Budget(max_rounds=2_000))
        plan = planner.plan("append(X, Y, [a, b, c])", ctx)
        assert plan.strategy == "partial_chain_split"
        answers, _counters = planner.execute(plan, ctx)
        assert len(answers) == 4

    def test_planner_cleanup_after_trip(self):
        # A blowout must not poison the planner for later queries.
        db = family_database(BLOWUP)
        planner = Planner(db)
        plan = planner.plan("scsg(X, Y)")
        with pytest.raises(BudgetExceeded):
            planner.execute(plan, EvalContext(budget=Budget(max_tuples=1)))
        answers, _ = planner.execute(planner.plan("scsg(X, Y)"))
        assert len(answers) > 0
