"""Budget parity: a no-op budget must be bit-identical to no budget.

The checkpoints only *read* the engine counters, so running any query
under ``Budget()`` (no limits) must produce exactly the same answers
and exactly the same work counters as running without one.  The
planner strategies and the bottom-up evaluators are covered by the
matrix in ``tests/test_context_parity.py``; the bare SLD evaluator,
which ticks its budget per resolution step rather than through the
join pipeline, is pinned here.
"""

from repro.datalog.parser import parse_query
from repro.engine import Database, EvalContext
from repro.engine.topdown import TopDownEvaluator
from repro.resilience import Budget
from repro.workloads import APPEND


class TestEvaluatorParity:
    def test_top_down_parity(self):
        db = Database()
        db.load_source(APPEND)
        goals = parse_query("append(X, Y, [a, b, c])")

        plain = TopDownEvaluator(db)
        rows_none = sorted(str(s) for s in plain.solve(goals))

        budgeted = TopDownEvaluator(db, ctx=EvalContext(budget=Budget()))
        rows_noop = sorted(str(s) for s in budgeted.solve(goals))

        assert rows_none == rows_noop
        assert plain.counters.as_dict() == budgeted.counters.as_dict()
