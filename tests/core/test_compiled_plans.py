"""Compiled join programs live on the plan.

The first execution of a plan compiles what its evaluator needs beyond
the query's constants — the magic rewrite template, a chain program,
the strata of a semi-naive closure — and every later execution of the
plan (or of a :meth:`~repro.core.planner.QueryPlan.rebind` copy) reuses
it.  A rule change drops it: the next execution compiles against the
new rules.
"""

import pytest

from repro.core import magic as magic_module
from repro.core.planner import Planner, Strategy
from repro.engine import joins
from repro.service import QuerySession
from repro.workloads import SCSG, SG, FamilyConfig, family_database

CONFIG = FamilyConfig(levels=4, width=8, parents_per_child=2, countries=2, seed=7)

#: A second exit rule for scsg and the one fact it needs.
NEW_RULE = "scsg(X, Y) :- twin(X, Y).\ntwin(p0_2, zed).\n"


def _rows(rows):
    return sorted(tuple(str(v) for v in row) for row in rows)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` → a list that grows by one entry
    per call of ``module.name``."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


class TestCompiledOnce:
    def test_magic_split_rewrites_once_per_plan(self, count_calls):
        session = QuerySession(family_database(CONFIG, program=SCSG), result_cache_size=0)
        assert session.execute("scsg(p0_2, Y)").strategy == Strategy.MAGIC_SPLIT
        rewrites = count_calls(magic_module, "magic_transform")
        orders = count_calls(joins, "order_body")
        for i in (3, 5, 6):
            result = session.execute(f"scsg(p0_{i}, Y)")
            assert result.plan_cached and result.strategy == Strategy.MAGIC_SPLIT
        assert rewrites == [] and orders == []

    @pytest.mark.parametrize("query", ["sg(p0_{}, Y)", "sg(X, p0_{})"])
    def test_counting_orders_bodies_once_per_plan(self, count_calls, query):
        session = QuerySession(family_database(CONFIG, program=SG), result_cache_size=0)
        assert session.execute(query.format(0)).strategy == Strategy.COUNTING
        orders = count_calls(joins, "order_body")
        for i in range(1, 4):
            assert session.execute(query.format(i)).plan_cached
        assert orders == []

    def test_rebind_shares_the_compiled_programs(self):
        planner = Planner(family_database(CONFIG, program=SG))
        plan = planner.plan("sg(p0_1, Y)")
        rebound = plan.rebind(*planner._parse("sg(p0_2, Y)"))
        planner.execute(rebound)
        assert rebound.artifacts is plan.artifacts
        assert Strategy.COUNTING in plan.artifacts

    def test_reuse_matches_a_fresh_planner(self):
        """A program compiled for one constant answers another with
        the same answers and the same work as a fresh plan would."""
        db = family_database(CONFIG, program=SCSG)
        warm = QuerySession(db, result_cache_size=0)
        warm.execute("scsg(p0_5, Y)")
        for i in (2, 3, 6):
            query = f"scsg(p0_{i}, Y)"
            cached = warm.execute(query)
            planner = Planner(db)
            answers, counters = planner.execute(planner.plan(query))
            assert _rows(cached.rows) == _rows(answers.rows())
            assert cached.counters.as_dict() == counters.as_dict()


class TestSplitDecisionsFollowTheData:
    """A kept MAGIC_SPLIT template runs the rewrite Algorithm 3.1 would
    decide at execution time: writes that move a gray-zone decision
    recompile it."""

    def test_gray_zone_decision_moves_with_a_write(self):
        db = family_database(CONFIG, program=SCSG)
        session = QuerySession(db, result_cache_size=0)
        assert session.execute("scsg(p0_2, Y)").strategy == Strategy.MAGIC_SPLIT
        plan = session.planner.plan("scsg(p0_2, Y)")
        session.planner.execute(plan)
        before = plan.artifacts[Strategy.MAGIC_SPLIT]
        # parent/2 has fan-out 2 and 48 rows: following it costs 510
        # against 8 * 48 for splitting it.  16 more rows flip that.
        for i in range(16):
            assert session.add_fact("parent", (f"zz{i}", f"zy{i}"))
        after = session.execute("scsg(p0_3, Y)")
        assert after.plan_cached and after.strategy == Strategy.MAGIC_SPLIT
        # The reference decides afresh: a new plan on the same planner
        # (same cost model and statistics) has no template yet.
        reference = session.planner.plan("scsg(p0_3, Y)")
        answers, counters = session.planner.execute(reference)
        moved = reference.artifacts[Strategy.MAGIC_SPLIT]
        assert [str(r) for r in moved.magic.program.rules] != [
            str(r) for r in before.magic.program.rules
        ]
        assert _rows(after.rows) == _rows(answers.rows())
        assert after.counters.as_dict() == counters.as_dict()


class TestRuleChanges:
    """A new scsg rule reaches the next chain-split magic query that
    shares the cached plan's key."""

    def test_through_a_session(self):
        db = family_database(CONFIG, program=SCSG)
        session = QuerySession(db, result_cache_size=0)
        before = session.execute("scsg(p0_2, Y)")
        assert before.strategy == Strategy.MAGIC_SPLIT
        assert ("p0_2", "zed") not in _rows(before.rows)
        assert session.execute("scsg(p0_3, Y)").plan_cached
        session.load_source(NEW_RULE)
        after = session.execute("scsg(p0_2, Y)")
        assert ("p0_2", "zed") in _rows(after.rows)
        fresh = Planner(db)
        plan = fresh.plan("scsg(p0_2, Y)")
        answers, counters = fresh.execute(plan)
        assert after.strategy == plan.strategy == Strategy.MAGIC_SPLIT
        assert _rows(after.rows) == _rows(answers.rows())
        assert after.counters.as_dict() == counters.as_dict()

    def test_through_a_bare_planner(self):
        db = family_database(CONFIG, program=SCSG)
        planner = Planner(db)
        plan = planner.plan("scsg(p0_2, Y)")
        assert plan.strategy == Strategy.MAGIC_SPLIT
        answers, _ = planner.execute(plan)
        assert ("p0_2", "zed") not in _rows(answers.rows())
        db.load_source(NEW_RULE)
        # The plan object from before the change, and a fresh one.
        stale, _ = planner.execute(plan)
        replanned = planner.plan("scsg(p0_2, Y)")
        fresh, _ = planner.execute(replanned)
        assert replanned.strategy == Strategy.MAGIC_SPLIT
        assert ("p0_2", "zed") in _rows(stale.rows())
        assert _rows(stale.rows()) == _rows(fresh.rows())
