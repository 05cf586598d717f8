"""Session-level IVM: cache repair, selective invalidation, view serving."""

import pytest

from repro.datalog.literals import Predicate
from repro.engine.database import Database
from repro.service.session import QuerySession
from repro.workloads import ANCESTOR, TRAVEL

SOURCE = ANCESTOR + "parent(a, b). parent(b, c). color(a, red).\n"

FLIGHTS = [
    ("f1", "vancouver", 900, "calgary", 1100, 200),
    ("f2", "calgary", 1200, "toronto", 1500, 250),
    ("f3", "toronto", 1600, "ottawa", 1700, 100),
    ("f5", "toronto", 1800, "vancouver", 2200, 400),
    ("f6", "vancouver", 1000, "ottawa", 1600, 650),
]

TRAVEL_QUERY = "travel(L, vancouver, DT, ottawa, AT, F), F =< 600"


def travel_db() -> Database:
    db = Database()
    db.load_source(TRAVEL)
    for flight in FLIGHTS:
        db.add_fact("flight", flight)
    return db


@pytest.fixture
def session():
    db = Database()
    db.load_source(SOURCE)
    return QuerySession(db, ivm=True)


def rows_of(result):
    return sorted(map(str, result.rows))


class TestSelectiveInvalidation:
    def test_unrelated_fact_keeps_cached_result(self, session):
        """Regression: a FACT on a relation outside the query's closure
        must no longer evict the cached result."""
        session.execute("ancestor(X, Y)")
        session.add_fact("color", ("b", "blue"))
        result = session.execute("ancestor(X, Y)")
        assert result.result_cached
        assert session.metrics.ivm_results_kept >= 1

    def test_default_session_keeps_unrelated_evicts_related(self):
        """Without views the same rule holds: a write outside the
        closure keeps the answer, a write inside it evicts it."""
        db = Database()
        db.load_source(SOURCE)
        plain = QuerySession(db)
        before = plain.execute("ancestor(X, Y)")
        plain.add_fact("color", ("b", "blue"))
        assert plain.execute("ancestor(X, Y)").result_cached
        assert plain.metrics.ivm_results_kept == 1
        assert plain.metrics.result_invalidations == 0
        plain.add_fact("parent", ("c", "d"))
        after = plain.execute("ancestor(X, Y)")
        assert not after.result_cached
        assert len(after.rows) == len(before.rows) + 3
        assert plain.metrics.ivm_results_kept == 1
        assert plain.metrics.result_invalidations == 1
        assert plain.metrics.plan_invalidations == 0

    def test_related_fact_repairs_in_place(self, session):
        before = session.execute("ancestor(X, Y)")
        session.add_fact("parent", ("c", "d"))
        after = session.execute("ancestor(X, Y)")
        assert after.result_cached  # repaired, not re-evaluated
        assert session.metrics.ivm_repairs >= 1
        assert len(after.rows) == len(before.rows) + 3  # c→d, b→d, a→d

    def test_repaired_rows_match_cold_planner(self, session):
        session.execute("ancestor(X, Y)")
        session.add_fact("parent", ("c", "d"))
        session.retract_fact("parent", ("a", "b"))
        warm = session.execute("ancestor(X, Y)")
        cold_db = Database()
        cold_db.load_source(
            ANCESTOR + "parent(b, c). parent(c, d). color(a, red).\n"
        )
        cold = QuerySession(cold_db).execute("ancestor(X, Y)")
        assert rows_of(warm) == rows_of(cold)

    def test_bound_query_repair(self, session):
        session.execute("ancestor(a, Y)")
        session.add_fact("parent", ("c", "d"))
        result = session.execute("ancestor(a, Y)")
        assert result.result_cached
        assert rows_of(result) == rows_of(
            QuerySession(session.database.copy()).execute("ancestor(a, Y)")
        )

    def test_rule_change_still_flushes_everything(self, session):
        from repro.datalog.parser import parse_rule

        session.execute("ancestor(X, Y)")
        session.add_rule(parse_rule("ancestor(X, Y) :- jump(X, Y)."))
        result = session.execute("ancestor(X, Y)")
        assert not result.result_cached


class TestViewServing:
    def test_first_query_is_served_from_view(self, session):
        result = session.execute("ancestor(X, Y)")
        assert result.via_view
        assert session.metrics.ivm_view_serves >= 1

    def test_view_rows_match_plain_evaluation(self, session):
        via_view = session.execute("ancestor(b, Y)")
        plain = QuerySession(session.database.copy()).execute("ancestor(b, Y)")
        assert rows_of(via_view) == rows_of(plain)

    def test_functional_closure_bypasses_views(self):
        db = travel_db()
        session = QuerySession(db, ivm=True)
        result = session.execute(TRAVEL_QUERY)
        assert not result.via_view  # functional: planner answers
        assert result.rows
        plain = QuerySession(db.copy()).execute(TRAVEL_QUERY)
        assert rows_of(result) == rows_of(plain)

    def test_functional_closure_mutations_stay_correct(self):
        """TRAVEL can't be materialized; the session must still answer
        correctly across mutations (flush path for its shape, selective
        keep for others)."""
        db = travel_db()
        session = QuerySession(db, ivm=True)
        before = session.execute(TRAVEL_QUERY)
        session.add_fact(
            "flight", ("f9", "calgary", 1200, "ottawa", 1400, 150)
        )
        after = session.execute(TRAVEL_QUERY)
        assert len(after.rows) > len(before.rows)
        plain = QuerySession(db.copy()).execute(TRAVEL_QUERY)
        assert rows_of(after) == rows_of(plain)


class TestSessionMutations:
    def test_retract_fact_verb_metrics(self, session):
        assert session.retract_fact("parent", ("a", "b"))
        assert not session.retract_fact("parent", ("a", "b"))
        assert "RETRACT" in session.metrics.snapshot()["verb_latency"]

    def test_apply_batch_through_session(self, session):
        session.execute("ancestor(X, Y)")
        batch = session.apply_batch(
            [
                ("add", "parent", ("c", "d")),
                ("retract", "parent", ("b", "c")),
            ]
        )
        assert batch
        warm = session.execute("ancestor(X, Y)")
        cold = QuerySession(session.database.copy()).execute("ancestor(X, Y)")
        assert rows_of(warm) == rows_of(cold)

    def test_subscribable_gates(self, session):
        assert session.subscribable(Predicate("parent", 2)) is None
        assert session.subscribable(Predicate("ancestor", 2)) is None
        plain = QuerySession(session.database.copy())
        message = plain.subscribable(Predicate("ancestor", 2))
        assert message is not None and "ivm" in message.lower()
        assert plain.subscribable(Predicate("parent", 2)) is None

    def test_subscribable_rejects_functional(self):
        session = QuerySession(travel_db(), ivm=True)
        message = session.subscribable(Predicate("travel", 6))
        assert message is not None


class TestIntrospection:
    def test_health_and_stats_surface_views(self, session):
        session.execute("ancestor(X, Y)")
        health = session.health()
        stats = session.stats()
        assert health["ivm_views"]["fixpoints"] == 1
        assert stats["ivm_views"]["fixpoints"] == 1
        assert stats["ivm"]["view_serves"] >= 1

    def test_plain_session_has_no_view_section(self):
        db = Database()
        db.load_source(SOURCE)
        plain = QuerySession(db)
        assert "ivm_views" not in plain.health()
        assert "ivm_views" not in plain.stats()
