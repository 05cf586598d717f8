"""Property tests: IVM state ≡ from-scratch fixpoint, always.

Hypothesis drives randomized interleavings of inserts, retractions and
mixed batches over the paper's workloads and two shapes that stress
the delta discipline — nonlinear recursion (DRed with two derived
slots in one body) and a two-slot join whose batches add or retract
both rows of one derivation (exact counting tallies).  After every
mutation the maintained relations must equal a fresh semi-naive
evaluation of the same database
(:func:`repro.testing.assert_views_match_fixpoint`).  That a session's
cached and view-served answers agree with a fresh one is
``tests/service/test_cache_coherence.py``'s lane.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.datalog.literals import Predicate
from repro.engine.database import Database
from repro.ivm import ViewManager
from repro.testing import assert_views_match_fixpoint
from repro.workloads import ANCESTOR, SCSG, SG

NODES = [f"n{i}" for i in range(6)]

pair = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ops_over(edb_names):
    return st.lists(
        st.tuples(
            st.sampled_from(["add", "retract"]),
            st.sampled_from(edb_names),
            pair,
        ),
        min_size=1,
        max_size=15,
    )


def seeded(source: str, edb_names, seed_pairs) -> Database:
    db = Database()
    db.load_source(source)
    for name in edb_names:
        for row in seed_pairs:
            db.add_fact(name, row)
    return db


class TestInterleavings:
    @slow
    @given(ops_over(["parent"]), st.lists(pair, max_size=6))
    def test_ancestor(self, ops, seed_pairs):
        db = seeded(ANCESTOR, ["parent"], seed_pairs)
        manager = ViewManager(db)
        manager.relations_for_query(Predicate("ancestor", 2))
        for op, name, row in ops:
            if op == "add":
                db.add_fact(name, row)
            else:
                db.retract_fact(name, row)
            assert_views_match_fixpoint(manager, db)

    @slow
    @given(ops_over(["parent", "sibling"]), st.lists(pair, max_size=5))
    def test_sg(self, ops, seed_pairs):
        db = seeded(SG, ["parent", "sibling"], seed_pairs)
        manager = ViewManager(db)
        manager.relations_for_query(Predicate("sg", 2))
        for op, name, row in ops:
            if op == "add":
                db.add_fact(name, row)
            else:
                db.retract_fact(name, row)
            assert_views_match_fixpoint(manager, db)

    @slow
    @given(
        ops_over(["parent", "sibling", "same_country"]),
        st.lists(pair, max_size=4),
    )
    def test_scsg(self, ops, seed_pairs):
        db = seeded(SCSG, ["parent", "sibling", "same_country"], seed_pairs)
        manager = ViewManager(db)
        manager.relations_for_query(Predicate("scsg", 2))
        for op, name, row in ops:
            if op == "add":
                db.add_fact(name, row)
            else:
                db.retract_fact(name, row)
            assert_views_match_fixpoint(manager, db)

    @slow
    @given(
        ops_over(["parent"]),
        st.lists(pair, max_size=6),
        st.integers(min_value=1, max_value=5),
    )
    def test_ancestor_batched(self, ops, seed_pairs, chunk):
        """The same interleavings, but committed as mixed batches."""
        db = seeded(ANCESTOR, ["parent"], seed_pairs)
        manager = ViewManager(db)
        manager.relations_for_query(Predicate("ancestor", 2))
        for start in range(0, len(ops), chunk):
            db.apply_batch(ops[start:start + chunk])
            assert_views_match_fixpoint(manager, db)


class TestDeltaDisciplineShapes:
    NONLINEAR = (
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Y) :- path(X, Z), path(Z, Y).\n"
    )
    HOP = "hop(X, Z) :- edge(X, Y), edge(Y, Z).\n"

    @slow
    @given(
        ops_over(["edge"]),
        st.lists(pair, max_size=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_nonlinear_path(self, ops, seed_pairs, chunk):
        db = seeded(self.NONLINEAR, ["edge"], seed_pairs)
        manager = ViewManager(db)
        manager.relations_for_query(Predicate("path", 2))
        assert manager.fixpoints[Predicate("path", 2)].counts is None  # DRed
        for start in range(0, len(ops), chunk):
            db.apply_batch(ops[start:start + chunk])
            assert_views_match_fixpoint(manager, db)

    @slow
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "retract"]),
                st.tuples(*[st.sampled_from(NODES)] * 3),
                st.lists(
                    st.tuples(
                        st.sampled_from(["add", "retract"]), st.just("edge"), pair
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(pair, max_size=6),
    )
    def test_two_slot_join_whole_derivations(self, batches, seed_pairs):
        """Each batch adds or retracts both rows of one derivation
        ``edge(X, Y), edge(Y, Z)``, mixed with unrelated mutations."""
        db = seeded(self.HOP, ["edge"], seed_pairs)
        manager = ViewManager(db)
        manager.relations_for_query(Predicate("hop", 2))
        assert manager.fixpoints[Predicate("hop", 2)].counts is not None
        for op, (x, y, z), others in batches:
            # Last write wins in a batch: the derivation's rows go last.
            db.apply_batch(others + [(op, "edge", (x, y)), (op, "edge", (y, z))])
            assert_views_match_fixpoint(manager, db)


class TestNegationInterleavings:
    SOURCE = (
        "lonely(X, Y) :- node(X, Y), \\+ linked(X, Y).\n"
        "linked(X, Y) :- edge(X, Z), node(Z, Y).\n"
    )

    @slow
    @given(ops_over(["node", "edge"]), st.lists(pair, max_size=4))
    def test_pinned_negation_view_tracks_fixpoint(self, ops, seed_pairs):
        db = seeded(self.SOURCE, ["node", "edge"], seed_pairs)
        manager = ViewManager(db)
        lonely = Predicate("lonely", 2)
        assert manager.ensure_pinned(lonely) is None
        for op, name, row in ops:
            if op == "add":
                db.add_fact(name, row)
            else:
                db.retract_fact(name, row)
            assert_views_match_fixpoint(manager, db)
