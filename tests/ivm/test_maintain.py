"""Incremental maintenance: maintained state ≡ from-scratch fixpoint.

Every scenario mutates the database through the public API (so the
ViewManager's listener fires) and then checks the maintained state
with :func:`repro.testing.assert_views_match_fixpoint`: every
maintained relation against a fresh semi-naive run over the same
database, and a counting view's support counts against a recount.
"""

from repro.datalog.literals import Predicate
from repro.engine.database import Database
from repro.ivm import ViewManager
from repro.testing import assert_views_match_fixpoint
from repro.workloads import ANCESTOR, SCSG, SG
from repro.workloads.family import FamilyConfig, family_database

SG_PRED = Predicate("sg", 2)
ANC = Predicate("ancestor", 2)


def family_db(program: str) -> Database:
    # width >= 4 so the generator emits sibling pairs.
    return family_database(
        FamilyConfig(levels=3, width=4, countries=2, seed=11), program=program
    )


class TestInsertMaintenance:
    def test_sg_single_inserts(self):
        db = family_db(SG)
        manager = ViewManager(db)
        assert manager.relations_for_query(SG_PRED) is not None
        people = [row for row in db.relation("parent", 2)]
        for parent_row in people[:4]:
            db.add_fact("parent", ("newcomer", parent_row[1]))
            assert_views_match_fixpoint(manager, db)

    def test_ancestor_chain_extension(self):
        db = Database()
        db.load_source(ANCESTOR + "parent(a, b). parent(b, c).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        db.add_fact("parent", ("c", "d"))
        assert_views_match_fixpoint(manager, db)
        fix = manager.fixpoints[ANC]
        assert ("a", "d") in {
            tuple(str(v) for v in row) for row in fix.relations[ANC]
        }

    def test_duplicate_insert_is_noop(self):
        db = Database()
        db.load_source(ANCESTOR + "parent(a, b).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        runs = manager.fixpoints[ANC].maintenance_runs
        db.add_fact("parent", ("a", "b"))  # already stored
        assert manager.fixpoints[ANC].maintenance_runs == runs
        assert_views_match_fixpoint(manager, db)

    def test_disjoint_mutation_skips_maintenance(self):
        db = Database()
        db.load_source(ANCESTOR + "parent(a, b). color(a, red).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        runs = manager.fixpoints[ANC].maintenance_runs
        db.add_fact("color", ("b", "blue"))
        assert manager.fixpoints[ANC].maintenance_runs == runs


class TestRetractMaintenance:
    def test_counting_fast_path_on_nonrecursive(self):
        db = Database()
        db.load_source(
            "joined(X, Z) :- left(X, Y), right(Y, Z).\n"
            "left(a, m). left(b, m). right(m, z).\n"
        )
        manager = ViewManager(db)
        joined = Predicate("joined", 1 + 1)
        manager.relations_for_query(joined)
        fix = manager.fixpoints[joined]
        assert fix.counts is not None  # non-recursive → counting
        # (a,z) has one derivation, removing left(b,m) keeps it.
        db.retract_fact("left", ("b", "m"))
        assert_views_match_fixpoint(manager, db)
        db.retract_fact("left", ("a", "m"))
        assert_views_match_fixpoint(manager, db)
        assert not set(fix.relations[joined])

    def test_count_survival_across_rules(self):
        db = Database()
        db.load_source(
            "both(X) :- here(X).\nboth(X) :- there(X).\n"
            "here(v). there(v).\n"
        )
        manager = ViewManager(db)
        both = Predicate("both", 1)
        manager.relations_for_query(both)
        db.retract_fact("here", ("v",))
        # Still derivable through the second rule.
        assert set(manager.fixpoints[both].relations[both])
        assert_views_match_fixpoint(manager, db)

    def test_dred_overdelete_and_rederive(self):
        db = Database()
        db.load_source(
            ANCESTOR
            + "parent(1, 2). parent(2, 3). parent(1, 3). parent(3, 4)."
        )
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        fix = manager.fixpoints[ANC]
        assert fix.counts is None  # recursive → DRed
        # (1,3) is over-deleted via the chain 1→2→3 but survives via
        # the direct edge parent(1,3); DRed must rederive it.
        assert db.retract_fact("parent", (1, 2))
        assert_views_match_fixpoint(manager, db)
        assert fix.rederivations > 0

    def test_sg_retractions(self):
        db = family_db(SG)
        manager = ViewManager(db)
        manager.relations_for_query(SG_PRED)
        victims = list(db.relation("parent", 2))[:3]
        for row in victims:
            db.retract_fact("parent", tuple(row))
            assert_views_match_fixpoint(manager, db)

    def test_scsg_retractions(self):
        db = family_db(SCSG)
        manager = ViewManager(db)
        scsg = Predicate("scsg", 2)
        manager.relations_for_query(scsg)
        for row in list(db.relation("same_country", 2))[:3]:
            db.retract_fact("same_country", tuple(row))
            assert_views_match_fixpoint(manager, db)


class TestBatches:
    def test_mixed_batch(self):
        db = Database()
        db.load_source(ANCESTOR + "parent(a, b). parent(b, c).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        db.apply_batch(
            [
                ("add", "parent", ("c", "d")),
                ("retract", "parent", ("a", "b")),
                ("add", "parent", ("d", "e")),
            ]
        )
        assert_views_match_fixpoint(manager, db)

    def test_add_then_retract_same_row_cancels(self):
        db = Database()
        db.load_source(ANCESTOR + "parent(a, b).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        batch = db.apply_batch(
            [
                ("add", "parent", ("b", "c")),
                ("retract", "parent", ("b", "c")),
            ]
        )
        assert not batch.deltas  # net no-op
        assert_views_match_fixpoint(manager, db)

    def test_batch_report_carries_derived_deltas(self):
        db = Database()
        db.load_source(ANCESTOR + "parent(a, b).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        db.add_fact("parent", ("b", "c"))
        report = manager.last_report
        assert report is not None
        adds, dels = report.derived[ANC]
        assert len(adds) == 2 and not dels  # (b,c) and (a,c)


class TestNegationFallback:
    SOURCE = (
        "lonely(X) :- node(X), \\+ linked(X).\n"
        "linked(X) :- edge(X, Y).\n"
        "node(a). node(b). edge(a, b).\n"
    )

    def test_unpinned_goes_dirty(self):
        db = Database()
        db.load_source(self.SOURCE)
        manager = ViewManager(db)
        lonely = Predicate("lonely", 1)
        # Not maintainable: no view is created for query serving.
        assert manager.relations_for_query(lonely) is None

    def test_pinned_recompute_and_diff(self):
        db = Database()
        db.load_source(self.SOURCE)
        manager = ViewManager(db)
        lonely = Predicate("lonely", 1)
        assert manager.ensure_pinned(lonely) is None
        # b becomes linked → lonely(b) must be *deleted* in the report.
        db.add_fact("edge", ("b", "a"))
        report = manager.last_report
        adds, dels = report.derived[lonely]
        assert [tuple(str(v) for v in row) for row in dels] == [("b",)]
        assert not adds
        assert_views_match_fixpoint(manager, db)


class TestProgramChanges:
    def test_rule_added_behind_managers_back(self):
        from repro.datalog.parser import parse_rule

        db = Database()
        db.load_source(ANCESTOR + "parent(a, b). parent(b, c).")
        manager = ViewManager(db)
        manager.relations_for_query(ANC)
        db.add_rule(parse_rule("ancestor(X, Y) :- shortcut(X, Y)."))
        db.add_fact("shortcut", ("x", "y"))
        # The staleness guard must rebuild before classifying/applying.
        assert manager.relations_for_query(ANC) is not None
        assert_views_match_fixpoint(manager, db)
