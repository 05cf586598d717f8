"""Unit tests for the counting method."""

import pytest

from repro.datalog.literals import Predicate
from repro.datalog.parser import parse_program, parse_query
from repro.engine.database import Database
from repro.engine.seminaive import SemiNaiveEvaluator
from repro.analysis.normalize import normalize
from repro.core.counting import CountingError, CountingEvaluator
from repro.core.magic import MagicSetsEvaluator
from repro.workloads import SG


def sg_setup(parent_pairs, sibling_pairs):
    db = Database()
    db.load_source(SG)
    for pair in parent_pairs:
        db.add_fact("parent", pair)
    for pair in sibling_pairs:
        db.add_fact("sibling", pair)
    rect, compiled = normalize(db.program, Predicate("sg", 2))
    rect_db = Database()
    rect_db.program = rect
    rect_db.relations = db.relations
    return db, rect_db, compiled


BASIC_PARENTS = [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"), ("g", "c"), ("h", "f")]
BASIC_SIBLINGS = [("c", "f"), ("b", "e")]


class TestCounting:
    def test_matches_magic(self):
        db, rect_db, compiled = sg_setup(BASIC_PARENTS, BASIC_SIBLINGS)
        query = parse_query("sg(a, Y)")[0]
        counting_answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        magic_answers, _, _ = MagicSetsEvaluator(db).evaluate(query)
        assert counting_answers.rows() == magic_answers.rows()

    def test_level_zero_answers(self):
        """Direct siblings are answers at level 0."""
        db, rect_db, compiled = sg_setup(BASIC_PARENTS, [("a", "z")])
        query = parse_query("sg(a, Y)")[0]
        answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        assert {row[1].value for row in answers} == {"z"}

    def test_multiple_levels_and_branches(self):
        parents = BASIC_PARENTS + [("i", "a")]
        db, rect_db, compiled = sg_setup(parents, BASIC_SIBLINGS)
        query = parse_query("sg(i, Y)")[0]
        counting_answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        magic_answers, _, _ = MagicSetsEvaluator(db).evaluate(query)
        assert counting_answers.rows() == magic_answers.rows()

    def test_second_chain_bound(self):
        db, rect_db, compiled = sg_setup(BASIC_PARENTS, BASIC_SIBLINGS)
        query = parse_query("sg(X, d)")[0]
        counting_answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        magic_answers, _, _ = MagicSetsEvaluator(db).evaluate(query)
        assert counting_answers.rows() == magic_answers.rows()

    def test_no_answers(self):
        db, rect_db, compiled = sg_setup(BASIC_PARENTS, [])
        query = parse_query("sg(a, Y)")[0]
        answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        assert len(answers) == 0

    def test_counting_cheaper_than_magic_on_chains(self):
        parents = [(f"u{i}", f"u{i+1}") for i in range(15)]
        parents += [(f"v{i}", f"v{i+1}") for i in range(15)]
        siblings = [("u15", "v15")]
        db, rect_db, compiled = sg_setup(parents, siblings)
        query = parse_query("sg(u0, Y)")[0]
        _, counting_counters = CountingEvaluator(rect_db, compiled).evaluate(query)
        _, magic_counters, _ = MagicSetsEvaluator(db).evaluate(query)
        assert counting_counters.total_work < magic_counters.total_work

    def test_cyclic_data_rejected(self):
        parents = [("a", "b"), ("b", "a")]
        db, rect_db, compiled = sg_setup(parents, [("a", "b")])
        query = parse_query("sg(a, Y)")[0]
        with pytest.raises(CountingError):
            CountingEvaluator(rect_db, compiled).evaluate(query)

    def test_unbound_query_rejected(self):
        db, rect_db, compiled = sg_setup(BASIC_PARENTS, BASIC_SIBLINGS)
        query = parse_query("sg(X, Y)")[0]
        with pytest.raises(CountingError):
            CountingEvaluator(rect_db, compiled).evaluate(query)

    def test_wrong_predicate_rejected(self):
        db, rect_db, compiled = sg_setup(BASIC_PARENTS, BASIC_SIBLINGS)
        query = parse_query("other(a, Y)")[0]
        with pytest.raises(CountingError):
            CountingEvaluator(rect_db, compiled).evaluate(query)

    def test_single_chain_recursion_rejected(self):
        program = parse_program(
            """
            anc(X, Y) :- parent(X, Y).
            anc(X, Y) :- parent(X, Z), anc(Z, Y).
            """
        )
        rect, compiled = normalize(program, Predicate("anc", 2))
        rect_db = Database()
        rect_db.program = rect
        with pytest.raises(CountingError):
            CountingEvaluator(rect_db, compiled)


THREE_CHAIN = """
trio(X, Y, Z) :- seed(X, Y, Z).
trio(X, Y, Z) :- up(X, X1), mid(Y, Y1), low(Z, Z1), trio(X1, Y1, Z1).
"""


class TestThreeChainCounting:
    """The n-chain generalization: three independent chains, one bound
    by the query, the other two ascending the same number of levels."""

    def setup_db(self):
        db = Database()
        db.load_source(THREE_CHAIN)
        for i in range(4):
            db.add_fact("up", (f"a{i}", f"a{i+1}"))
            db.add_fact("mid", (f"b{i}", f"b{i+1}"))
            db.add_fact("low", (f"c{i}", f"c{i+1}"))
        db.add_fact("seed", ("a3", "b3", "c3"))
        rect, compiled = normalize(db.program, Predicate("trio", 3))
        rect_db = Database()
        rect_db.program = rect
        rect_db.relations = db.relations
        return db, rect_db, compiled

    def test_three_generating_chains(self):
        _, _, compiled = self.setup_db()
        assert compiled.chain_count == 3

    def test_answers_match_magic(self):
        db, rect_db, compiled = self.setup_db()
        query = parse_query("trio(a0, Y, Z)")[0]
        counting_answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        magic_answers, _, _ = MagicSetsEvaluator(db).evaluate(query)
        assert counting_answers.rows() == magic_answers.rows()
        assert len(counting_answers) >= 1

    def test_level_symmetry_enforced(self):
        """Only tuples at matching depths are answers: a0 pairs with
        (b0, c0), never (b1, c0)."""
        db, rect_db, compiled = self.setup_db()
        query = parse_query("trio(a0, Y, Z)")[0]
        answers, _ = CountingEvaluator(rect_db, compiled).evaluate(query)
        assert {(r[1].value, r[2].value) for r in answers} == {("b0", "c0")}

    def test_planner_routes_three_chain_to_counting(self):
        from repro.core.planner import Planner, Strategy

        db, _, _ = self.setup_db()
        plan = Planner(db).plan("trio(a0, Y, Z)")
        assert plan.strategy == Strategy.COUNTING


class TestStoredExitFacts:
    """A stored fact of the recursive predicate is an exit row, as it
    is for buffered and partial chain-split evaluation: counting used
    to answer ``sg(c, Y)`` without ``(c, zz)``."""

    SOURCE = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    sg(c, zz).
    flat(c, c2). flat(b, e).
    up(a, c). down(c2, d). down(zz, w).
    """

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("sg(c, Y)", {("c", "c2"), ("c", "zz")}),
            ("sg(a, Y)", {("a", "d"), ("a", "w")}),
        ],
    )
    def test_counting_matches_the_fixpoint(self, query, expected):
        from repro.core.planner import Planner, Strategy
        from repro.testing import assert_strategies_agree

        db = Database()
        db.load_source(self.SOURCE)
        assert Planner(db).plan(query).strategy == Strategy.COUNTING
        answers = assert_strategies_agree(db, query)
        assert {tuple(v.value for v in row) for row in answers} == expected
