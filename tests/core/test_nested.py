"""Unit tests for nested chain-split evaluation (paper §4.1)."""

import pytest

from repro.datalog.literals import Predicate
from repro.datalog.parser import parse_query
from repro.engine.database import Database
from repro.engine.topdown import TopDownEvaluator
from repro.analysis.normalize import NormalizedProgram
from repro.core.nested import NestedChainEvaluator, NestedEvaluationError
from repro.core.planner import Planner, Strategy
from repro.testing import assert_strategies_agree
from repro.workloads import ISORT, QSORT, as_list_term, from_list_term, load, random_int_list


def rectified_db(source_db):
    normalized = NormalizedProgram(source_db.program)
    db = Database()
    db.program = normalized.program
    db.relations = source_db.relations
    return db


@pytest.fixture
def isort_evaluator():
    db = rectified_db(load(ISORT))
    return NestedChainEvaluator(db, Predicate("isort", 2))


class TestIsort:
    def test_paper_example(self, isort_evaluator):
        answers, counters = isort_evaluator.evaluate(
            parse_query("isort([5,7,1], Ys)")[0]
        )
        assert [from_list_term(r[1]) for r in answers] == [[1, 5, 7]]
        # The outer chain buffers one element per level.
        assert counters.buffered_values >= 3

    def test_empty_list(self, isort_evaluator):
        answers, _ = isort_evaluator.evaluate(parse_query("isort([], Ys)")[0])
        assert [from_list_term(r[1]) for r in answers] == [[]]

    def test_duplicates(self, isort_evaluator):
        answers, _ = isort_evaluator.evaluate(
            parse_query("isort([2,1,2,1], Ys)")[0]
        )
        assert [from_list_term(r[1]) for r in answers] == [[1, 1, 2, 2]]

    @pytest.mark.parametrize("length", [4, 8, 16])
    def test_random_lists_match_python(self, isort_evaluator, length):
        values = random_int_list(length, seed=length)
        query = parse_query(f"isort({as_list_term(values)}, Ys)")[0]
        answers, _ = isort_evaluator.evaluate(query)
        assert [from_list_term(r[1]) for r in answers] == [sorted(values)]

    def test_agrees_with_topdown(self, isort_evaluator):
        db = rectified_db(load(ISORT))
        oracle = TopDownEvaluator(db)
        values = [8, 3, 5, 1]
        query_src = f"isort({as_list_term(values)}, Ys)"
        nested_answers, _ = isort_evaluator.evaluate(parse_query(query_src)[0])
        oracle_answers = oracle.query(query_src)
        assert len(nested_answers) == len(oracle_answers) == 1

    def test_boolean_mode(self, isort_evaluator):
        yes, _ = isort_evaluator.evaluate(parse_query("isort([2,1], [1,2])")[0])
        no, _ = isort_evaluator.evaluate(parse_query("isort([2,1], [2,1])")[0])
        assert len(yes) == 1
        assert len(no) == 0

    def test_inner_insert_directly(self):
        db = rectified_db(load(ISORT))
        evaluator = NestedChainEvaluator(db, Predicate("insert", 3))
        answers, _ = evaluator.evaluate(parse_query("insert(5, [1,7], Ys)")[0])
        assert [from_list_term(r[2]) for r in answers] == [[1, 5, 7]]

    def test_call_cache_reused(self, isort_evaluator):
        query = parse_query("isort([3,1,2], Ys)")[0]
        isort_evaluator.evaluate(query)
        cache_size = len(isort_evaluator._call_cache)
        isort_evaluator.evaluate(query)
        assert len(isort_evaluator._call_cache) == cache_size


REPEATED_VARIABLE = """
r(X,Y,Z) :- b(X,Y,Z).
r(X,Y,Z) :- c(X,X1), r(X1,Y,Z).
o(X,Z) :- f(X,Z).
o(X,Z) :- e(X,Y), r(Y,W,W), r(Y,V,U), o(V,Z).
e(a,y). c(y,y1). b(y1,w,w). b(y1,v,u). f(w,endw). f(v,endv).
"""


class TestCallMemo:
    def test_repeated_variable_gets_its_own_entry(self):
        """``r(y, W, W)`` answers only the rows with equal 2nd and 3rd
        arguments; ``r(y, V, U)`` must not reuse that entry."""
        db = load(REPEATED_VARIABLE)
        assert Planner(db).plan("o(a, Z)").strategy == Strategy.NESTED
        rows = assert_strategies_agree(db, "o(a, Z)")
        assert {row[1].value for row in rows} == {"endw", "endv"}


class TestApplicability:
    def test_nonlinear_rejected(self):
        db = rectified_db(load(QSORT))
        evaluator = NestedChainEvaluator(db, Predicate("qsort", 2))
        with pytest.raises(NestedEvaluationError):
            evaluator.evaluate(parse_query("qsort([2,1], Ys)")[0])

    def test_idb_finite_rejects_underbound_insert(self):
        from repro.datalog.literals import Literal
        from repro.datalog.terms import Var

        db = rectified_db(load(ISORT))
        evaluator = NestedChainEvaluator(db, Predicate("isort", 2))
        insert_literal = Literal("insert", (Var("X"), Var("Zs"), Var("Ys")))
        # Only X bound (position 0): insert^bff is infinite.
        assert not evaluator._idb_finite(insert_literal, frozenset({0}))
        # X and the input list bound: insert^bbf is fine.
        assert evaluator._idb_finite(insert_literal, frozenset({0, 1}))
        # Fully bound calls are always fine.
        assert evaluator._idb_finite(insert_literal, frozenset({0, 1, 2}))


class TestPlannerIntegration:
    def test_isort_routed_to_nested(self):
        planner = Planner(load(ISORT))
        plan = planner.plan("isort([4,2,9], Ys)")
        assert plan.strategy == Strategy.NESTED
        rows = planner.answer_rows("isort([4,2,9], Ys)")
        assert from_list_term(rows[0][1]) == [2, 4, 9]

    def test_qsort_still_top_down(self):
        planner = Planner(load(QSORT))
        plan = planner.plan("qsort([4,2,9], Ys)")
        assert plan.strategy == Strategy.TOP_DOWN


class TestNrev:
    """Naive reverse: nested linear with an inner functional append."""

    def test_basic(self):
        from repro.workloads import NREV

        planner = Planner(load(NREV))
        plan = planner.plan("nrev([1,2,3,4], R)")
        assert plan.strategy == Strategy.NESTED
        rows = planner.answer_rows("nrev([1,2,3,4], R)")
        assert from_list_term(rows[0][1]) == [4, 3, 2, 1]

    def test_empty(self):
        from repro.workloads import NREV

        rows = Planner(load(NREV)).answer_rows("nrev([], R)")
        assert from_list_term(rows[0][1]) == []

    @pytest.mark.parametrize("length", [1, 5, 12])
    def test_matches_python_reverse(self, length):
        from repro.workloads import NREV

        values = random_int_list(length, seed=length * 7)
        planner = Planner(load(NREV))
        rows = planner.answer_rows(f"nrev({as_list_term(values)}, R)")
        assert from_list_term(rows[0][1]) == list(reversed(values))

    def test_involution(self):
        from repro.workloads import NREV

        planner = Planner(load(NREV))
        once = planner.answer_rows("nrev([9,8,7], R)")[0][1]
        twice = planner.answer_rows(f"nrev({once}, R)")[0][1]
        assert from_list_term(twice) == [9, 8, 7]
