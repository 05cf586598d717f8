"""Unit tests for the tabled top-down evaluator."""

import pytest

from repro.datalog.terms import Const
from repro.engine.database import Database
from repro.engine.seminaive import SemiNaiveEvaluator
from repro.engine.tabling import TabledEvaluator
from repro.engine.topdown import (
    BudgetExceeded,
    NotFinitelyEvaluable,
    TopDownEvaluator,
)
from repro.workloads import APPEND, SG, from_list_term, load


def make_db(source, facts=()):
    db = Database()
    db.load_source(source)
    for name, row in facts:
        db.add_fact(name, row)
    return db


RIGHT_ANCESTOR = """
anc(X, Y) :- parent(X, Y).
anc(X, Y) :- parent(X, Z), anc(Z, Y).
"""

LEFT_ANCESTOR = """
anc(X, Y) :- parent(X, Y).
anc(X, Y) :- anc(X, Z), parent(Z, Y).
"""

CHAIN = [("parent", (f"n{i}", f"n{i+1}")) for i in range(5)]


class TestTabling:
    def test_basic_recursion(self):
        db = make_db(RIGHT_ANCESTOR, CHAIN)
        evaluator = TabledEvaluator(db)
        answers = {a["Y"].value for a in evaluator.query("anc(n0, Y)")}
        assert answers == {f"n{i}" for i in range(1, 6)}

    def test_left_recursion_terminates(self):
        """Plain SLD loops forever on the left-recursive formulation;
        tabling terminates with the same answers."""
        db = make_db(LEFT_ANCESTOR, CHAIN)
        sld = TopDownEvaluator(db, max_steps=5_000)
        with pytest.raises(BudgetExceeded):
            sld.query("anc(n0, Y)")
        tabled = TabledEvaluator(db)
        answers = {a["Y"].value for a in tabled.query("anc(n0, Y)")}
        assert answers == {f"n{i}" for i in range(1, 6)}

    def test_agrees_with_seminaive(self):
        db = make_db(RIGHT_ANCESTOR, CHAIN + [("parent", ("n5", "n0"))])  # cycle
        tabled = TabledEvaluator(db)
        tabled_answers = {a["Y"].value for a in tabled.query("anc(n2, Y)")}
        full = SemiNaiveEvaluator(db).evaluate()
        oracle = {
            row[1].value
            for row in full.relation("anc", 2)
            if row[0].value == "n2"
        }
        assert tabled_answers == oracle

    def test_cyclic_data_terminates(self):
        db = make_db(LEFT_ANCESTOR, [("parent", ("a", "b")), ("parent", ("b", "a"))])
        evaluator = TabledEvaluator(db)
        answers = {a["Y"].value for a in evaluator.query("anc(a, Y)")}
        assert answers == {"a", "b"}

    def test_sg_two_chain(self):
        db = make_db(
            SG,
            [
                ("parent", ("a", "b")),
                ("parent", ("c", "d")),
                ("sibling", ("b", "d")),
            ],
        )
        evaluator = TabledEvaluator(db)
        answers = {a["Y"].value for a in evaluator.query("sg(a, Y)")}
        assert answers == {"c"}

    def test_shared_subgoals_memoized(self):
        """Diamond DAG: the shared subgoal is expanded once per call
        pattern, not once per path."""
        facts = [
            ("parent", ("s", "l")),
            ("parent", ("s", "r")),
            ("parent", ("l", "m")),
            ("parent", ("r", "m")),
        ] + [("parent", (f"m{i}" if i else "m", f"m{i+1}")) for i in range(6)]
        db = make_db(RIGHT_ANCESTOR, facts)
        evaluator = TabledEvaluator(db)
        answers = evaluator.query("anc(s, Y)")
        # Reachable: l, r, m, m1..m6 -> 9 nodes.
        assert len(answers) == 9

    def test_functional_program(self):
        evaluator = TabledEvaluator(load(APPEND))
        answers = evaluator.query("append([1,2], [3], W)")
        assert [from_list_term(a["W"]) for a in answers] == [[1, 2, 3]]

    def test_negated_edb_supported(self):
        db = make_db(
            "ok(X) :- cand(X), \\+ blocked(X).",
            [("cand", (1,)), ("cand", (2,)), ("blocked", (2,))],
        )
        evaluator = TabledEvaluator(db)
        assert {a["X"].value for a in evaluator.query("ok(X)")} == {1}

    def test_negated_idb_refused(self):
        db = make_db(
            """
            ok(X) :- cand(X), \\+ bad(X).
            bad(X) :- flaw(X).
            """,
            [("cand", (1,)), ("flaw", (1,))],
        )
        evaluator = TabledEvaluator(db)
        with pytest.raises(NotImplementedError):
            evaluator.query("ok(X)")

    @pytest.mark.parametrize(
        "body", ["\\+ blocked(X)", "X < 3", "cand(X), \\+ blocked(Y)"]
    )
    def test_floundering_goals_raise_like_top_down(self, body):
        """Goal selection is the top-down evaluator's deferred policy,
        so a goal that can never become ready raises the same
        exception type under both evaluators."""
        db = make_db(f"ok(X) :- {body}.", [("cand", (1,)), ("blocked", (2,))])
        for evaluator in (TabledEvaluator(db), TopDownEvaluator(db)):
            with pytest.raises(NotFinitelyEvaluable):
                evaluator.query("ok(X)")

    def test_ask(self):
        db = make_db(RIGHT_ANCESTOR, CHAIN)
        evaluator = TabledEvaluator(db)
        assert evaluator.ask("anc(n0, n5)")
        assert not evaluator.ask("anc(n5, n0)")

    def test_distinct_call_patterns_get_distinct_tables(self):
        db = make_db(RIGHT_ANCESTOR, CHAIN)
        evaluator = TabledEvaluator(db)
        evaluator.query("anc(n0, Y)")
        evaluator.query("anc(n3, Y)")
        assert len(evaluator.table_sizes()) >= 2

    def test_round_guard(self):
        db = make_db(LEFT_ANCESTOR, CHAIN)
        evaluator = TabledEvaluator(db, max_rounds=1)
        with pytest.raises(RuntimeError):
            evaluator.query("anc(n0, Y)")
