"""Unit tests for literals, rules and program-level analyses.

The dependency cases run on :class:`DependencyGraph`, the one place
recursion, strata and dependency edges are computed.
"""

import pytest

from repro.analysis.depgraph import DependencyGraph
from repro.datalog.literals import Literal, Predicate
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Const, Var


class TestPredicate:
    def test_identity(self):
        assert Predicate("p", 2) == Predicate("p", 2)
        assert Predicate("p", 2) != Predicate("p", 3)
        assert Predicate("p", 2) != Predicate("q", 2)

    def test_str(self):
        assert str(Predicate("sg", 2)) == "sg/2"

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Predicate("p", -1)


class TestLiteral:
    def test_variables_deduplicated_in_order(self):
        literal = Literal("p", (Var("B"), Var("A"), Var("B")))
        assert [v.name for v in literal.variables()] == ["B", "A"]

    def test_substitute(self):
        literal = Literal("p", (Var("X"), Const(1)))
        result = literal.substitute({"X": Const(9)})
        assert result.args == (Const(9), Const(1))

    def test_negation_str(self):
        assert str(Literal("p", (Var("X"),), negated=True)) == "\\+ p(X)"

    def test_comparison_str(self):
        assert str(Literal(">", (Var("X"), Const(1)))) == "X > 1"

    def test_positive(self):
        negated = Literal("p", (Var("X"),), negated=True)
        assert not negated.positive().negated

    def test_is_comparison(self):
        assert Literal("=<", (Var("X"), Var("Y"))).is_comparison()
        assert not Literal("p", (Var("X"),)).is_comparison()


class TestRule:
    def test_fact_detection(self):
        assert parse_rule("p(a, 1).").is_fact()
        assert not parse_rule("p(X).").is_fact()
        assert not parse_rule("p(a) :- q(a).").is_fact()

    def test_recursion_detection(self):
        rule = parse_rule("anc(X, Y) :- parent(X, Z), anc(Z, Y).")
        assert rule.is_recursive_on(Predicate("anc", 2))
        assert rule.is_linear_on(Predicate("anc", 2))

    def test_nonlinear_detection(self):
        rule = parse_rule("f(X) :- f(Y), f(Z), g(X, Y, Z).")
        assert rule.is_recursive_on(Predicate("f", 1))
        assert not rule.is_linear_on(Predicate("f", 1))

    def test_negated_head_rejected(self):
        with pytest.raises(ValueError):
            Rule(Literal("p", (Var("X"),), negated=True))

    def test_rename_apart_preserves_shape(self):
        rule = parse_rule("anc(X, Y) :- parent(X, Z), anc(Z, Y).")
        variant = rule.rename_apart()
        assert variant.head.name == "anc"
        assert len(variant.body) == 2
        original_names = {v.name for v in rule.variables()}
        new_names = {v.name for v in variant.variables()}
        assert not (original_names & new_names)
        # Shared variables remain shared after renaming.
        assert variant.head.args[0] == variant.body[0].args[0]

    def test_variables_order(self):
        rule = parse_rule("p(B, A) :- q(A, C).")
        assert [v.name for v in rule.variables()] == ["B", "A", "C"]


SG = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
"""


class TestProgram:
    def test_predicate_partition(self):
        program = parse_program(SG + "sibling(a, b).")
        assert Predicate("sg", 2) in program.idb_predicates()
        assert Predicate("parent", 2) in program.edb_predicates()
        assert Predicate("sibling", 2) in program.edb_predicates()

    def test_rules_for(self):
        program = parse_program(SG)
        assert len(program.rules_for(Predicate("sg", 2))) == 2

    def test_recursive_predicates_self(self):
        program = parse_program(SG)
        assert DependencyGraph(program).recursive == {Predicate("sg", 2)}

    def test_recursive_predicates_mutual(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
            """
        )
        recursive = DependencyGraph(program).recursive
        assert Predicate("even", 1) in recursive
        assert Predicate("odd", 1) in recursive

    def test_non_recursive(self):
        program = parse_program("grand(X, Y) :- parent(X, Z), parent(Z, Y).")
        assert not DependencyGraph(program).recursive

    def test_strata_negation(self):
        program = parse_program(
            """
            reach(X) :- source(X).
            reach(X) :- edge(Y, X), reach(Y).
            unreach(X) :- node(X), \\+ reach(X).
            """
        )
        strata = DependencyGraph(program).strata()
        level = {p: i for i, s in enumerate(strata) for p in s}
        assert level[Predicate("unreach", 1)] > level[Predicate("reach", 1)]

    def test_unstratifiable_rejected(self):
        program = parse_program(
            """
            p(X) :- node(X), \\+ q(X).
            q(X) :- node(X), \\+ p(X).
            """
        )
        with pytest.raises(ValueError):
            DependencyGraph(program).strata()

    def test_dependency_graph(self):
        program = parse_program(SG)
        edges = DependencyGraph(program).edges
        assert Predicate("parent", 2) in edges[Predicate("sg", 2)]
        assert Predicate("sg", 2) in edges[Predicate("sg", 2)]
