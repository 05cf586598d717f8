"""Unit tests for bottom-up evaluation (naive + semi-naive) and joins."""

import ast
from pathlib import Path

import pytest

from repro.datalog.literals import Literal, Predicate
from repro.datalog.parser import parse_program
from repro.datalog.terms import Const, Var
from repro.engine.builtins import default_registry
from repro.engine.counters import Counters
from repro.engine.database import Database
from repro.engine.joins import UnsafeRuleError, compile_body, order_body
from repro.engine.relation import Relation
from repro.engine.seminaive import NaiveEvaluator, SemiNaiveEvaluator


def make_db(source, facts=()):
    db = Database()
    db.load_source(source)
    for name, row in facts:
        db.add_fact(name, row)
    return db


ANCESTOR = """
anc(X, Y) :- parent(X, Y).
anc(X, Y) :- parent(X, Z), anc(Z, Y).
"""

CHAIN = [("parent", ("a", "b")), ("parent", ("b", "c")), ("parent", ("c", "d"))]


class TestOrderBody:
    def test_builtin_deferred_until_bound(self):
        registry = default_registry()
        rule = parse_program("p(X, Y) :- Y is X + 1, q(X).").rules[0]
        ordered = order_body(rule.body, registry)
        assert [lit.name for _, lit in ordered] == ["q", "is"]

    def test_negation_deferred(self):
        registry = default_registry()
        rule = parse_program("p(X) :- \\+ bad(X), q(X).").rules[0]
        ordered = order_body(rule.body, registry)
        assert [lit.name for _, lit in ordered] == ["q", "bad"]

    def test_unsafe_rule_raises(self):
        registry = default_registry()
        rule = parse_program("p(X) :- X < 3.").rules[0]
        with pytest.raises(UnsafeRuleError):
            order_body(rule.body, registry)

    def test_original_indexes_preserved(self):
        registry = default_registry()
        rule = parse_program("p(X) :- X > 1, q(X), r(X).").rules[0]
        ordered = order_body(rule.body, registry)
        indexes = {idx for idx, _ in ordered}
        assert indexes == {0, 1, 2}


class TestSemiNaive:
    def test_transitive_closure(self):
        db = make_db(ANCESTOR, CHAIN)
        result = SemiNaiveEvaluator(db).evaluate()
        assert len(result.relation("anc", 2)) == 6

    def test_agrees_with_naive(self):
        db = make_db(ANCESTOR, CHAIN)
        semi = SemiNaiveEvaluator(db).evaluate()
        naive = NaiveEvaluator(db).evaluate()
        assert semi.relation("anc", 2) == naive.relation("anc", 2)

    def test_seminaive_fewer_duplicates_than_naive(self):
        facts = [("parent", (f"n{i}", f"n{i+1}")) for i in range(12)]
        db = make_db(ANCESTOR, facts)
        semi = SemiNaiveEvaluator(db).evaluate()
        naive = NaiveEvaluator(db).evaluate()
        assert semi.counters.duplicate_tuples < naive.counters.duplicate_tuples

    def test_cyclic_data_terminates(self):
        db = make_db(ANCESTOR, CHAIN + [("parent", ("d", "a"))])
        result = SemiNaiveEvaluator(db).evaluate()
        assert len(result.relation("anc", 2)) == 16  # complete digraph on 4

    def test_builtin_in_body(self):
        db = make_db(
            """
            bump(X, Y) :- base(X), Y is X + 1.
            """,
            [("base", (1,)), ("base", (5,))],
        )
        result = SemiNaiveEvaluator(db).evaluate()
        rows = {tuple(v.value for v in row) for row in result.relation("bump", 2)}
        assert rows == {(1, 2), (5, 6)}

    def test_comparison_filter(self):
        db = make_db(
            "big(X) :- num(X), X > 10.",
            [("num", (5,)), ("num", (15,)), ("num", (25,))],
        )
        result = SemiNaiveEvaluator(db).evaluate()
        assert len(result.relation("big", 1)) == 2

    def test_stratified_negation(self):
        db = make_db(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            isolated(X) :- node(X), \\+ reach(X).
            """,
            [
                ("start", ("a",)),
                ("edge", ("a", "b")),
                ("node", ("a",)),
                ("node", ("b",)),
                ("node", ("c",)),
            ],
        )
        result = SemiNaiveEvaluator(db).evaluate()
        isolated = {row[0].value for row in result.relation("isolated", 1)}
        assert isolated == {"c"}

    def test_mutual_recursion(self):
        db = make_db(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
            """,
            [("zero", (0,))] + [("succ", (i, i + 1)) for i in range(6)],
        )
        result = SemiNaiveEvaluator(db).evaluate()
        evens = {row[0].value for row in result.relation("even", 1)}
        odds = {row[0].value for row in result.relation("odd", 1)}
        assert evens == {0, 2, 4, 6}
        assert odds == {1, 3, 5}

    def test_constant_in_rule_head(self):
        db = make_db("flag(on) :- trigger(X).", [("trigger", (1,))])
        result = SemiNaiveEvaluator(db).evaluate()
        assert len(result.relation("flag", 1)) == 1

    def test_empty_program(self):
        db = Database()
        result = SemiNaiveEvaluator(db).evaluate()
        assert result.relations == {}

    def test_counters_populated(self):
        db = make_db(ANCESTOR, CHAIN)
        result = SemiNaiveEvaluator(db).evaluate()
        assert result.counters.derived_tuples == 6
        assert result.counters.iterations >= 2
        assert result.counters.join_probes > 0

    def test_nonlinear_rule(self):
        # Same-generation via double recursion (nonlinear) still works
        # bottom-up.
        db = make_db(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- path(X, Z), path(Z, Y).
            """,
            [("edge", ("a", "b")), ("edge", ("b", "c"))],
        )
        result = SemiNaiveEvaluator(db).evaluate()
        assert len(result.relation("path", 2)) == 3

    def test_max_iterations_guard(self):
        db = make_db(
            "count(Y) :- count(X), Y is X + 1.\ncount(0).",
        )
        with pytest.raises(RuntimeError):
            SemiNaiveEvaluator(db, max_iterations=50).evaluate()

    def test_relation_helper_returns_empty_for_unknown(self):
        db = make_db(ANCESTOR, CHAIN)
        result = SemiNaiveEvaluator(db).evaluate()
        assert len(result.relation("nothing", 3)) == 0

    def test_relation_helper_caches_unknown_predicates(self):
        """relation() registers the empty relation it hands out, so
        repeated calls return the same object and caller mutations are
        not silently lost (regression: it used to return a fresh
        detached Relation every call)."""
        db = make_db(ANCESTOR, CHAIN)
        result = SemiNaiveEvaluator(db).evaluate()
        first = result.relation("nothing", 3)
        assert result.relation("nothing", 3) is first
        first.add((Const(1), Const(2), Const(3)))
        assert len(result.relation("nothing", 3)) == 1
        assert Predicate("nothing", 3) in result.relations


class TestDeltaDiscipline:
    """Nonlinear recursion must not re-derive the same-round tuple
    combinations once per recursive slot."""

    NONLINEAR = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), path(Z, Y).
    """

    def chain_db(self, n):
        return make_db(
            self.NONLINEAR, [("edge", (f"v{i}", f"v{i+1}")) for i in range(n)]
        )

    def test_nonlinear_duplicates_drop(self):
        """Regression for the per-slot re-derivation bug: on an 8-edge
        chain the old discipline (delta at one slot, the live full
        relation at the other) produced 113 duplicate derivations; the
        pre-round/delta/frozen-full window discipline must stay
        strictly below that, and below naive."""
        db = self.chain_db(8)
        semi = SemiNaiveEvaluator(db).evaluate()
        naive = NaiveEvaluator(db).evaluate()
        assert semi.relation("path", 2) == naive.relation("path", 2)
        assert len(semi.relation("path", 2)) == 36
        assert semi.counters.derived_tuples == 36
        assert semi.counters.duplicate_tuples < 113
        assert semi.counters.duplicate_tuples < naive.counters.duplicate_tuples

    def test_nonlinear_mutual_recursion_agrees_with_naive(self):
        db = make_db(
            """
            a(X, Y) :- e1(X, Y).
            a(X, Y) :- a(X, Z), b(Z, Y).
            b(X, Y) :- e2(X, Y).
            b(X, Y) :- b(X, Z), a(Z, Y).
            """,
            [("e1", ("u", "v")), ("e2", ("v", "w")), ("e1", ("w", "x"))],
        )
        semi = SemiNaiveEvaluator(db).evaluate()
        naive = NaiveEvaluator(db).evaluate()
        assert semi.relation("a", 2) == naive.relation("a", 2)
        assert semi.relation("b", 2) == naive.relation("b", 2)

    def test_triple_recursive_slots(self):
        db = make_db(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z1), t(Z1, Z2), t(Z2, Y).
            """,
            [("e", (f"v{i}", f"v{i+1}")) for i in range(6)],
        )
        semi = SemiNaiveEvaluator(db).evaluate()
        naive = NaiveEvaluator(db).evaluate()
        assert semi.relation("t", 2) == naive.relation("t", 2)


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestOneFixpointLoop:
    """Evaluation and incremental view maintenance share the one
    semi-naive fixpoint loop in ``engine/seminaive.py`` instead of copying its
    delta discipline."""

    def test_only_the_fixpoint_loop_builds_variant_overrides(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.relative_to(SRC).as_posix() == "engine/seminaive.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and any(
                    keyword.arg == "overrides" for keyword in node.keywords
                ):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, offenders

    def test_views_have_no_fixpoint_loop_of_their_own(self):
        tree = ast.parse((SRC / "ivm" / "view.py").read_text())
        loops = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.While)]
        assert not loops, loops
        called = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "fixpoint" in called

    def test_delta_first_order_stays_in_the_engine(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent.name == "engine":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                if any("delta_first_order" in name for name in names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, offenders


class TestStreamingPipeline:
    """evaluate_body is a lazy generator chain: peak live substitutions
    equal the body length, and abandoning the iterator abandons the
    join."""

    def test_peak_intermediate_is_body_length(self):
        from repro.engine.joins import evaluate_body

        registry = default_registry()
        db = Database()
        for i in range(20):
            for j in range(20):
                db.add_fact("r", (i, j))
                db.add_fact("s", (i, j))
        rule = parse_program("p(X, W) :- r(X, Y), s(Z, W).").rules[0]
        ordered = compile_body(rule.body, registry)
        counters = Counters()
        for _ in evaluate_body(ordered, db.get, registry, {}, counters):
            pass
        # The cross product has 400 * 400 solutions but never more than
        # one live substitution per literal.
        assert counters.peak_intermediate == 2

    def test_consumer_can_abandon_the_join(self):
        from repro.engine.joins import evaluate_body

        registry = default_registry()
        db = Database()
        for i in range(100):
            db.add_fact("r", (i,))
            db.add_fact("s", (i,))
        rule = parse_program("p(X, Y) :- r(X), s(Y).").rules[0]
        ordered = compile_body(rule.body, registry)
        counters = Counters()
        stream = evaluate_body(ordered, db.get, registry, {}, counters)
        next(stream)
        stream.close()
        # Only the prefix needed for the first solution was computed,
        # not the 10_000-row cross product.
        assert counters.intermediate_tuples <= 3

    def test_stop_condition_aborts_mid_join(self):
        db = make_db(
            "pair(X, Y) :- left(X), right(Y).",
            [("left", (i,)) for i in range(50)]
            + [("right", (i,)) for i in range(50)],
        )
        result = SemiNaiveEvaluator(db).evaluate(
            stop_condition=lambda derived: any(
                len(rel) for rel in derived.values()
            )
        )
        # Stopped after the first derived tuple — the remaining 2499
        # combinations were never enumerated.
        assert len(result.relation("pair", 2)) == 1
        assert result.counters.derived_tuples == 1
        assert result.counters.intermediate_tuples < 10

    def test_builtin_evals_counted(self):
        db = make_db(
            "bump(X, Y) :- base(X), Y is X + 1.",
            [("base", (i,)) for i in range(5)],
        )
        result = SemiNaiveEvaluator(db).evaluate()
        assert result.counters.builtin_evals == 5
        assert result.counters.builtin_evals <= result.counters.total_work
        assert result.counters.as_dict()["builtin_evals"] == 5
