"""The one dependency analysis: closures and their classification,
SCCs, strata and closure slices, their properties over random
stratified programs, and the guard that keeps it the only one."""

import ast
import importlib
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import DependencyGraph
from repro.core.planner import Planner
from repro.datalog.literals import Predicate
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.engine.database import Database
from repro.testing import assert_slices_agree
from repro.workloads import ANCESTOR, APPEND, SCSG, SG, TRAVEL


def graph_for(source: str) -> DependencyGraph:
    db = Database()
    db.load_source(source)
    return DependencyGraph(db.program)


class TestClosure:
    def test_ancestor_closure(self):
        graph = graph_for(ANCESTOR)
        ancestor = Predicate("ancestor", 2)
        assert graph.is_idb(ancestor)
        assert graph.closure(ancestor) == {
            ancestor,
            Predicate("parent", 2),
        }

    def test_sg_closure_includes_both_edbs(self):
        graph = graph_for(SG)
        closure = graph.closure(Predicate("sg", 2))
        assert Predicate("parent", 2) in closure
        assert Predicate("sibling", 2) in closure

    def test_scsg_adds_weak_linkage(self):
        graph = graph_for(SCSG)
        closure = graph.closure(Predicate("scsg", 2))
        assert Predicate("same_country", 2) in closure

    def test_disjoint_predicates_stay_out(self):
        graph = graph_for(SG + "\nother(X) :- thing(X).\n")
        closure = graph.closure(Predicate("sg", 2))
        assert Predicate("thing", 1) not in closure
        assert Predicate("other", 1) not in closure

    def test_edb_closure_is_itself(self):
        graph = graph_for(SG)
        parent = Predicate("parent", 2)
        assert not graph.is_idb(parent)

    def test_transitive_idb_dependency(self):
        graph = graph_for(
            "a(X) :- b(X).\nb(X) :- c(X), base(X).\nc(X) :- leaf(X).\n"
        )
        closure = graph.closure(Predicate("a", 1))
        assert Predicate("leaf", 1) in closure
        assert Predicate("base", 1) in closure
        info = graph.info(Predicate("a", 1))
        assert info.idb == {
            Predicate("a", 1),
            Predicate("b", 1),
            Predicate("c", 1),
        }


class TestMaintainability:
    def test_definite_program_is_maintainable(self):
        graph = graph_for(SG)
        info = graph.info(Predicate("sg", 2))
        assert info.maintainable
        assert info.materializable
        assert not info.has_negation
        assert not info.has_functional

    def test_negation_blocks_maintenance_not_materialization(self):
        graph = graph_for(
            "only(X) :- node(X), \\+ blocked(X).\nblocked(X) :- bad(X).\n"
        )
        info = graph.info(Predicate("only", 1))
        assert info.has_negation
        assert not info.maintainable
        assert info.materializable

    def test_negation_detected_transitively(self):
        graph = graph_for(
            "top(X) :- mid(X).\nmid(X) :- node(X), \\+ bad(X).\n"
        )
        assert graph.info(Predicate("top", 1)).has_negation

    def test_functional_builtins_block_materialization(self):
        graph = graph_for(TRAVEL)
        info = graph.info(Predicate("travel", 6))
        assert info.has_functional
        assert not info.maintainable
        assert not info.materializable

    def test_comparisons_are_harmless(self):
        graph = graph_for("big(X, Y) :- pair(X, Y), X > Y.\n")
        info = graph.info(Predicate("big", 2))
        assert not info.has_functional
        assert info.maintainable


class TestRectifiedClassification:
    def test_list_heads_are_functional(self):
        """``append``'s body calls no builtin, but its rectified heads
        build lists with ``cons``: the planner evaluates that program,
        so IVM must not materialize it."""
        info = graph_for(APPEND).info(Predicate("append", 3))
        assert info.has_functional
        assert not info.materializable

    def test_constant_and_repeated_head_arguments_stay_definite(self):
        graph = graph_for("p(X, X, a) :- q(X).\n")
        assert graph.info(Predicate("p", 3)).maintainable


class TestStructure:
    def test_components_come_dependencies_first(self):
        graph = graph_for(
            "top(X) :- mid(X).\nmid(X) :- low(X), \\+ bad(X).\n"
            "low(X) :- base(X).\nlow(X) :- low(X), base(X).\nbad(X) :- base(X).\n"
        )
        order = [p.name for c in graph.components for p in c]
        assert order.index("low") < order.index("mid") < order.index("top")
        assert order.index("bad") < order.index("mid")
        assert graph.recursive == {Predicate("low", 1)}

    def test_mutual_recursion_is_one_component(self):
        graph = graph_for(
            "even(X) :- zero(X).\neven(X) :- succ(Y, X), odd(Y).\n"
            "odd(X) :- succ(Y, X), even(Y).\n"
        )
        assert graph.components == [{Predicate("even", 1), Predicate("odd", 1)}]

    def test_strata_follow_negation(self):
        graph = graph_for(
            "reach(X) :- source(X).\nreach(X) :- edge(Y, X), reach(Y).\n"
            "unreach(X) :- node(X), \\+ reach(X).\n"
        )
        assert graph.strata() == [{Predicate("reach", 1)}, {Predicate("unreach", 1)}]


class TestSubprogram:
    def test_closure_rules_in_program_order(self):
        graph = graph_for(SG + "other(X) :- thing(X).\n" + ANCESTOR)
        sg = graph.subprogram(Predicate("sg", 2))
        assert sg.rules == [r for r in graph.program if r.head.name == "sg"]

    def test_stored_relation_evaluates_nothing(self):
        graph = graph_for(SG + TRAVEL)
        assert not graph.subprogram(Predicate("parent", 2)).rules
        assert graph.closure(Predicate("parent", 2)) == {Predicate("parent", 2)}


# ----------------------------------------------------------------------
# Properties over random function-free stratified programs
# ----------------------------------------------------------------------
VARS = ["X", "Y", "Z", "W"]
COMPARISONS = ["<", "=<", ">", ">="]


@st.composite
def component_rules(draw, prefix):
    """One component: IDB ``{prefix}0..4`` over EDB ``{prefix}e0/e1``,
    with self and mutual recursion, and random rules whose negation and
    comparisons are layered so the component stays stratifiable."""
    edb = [f"{prefix}e0", f"{prefix}e1"]
    idb = [f"{prefix}{i}" for i in range(5)]
    layer = {p: 0 for p in idb[:3]}
    layer.update({p: draw(st.integers(0, 2)) for p in idb[3:]})
    rules = [
        f"{idb[0]}(X, Y) :- {edb[0]}(X, Y).",
        f"{idb[0]}(X, Y) :- {edb[0]}(X, Z), {idb[0]}(Z, Y).",
        f"{idb[1]}(X, Y) :- {edb[1]}(X, Y).",
        f"{idb[1]}(X, Y) :- {idb[2]}(Y, X).",
        f"{idb[2]}(X, Y) :- {edb[0]}(X, Z), {idb[1]}(Z, Y).",
    ]
    rules += [f"{p}(X, Y) :- {draw(st.sampled_from(edb))}(X, Y)." for p in idb[3:]]
    for _ in range(draw(st.integers(0, 5))):
        head = draw(st.sampled_from(idb))
        body, bound = [], []
        for _ in range(draw(st.integers(1, 2))):
            source = draw(
                st.sampled_from(edb + [p for p in idb if layer[p] <= layer[head]])
            )
            a, b = draw(st.sampled_from(VARS)), draw(st.sampled_from(VARS))
            body.append(f"{source}({a}, {b})")
            bound += [a, b]
        if draw(st.booleans()):
            negated = draw(
                st.sampled_from(edb + [p for p in idb if layer[p] < layer[head]])
            )
            a, b = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
            body.append(f"\\+ {negated}({a}, {b})")
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
            body.append(f"{a} {draw(st.sampled_from(COMPARISONS))} {b}")
        x, y = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
        rules.append(f"{head}({x}, {y}) :- {', '.join(body)}.")
    return rules


@st.composite
def stratified_programs(draw):
    """Two unrelated components, plus facts for their EDB."""
    rules = draw(component_rules("a")) + draw(component_rules("b"))
    facts = [
        f"{name}({x}, {y})."
        for name in ("ae0", "ae1", "be0", "be1")
        for x, y in draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8)
        )
    ]
    return "\n".join(rules + facts)


def fixpoint_strata(program):
    """The stratum fixpoint ``strata()`` replaced, kept as its oracle."""
    idb = {rule.head.predicate for rule in program}
    stratum = {p: 0 for p in idb}
    changed = True
    while changed:
        changed = False
        for rule in program:
            for literal in rule.body:
                if literal.predicate not in idb:
                    continue
                needed = stratum[literal.predicate] + literal.negated
                if stratum[rule.head.predicate] < needed:
                    if needed > len(idb):
                        raise ValueError("program is not stratifiable")
                    stratum[rule.head.predicate] = needed
                    changed = True
    levels = {}
    for predicate, level in stratum.items():
        levels.setdefault(level, set()).add(predicate)
    return [levels[i] for i in sorted(levels)]


programs = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestProperties:
    @programs
    @given(stratified_programs())
    def test_strata_are_the_fixpoint_and_stratify(self, source):
        program = parse_program(source)
        strata = DependencyGraph(program).strata()
        assert strata == fixpoint_strata(program)
        level = {p: i for i, s in enumerate(strata) for p in s}
        for rule in program:
            for literal in rule.body:
                if literal.predicate in level:
                    below = level[literal.predicate] + literal.negated
                    assert below <= level[rule.head.predicate], rule

    @programs
    @given(stratified_programs())
    def test_negative_cycle_is_rejected(self, source):
        program = parse_program(
            source + "\na0(X, Y) :- ae0(X, Y), \\+ a5(X, Y).\na5(X, Y) :- a0(X, Y).\n"
        )
        with pytest.raises(ValueError):
            fixpoint_strata(program)
        with pytest.raises(ValueError):
            DependencyGraph(program).strata()

    @programs
    @given(stratified_programs())
    def test_sliced_equals_unsliced(self, source):
        database = Database()
        database.load_source(source)
        agreed = assert_slices_agree(database)
        assert len(agreed) == 10
        graph = DependencyGraph(database.program)
        assert all(
            r.head.name.startswith("a")
            for r in graph.subprogram(Predicate("a4", 2))
        )


# ----------------------------------------------------------------------
# AST guard
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parents[2]
SCC_NAMES = re.compile(r"strongly_connected|tarjan|kosaraju")


def test_one_dependency_analysis():
    """One SCC implementation under ``src/repro`` — the graph's — and
    none of the old copies left behind or aliased."""
    sccs, classes = [], {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        where = path.relative_to(ROOT / "src").as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(where)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                SCC_NAMES.search(node.name.lower())
                or any(
                    isinstance(n, ast.Name) and "lowlink" in n.id.lower()
                    for n in ast.walk(node)
                )
            ):
                sccs.append(f"{where}:{node.name}")
    assert sccs == ["repro/analysis/depgraph.py:_tarjan"]
    assert classes["DependencyGraph"] == ["repro/analysis/depgraph.py"]
    assert classes["ClosureInfo"] == ["repro/analysis/depgraph.py"]
    for name in ("strata", "recursive_predicates", "dependency_graph", "is_recursive"):
        assert not hasattr(Program, name), name
    assert not hasattr(Planner, "_closure_is_functional")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.ivm.depgraph")
