"""The ``cached == fresh`` lane: a session's answers survive writes
exactly as far as they are still right.

Every session, with views (``ivm=True``) or without, keeps a cached
answer whose predicate closure misses the relations a write changed,
and repairs or evicts the rest.  Hypothesis drives random writes
(add, retract, ``apply_batch``), rule additions and ``subscribable()``
pins over a program with two disjoint closures and a stored-only
relation.  After every step each answer must equal a fresh session's
(:func:`repro.testing.assert_cache_coherent`), an answer the write
could not reach must still come from the cache, and — without views —
an answer it did reach must not.  A source guard pins that ``_sync``
clears the result cache only on a rule change and that views gate
only the repair steps.
"""

import ast
import inspect
import textwrap

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.datalog.literals import Predicate
from repro.datalog.parser import parse_rule
from repro.engine.database import Database
from repro.service.session import QuerySession
from repro.testing import assert_cache_coherent
from repro.workloads import SG

PROGRAM = SG + """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
"""

#: ``note`` is stored-only until a rule below reads it.
QUERIES = [
    "sg(X, Y)", "sg(n0, Y)", "reach(X, Y)", "reach(n0, Y)",
    "note(X, Y)", "note(n0, Y)",
]

RULES = [
    "reach(X, Y) :- sibling(X, Y).",
    "sg(X, Y) :- note(X, Y).",
    "reach(X, Y) :- note(Y, X).",
    "link(X, Y) :- edge(X, Y), note(Y, X).",
]

PINS = ["sg", "reach", "note"]

NODES = [f"n{i}" for i in range(4)]
RELATIONS = ["parent", "sibling", "edge", "note"]

pair = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
write = st.tuples(
    st.sampled_from(["add", "retract"]), st.sampled_from(RELATIONS), pair
)
step = st.one_of(
    write,
    st.lists(write, min_size=1, max_size=4).map(lambda ws: ("batch", ws)),
    st.sampled_from(RULES).map(lambda rule: ("rule", rule)),
    st.sampled_from(PINS).map(lambda name: ("pin", name)),
)

#: One write outside each closure, then one inside: keeps, then evicts.
KEEP_THEN_EVICT = [
    ("add", "note", ("n0", "n1")),
    ("add", "edge", ("n1", "n2")),
    ("batch", [("add", "note", ("n2", "n3")),
               ("retract", "edge", ("n0", "n1"))]),
    ("add", "sibling", ("n2", "n3")),
]
SEED = [("parent", ("n0", "n1")), ("parent", ("n2", "n3")),
        ("sibling", ("n1", "n3")), ("edge", ("n0", "n1"))]


def apply(session, op):
    kind = op[0]
    if kind == "add":
        session.add_fact(op[1], op[2])
    elif kind == "retract":
        session.retract_fact(op[1], op[2])
    elif kind == "batch":
        session.apply_batch(op[1])
    elif kind == "rule":
        session.add_rule(parse_rule(op[1]))
    else:
        session.subscribable(Predicate(op[1], 2))


def run(ivm, seed, ops):
    db = Database()
    db.load_source(PROGRAM)
    for name in RELATIONS:
        db.relation(name, 2)
    for name, row in seed:
        db.add_fact(name, row)
    session = QuerySession(db, ivm=ivm)
    assert_cache_coherent(session, QUERIES)
    for op in ops:
        before = dict(db.relation_versions)
        rules = len(db.program)
        apply(session, op)
        mutated = {
            p for p, v in db.relation_versions.items() if before.get(p) != v
        }
        results = assert_cache_coherent(session, QUERIES)
        if len(db.program) != rules:
            continue  # a rule change flushes both caches
        graph = session.planner.graph
        for query, result in results.items():
            predicate = Predicate(query.split("(")[0], 2)
            if graph.closure(predicate).isdisjoint(mutated):
                assert result.result_cached, f"{op} evicted {query}"
            elif not ivm:
                assert not result.result_cached, f"{op} kept {query}"
    return session


@pytest.mark.parametrize("ivm", [False, True])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.lists(st.tuples(st.sampled_from(RELATIONS), pair), max_size=8),
    ops=st.lists(step, min_size=1, max_size=10),
)
@example(seed=SEED, ops=KEEP_THEN_EVICT)
@example(seed=SEED, ops=[("pin", "reach"), ("rule", RULES[0]),
                         ("add", "sibling", ("n0", "n2"))])
def test_cached_answers_equal_fresh(ivm, seed, ops):
    run(ivm, seed, ops)


@pytest.mark.parametrize("ivm", [False, True])
def test_lane_takes_the_keep_path(ivm):
    session = run(ivm, SEED, KEEP_THEN_EVICT)
    assert session.metrics.ivm_results_kept > 0
    if not ivm:
        assert session.metrics.result_invalidations > 0


@pytest.mark.parametrize("ivm", [False, True])
def test_rule_added_under_a_pin(ivm):
    """A rule change is not a delta: a pinned view is re-materialized
    clean, so the cached answer must go rather than be patched."""
    db = Database()
    db.load_source(
        "anc(X, Y) :- par(X, Y).\n"
        "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
        "par(a, b). par(b, c). e(a, z).\n"
    )
    session = QuerySession(db, ivm=ivm)
    session.subscribable(Predicate("anc", 2))
    (before,) = assert_cache_coherent(session, ["anc(a, Y)"]).values()
    session.add_rule(parse_rule("anc(X, Y) :- e(X, Y)."))
    (after,) = assert_cache_coherent(session, ["anc(a, Y)"]).values()
    assert not after.result_cached
    assert len(after.rows) == len(before.rows) + 1


def test_sync_has_one_coherence_rule():
    """``_sync`` clears the result cache only on the rule-change path,
    and the views gate exactly three steps with no alternative branch:
    ``on_idb_change`` after a rule change, draining the pending deltas,
    and the in-place repair (``_patch_rows``).  Keep, evict and the
    metrics run the same in every session."""
    source = textwrap.dedent(inspect.getsource(QuerySession._sync))
    tree = ast.parse(source)

    def tests_views(test):
        return any(
            isinstance(operand, ast.Attribute) and operand.attr == "views"
            for compare in ast.walk(test)
            if isinstance(compare, ast.Compare)
            for operand in [compare.left, *compare.comparators]
        )

    def called(nodes):
        return {
            call.func.attr
            for node in nodes
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
        }

    view_steps = {"on_idb_change", "drain_pending", "_patch_rows"}
    gated = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and tests_views(node):
            assert all(isinstance(op, ast.IsNot) for op in node.ops), (
                "_sync compares views with something other than `is not`"
            )
        if isinstance(node, ast.If) and tests_views(node.test):
            assert not node.orelse, "_sync has a branch for sessions without views"
            gated.append(called(node.body) & view_steps)
        elif isinstance(node, ast.IfExp) and tests_views(node.test):
            gated.append(called([node.body]) & view_steps)
    assert sorted(map(sorted, gated)) == [
        ["_patch_rows"], ["drain_pending"], ["on_idb_change"]
    ]

    def clears(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_result_cache"
        ]

    assert len(clears(tree)) == 1
    (rule_path,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "idb_changed"
    ]
    assert clears(rule_path) == clears(tree)
