"""Testing helpers for downstream users (and this repo's own suite).

The library's strongest correctness property is that its independent
strategies agree; these helpers make that assertable in one line in a
user's own test suite.  Each ``assert_*`` helper is one lane of that
differential oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .analysis.chains import classify_recursion
from .datalog.literals import Literal, Predicate
from .datalog.parser import parse_query
from .engine.builtins import BuiltinError, BuiltinRegistry
from .engine.counters import Counters
from .engine.database import Database
from .engine.joins import UnsafeRuleError, compile_body, evaluate_body
from .engine.relation import Relation
from .engine.seminaive import SemiNaiveEvaluator, head_row
from .engine.topdown import TopDownEvaluator
from .datalog.unify import Substitution, apply_substitution, unify_sequences
from .datalog.terms import Var, is_ground

__all__ = [
    "answers_via_seminaive",
    "answers_via_topdown",
    "assert_cache_coherent",
    "assert_join_matches",
    "assert_slices_agree",
    "assert_strategies_agree",
    "assert_views_match_fixpoint",
]


def answers_via_seminaive(database: Database, query_source) -> frozenset:
    """Oracle 1: full bottom-up evaluation, filtered by the query."""
    query = _query(query_source)
    result = SemiNaiveEvaluator(database).evaluate()
    relation = result.relations.get(query.predicate)
    rows = relation.rows() if relation is not None else set()
    stored = database.get(query.predicate)
    if stored is not None:
        rows = rows | stored.rows()
    return frozenset(
        row for row in rows if unify_sequences(query.args, row) is not None
    )


def answers_via_topdown(database: Database, query_source) -> frozenset:
    """Oracle 2: SLD resolution with deferred goal selection."""
    query = _query(query_source)
    evaluator = TopDownEvaluator(database)
    rows = set()
    for solution in evaluator.solve([query]):
        row = tuple(apply_substitution(arg, solution) for arg in query.args)
        if all(is_ground(value) for value in row):
            rows.add(row)
    return frozenset(rows)


def assert_strategies_agree(
    database: Database,
    query_source,
    extra: Sequence[frozenset] = (),
    oracle: str = "seminaive",
) -> frozenset:
    """Assert the planner's answer equals the chosen oracle's (and any
    ``extra`` answer sets); returns the agreed answers."""
    from .core.planner import Planner

    query = _query(query_source)
    planner_rows = frozenset(
        tuple(row) for row in Planner(database).answer(query)
    )
    if oracle == "seminaive":
        oracle_rows = answers_via_seminaive(database, query)
    elif oracle == "topdown":
        oracle_rows = answers_via_topdown(database, query)
    else:
        raise ValueError(f"unknown oracle {oracle!r}")
    assert planner_rows == oracle_rows, (
        f"planner != {oracle} oracle for {query}: "
        f"{planner_rows ^ oracle_rows}"
    )
    for index, answer_set in enumerate(extra):
        assert frozenset(answer_set) == oracle_rows, (
            f"extra answer set #{index} disagrees for {query}"
        )
    return oracle_rows


def assert_slices_agree(database: Database) -> Dict[Predicate, frozenset]:
    """The ``sliced == unsliced`` lane: for every IDB predicate, the
    planner's ``semi_naive`` plan — which evaluates only the rules of
    the predicate's closure — answers exactly the whole-program
    fixpoint restricted to that predicate.  Returns the agreed answers.
    """
    from .core.planner import Planner, QueryPlan, Strategy

    planner = Planner(database)
    whole = SemiNaiveEvaluator(database).evaluate()
    agreed: Dict[Predicate, frozenset] = {}
    for predicate in sorted(database.program.head_predicates(), key=str):
        query = Literal(
            predicate.name, tuple(Var(f"V{i}") for i in range(predicate.arity))
        )
        plan = QueryPlan(
            query, [], Strategy.SEMI_NAIVE,
            classify_recursion(planner.graph, predicate),
        )
        sliced = frozenset(planner.execute(plan)[0].rows())
        unsliced = frozenset(whole.relation(predicate.name, predicate.arity).rows())
        assert sliced == unsliced, (
            f"sliced != unsliced for {predicate}: {sliced ^ unsliced}"
        )
        agreed[predicate] = sliced
    return agreed


def assert_views_match_fixpoint(manager, database: Database) -> None:
    """The ``IVM == fresh fixpoint`` lane: every relation a
    :class:`~repro.ivm.ViewManager` maintains equals a from-scratch
    semi-naive evaluation of ``database``.  A counting view's support
    counts must also equal a recount — one per stored fact plus one per
    full-body derivation over the fresh relations — so a tally that is
    off shows here, not only at the retraction it would get wrong."""
    fresh = SemiNaiveEvaluator(database).evaluate()

    def lookup(predicate: Predicate):
        relation = fresh.relations.get(predicate)
        return relation if relation is not None else database.get(predicate)

    for predicate, fix in manager.fixpoints.items():
        assert fix.relations, f"no relations materialized for {predicate}"
        for idb_pred, relation in fix.relations.items():
            expected = fresh.relation(idb_pred.name, idb_pred.arity)
            assert set(relation) == set(expected), (
                f"{idb_pred} diverged after maintenance: "
                f"{set(relation) ^ set(expected)}"
            )
        if fix.counts is None:
            continue
        recount: Dict[Predicate, Dict[Tuple, int]] = {p: {} for p in fix.counts}
        for idb_pred, tally in recount.items():
            for row in database.get(idb_pred) or ():
                tally[row] = tally.get(row, 0) + 1
        for rule in fix.rules:
            tally = recount[rule.head.predicate]
            for subst in evaluate_body(
                compile_body(rule.body, fix.registry), lookup, fix.registry, {}
            ):
                row = head_row(rule, subst)
                tally[row] = tally.get(row, 0) + 1
        assert fix.counts == recount, f"support counts of {predicate} drifted"


def assert_cache_coherent(
    session, queries: Iterable[str]
) -> Dict[str, object]:
    """The ``cached == fresh`` lane: each query answered through
    ``session`` — from its result cache wherever an entry survived the
    writes since it was cached, kept or repaired — equals the answer of
    a fresh :class:`~repro.service.QuerySession` over a copy of the
    session's database.  Returns each query's
    :class:`~repro.service.session.QueryResult` from ``session``, so a
    caller can also check which answers were served from the cache."""
    from .service.session import QuerySession

    fresh = QuerySession(session.database.copy())
    results: Dict[str, object] = {}
    for query in queries:
        warm = session.execute(query)
        cold = frozenset(fresh.execute(query).rows)
        assert frozenset(warm.rows) == cold, (
            f"cached != fresh for {query} (result_cached="
            f"{warm.result_cached}): {frozenset(warm.rows) ^ cold}"
        )
        results[query] = warm
    return results


#: The join work a compiled body and its reference must agree on.
JOIN_COUNTERS = (
    "join_probes", "intermediate_tuples", "builtin_evals", "peak_intermediate",
)

#: ``reference(order, lookup, registry, seed)`` — an independent join
#: over an ordered body, as ``(solutions, counters, stage_counts)``.
ReferenceJoin = Callable[..., Tuple[List[Substitution], Counters, List[int]]]


def assert_join_matches(
    body: Sequence[Literal],
    lookup,
    registry: BuiltinRegistry,
    seed: Substitution,
    reference: ReferenceJoin,
    initially_bound: Iterable[str] = (),
) -> List[Substitution]:
    """The ``compiled == reference`` join lane: ``body`` compiled for
    ``initially_bound`` (:func:`~repro.engine.joins.compile_body`) and
    evaluated from ``seed`` — which may bind more, fewer or other
    variables, to any terms — yields the solutions ``reference`` finds
    over the same order, with the same :data:`JOIN_COUNTERS` and
    per-stage output counts.  ``lookup`` maps a predicate to what its
    literals read: a relation, or a generation window of one.
    Solutions are compared as a multiset of the seed's and the body's
    variables, each resolved through the solution.  When either side
    rejects the body at run time (a non-ground negation or builtin
    argument), the other must raise the same exception type.  Returns
    the compiled side's solutions."""
    compiled = compile_body(body, registry, initially_bound)
    counters = Counters()
    stage_counts = [0] * len(compiled)
    outcome = {}
    for side, run in (
        ("compiled", lambda: list(evaluate_body(
            compiled, lookup, registry, seed, counters,
            stage_counts=stage_counts,
        ))),
        ("reference", lambda: reference(compiled.order, lookup, registry, seed)),
    ):
        try:
            outcome[side] = run()
        except (UnsafeRuleError, BuiltinError) as exc:
            outcome[side] = type(exc)
    got, expected = outcome["compiled"], outcome["reference"]
    if isinstance(got, type) or isinstance(expected, type):
        assert got == expected, f"compiled {got!r} != reference {expected!r}"
        return []
    solutions, reference_counters, reference_counts = expected
    names = sorted(
        set(seed) | {v.name for literal in body for v in literal.variables()}
    )

    def resolved(substitutions):
        return Counter(
            tuple(str(apply_substitution(Var(name), s)) for name in names)
            for s in substitutions
        )

    assert resolved(got) == resolved(solutions), (
        f"solutions differ: {resolved(got) - resolved(solutions)} vs "
        f"{resolved(solutions) - resolved(got)}"
    )
    for name in JOIN_COUNTERS:
        assert getattr(counters, name) == getattr(reference_counters, name), (
            f"{name}: compiled {getattr(counters, name)} != reference "
            f"{getattr(reference_counters, name)}"
        )
    assert stage_counts == reference_counts, (stage_counts, reference_counts)
    return got


def _query(query_source) -> Literal:
    if isinstance(query_source, Literal):
        return query_source
    goals = parse_query(query_source)
    return goals[0]
