"""Rule-body evaluation: a streaming nested-index join pipeline.

This module is the single join implementation every bottom-up
evaluator uses.  A rule body is evaluated left-to-right after a safety
reordering pass (:func:`order_body`): builtins and negated literals are
postponed until their input variables are bound, and among stored
literals the one with the most bound argument positions is probed first
(a greedy bound-is-easier SIPS, the same one the adornment machinery
assumes).

:func:`evaluate_body` is a *true generator pipeline*: solutions flow
literal-to-literal through a backtracking stack of per-stage iterators,
so at any moment at most one substitution per body literal is live —
never a materialized intermediate list.  The paper's blowup argument
(weak linkage producing huge intermediate relations, §1) therefore
cannot reappear as peak evaluator memory: the high-water mark is the
body length, which :attr:`Counters.peak_intermediate` records.
Laziness also means a consumer that stops consuming (existence checks,
``stop_condition`` aborts) short-circuits the join mid-flight instead
of paying for the full cross product first.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datalog.literals import Literal, Predicate
from ..datalog.terms import Const, Struct, Term, Var, is_ground, term_variables
from ..datalog.unify import Substitution, apply_substitution, match, unify
from .builtins import BuiltinError, BuiltinRegistry
from .context import DISABLED, EvalContext
from .counters import Counters
from .relation import Relation, RelationWindow, Row

__all__ = ["UnsafeRuleError", "order_body", "literal_solutions", "evaluate_body"]

#: Anything probe-able like a relation: a stored :class:`Relation` or a
#: generation :class:`RelationWindow` over one (semi-naive's pre-round,
#: delta and frozen-full versions).
RelationLike = Union[Relation, RelationWindow]

RelationLookup = Callable[[Predicate], Optional[RelationLike]]


class UnsafeRuleError(ValueError):
    """A body cannot be ordered so every builtin/negation gets its
    inputs bound — the rule is unsafe for bottom-up evaluation."""


def _literal_bound_vars(literal: Literal, bound: Set[str]) -> Tuple[int, int]:
    """(number of argument positions fully bound, total positions)."""
    bound_positions = 0
    for arg in literal.args:
        if all(v.name in bound for v in term_variables(arg)):
            bound_positions += 1
    return bound_positions, literal.arity


def order_body(
    body: Sequence[Literal],
    registry: BuiltinRegistry,
    initially_bound: Iterable[str] = (),
) -> List[Tuple[int, Literal]]:
    """Return a safe evaluation order as (original_index, literal) pairs.

    Greedy: at each step prefer a *ready* builtin (cheap filter), then a
    ready negated literal, then the stored literal with the most bound
    argument positions.  Raises :class:`UnsafeRuleError` when only
    non-ready builtins/negations remain.
    """
    remaining: List[Tuple[int, Literal]] = list(enumerate(body))
    bound: Set[str] = set(initially_bound)
    ordered: List[Tuple[int, Literal]] = []

    def builtin_ready(literal: Literal) -> bool:
        builtin = registry.get(literal.predicate)
        if builtin is None:
            return False
        bound_positions = frozenset(
            i
            for i, arg in enumerate(literal.args)
            if all(v.name in bound for v in term_variables(arg))
        )
        return builtin.is_finite_under(bound_positions)

    def negation_ready(literal: Literal) -> bool:
        return all(v.name in bound for v in literal.variables())

    while remaining:
        chosen: Optional[int] = None
        # 1. ready builtins (filters / single-valued generators)
        for slot, (_, literal) in enumerate(remaining):
            if not literal.negated and registry.is_builtin(literal) and builtin_ready(literal):
                chosen = slot
                break
        # 2. ready negations
        if chosen is None:
            for slot, (_, literal) in enumerate(remaining):
                if literal.negated and negation_ready(literal):
                    chosen = slot
                    break
        # 3. stored literal with the most bound positions
        if chosen is None:
            best_score = -1
            for slot, (_, literal) in enumerate(remaining):
                if literal.negated or registry.is_builtin(literal):
                    continue
                score, _ = _literal_bound_vars(literal, bound)
                if score > best_score:
                    best_score = score
                    chosen = slot
        if chosen is None:
            stuck = ", ".join(str(lit) for _, lit in remaining)
            raise UnsafeRuleError(
                f"cannot order body safely; stuck on: {stuck} "
                f"(bound: {sorted(bound)})"
            )
        index, literal = remaining.pop(chosen)
        ordered.append((index, literal))
        for var in literal.variables():
            bound.add(var.name)
    return ordered


def literal_solutions(
    literal: Literal,
    relation: RelationLike,
    subst: Substitution,
    counters: Optional[Counters] = None,
) -> Iterator[Substitution]:
    """Solutions of a positive stored literal against ``relation``.

    Uses an index on the argument positions that are ground under
    ``subst``; remaining positions are matched/unified per row.
    """
    instantiated = [apply_substitution(arg, subst) for arg in literal.args]
    key_columns: List[int] = []
    key_values: List[Term] = []
    for position, arg in enumerate(instantiated):
        if is_ground(arg):
            key_columns.append(position)
            key_values.append(arg)
    if counters is not None:
        counters.join_probes += 1
    for row in relation.lookup(key_columns, key_values):
        result: Optional[Substitution] = subst
        for position, arg in enumerate(instantiated):
            if position in key_columns:
                # Fully ground and equal by index construction — but
                # compound ground args still need equality (index key
                # covers them exactly), so nothing to do.
                continue
            result = unify(arg, row[position], result)
            if result is None:
                break
        if result is not None:
            yield result


#: idb_solver(literal, substitution) -> iterator of extended
#: substitutions; used for predicates without a stored relation.
IdbSolver = Callable[[Literal, Substitution], Iterator[Substitution]]

_EXHAUSTED = object()


def evaluate_body(
    ordered_body: Sequence[Tuple[int, Literal]],
    lookup: RelationLookup,
    registry: BuiltinRegistry,
    seed: Substitution,
    counters: Optional[Counters] = None,
    overrides: Optional[Dict[int, RelationLike]] = None,
    idb_solver: Optional[IdbSolver] = None,
    stage_counts: Optional[List[int]] = None,
    ctx: EvalContext = DISABLED,
) -> Iterator[Substitution]:
    """Evaluate an ordered body, lazily yielding complete solutions.

    Solutions stream through the literals one at a time: stage *i*
    holds a single current substitution and an iterator of its
    extensions, so peak live substitutions equal the body length
    (recorded in :attr:`Counters.peak_intermediate`) instead of the
    size of the largest intermediate relation.  Consumers may abandon
    the iterator at any point — nothing beyond the solutions actually
    pulled is computed.

    ``overrides`` maps *original* body indexes to replacement relations
    (or :class:`~repro.engine.relation.RelationWindow` views) — the
    semi-naive evaluator substitutes its delta/pre-round/frozen
    generation windows for the recursive occurrences this way.

    ``idb_solver`` handles literals with no stored relation (derived
    predicates): nested chain-split evaluation plugs the recursive
    evaluation of inner recursions in this way (paper §4.1).

    ``stage_counts`` — when the tracer is on, a list of at least
    ``len(ordered_body)`` ints; slot *k* is incremented once per
    substitution stage *k* yields.  Since stage *k*'s input stream is
    exactly stage *k-1*'s output stream (the seed for *k = 0*), these
    counts alone determine every stage's observed expansion ratio.

    ``ctx`` — the :class:`~repro.engine.context.EvalContext`; its
    budget (if any) is ticked once per substitution popped off the
    stack.  This is the checkpoint that catches a pure cross-product
    blowup: a weak linkage producing millions of intermediate
    substitutions trips the budget mid-join even if no new head tuple
    is ever derived.
    """

    depth = len(ordered_body)
    if depth == 0:
        yield seed
        return

    # Pre-resolve each stage once per body evaluation: the relation a
    # literal probes (override window or lookup result) is fixed for
    # the whole evaluation, so none of that dispatch runs per tuple.
    _NEGATED, _BUILTIN, _STORED, _IDB = 0, 1, 2, 3
    stages: List[Tuple[int, Literal, object]] = []
    for original_index, literal in ordered_body:
        if literal.negated:
            kind = _NEGATED
            payload = _resolve(literal, lookup, overrides, original_index)
        elif registry.is_builtin(literal):
            kind = _BUILTIN
            payload = None
        else:
            payload = _resolve(literal, lookup, overrides, original_index)
            kind = _IDB if payload is None else _STORED
        stages.append((kind, literal, payload))

    def stage_solutions(stage: int, subst: Substitution) -> Iterator[Substitution]:
        kind, literal, relation = stages[stage]
        if kind == _STORED:
            # Inlined literal_solutions: index probe on the positions
            # ground under ``subst``, then unification of the rest —
            # without a second generator layer per substitution.
            instantiated = [
                apply_substitution(arg, subst) for arg in literal.args
            ]
            key_columns: List[int] = []
            key_values: List[Term] = []
            free_positions: List[int] = []
            for position, arg in enumerate(instantiated):
                if is_ground(arg):
                    key_columns.append(position)
                    key_values.append(arg)
                else:
                    free_positions.append(position)
            if counters is not None:
                counters.join_probes += 1
            for row in relation.lookup(key_columns, key_values):
                result: Optional[Substitution] = subst
                for position in free_positions:
                    result = unify(instantiated[position], row[position], result)
                    if result is None:
                        break
                if result is not None:
                    if counters is not None:
                        counters.intermediate_tuples += 1
                    yield result
        elif kind == _BUILTIN:
            if counters is not None:
                counters.builtin_evals += 1
            for solution in registry.solve(literal, subst):
                if counters is not None:
                    counters.intermediate_tuples += 1
                yield solution
        elif kind == _NEGATED:
            ground_args = tuple(apply_substitution(a, subst) for a in literal.args)
            if any(not is_ground(a) for a in ground_args):
                raise UnsafeRuleError(
                    f"negated literal {literal} not ground at evaluation time"
                )
            if counters is not None:
                counters.join_probes += 1
            if relation is None or ground_args not in relation:
                if counters is not None:
                    counters.intermediate_tuples += 1
                yield subst
        else:  # _IDB: no stored relation — delegate or fail the stage
            if idb_solver is None:
                return
            for solution in idb_solver(literal, subst):
                if counters is not None:
                    counters.intermediate_tuples += 1
                yield solution
    # Backtracking stack of per-stage iterators; stack[i] enumerates the
    # extensions of the stage-(i-1) substitution through literal i.
    stack: List[Iterator[Substitution]] = [stage_solutions(0, seed)]
    if counters is not None and counters.peak_intermediate < 1:
        counters.peak_intermediate = 1
    tick = ctx.tick
    while stack:
        solution = next(stack[-1], _EXHAUSTED)
        if solution is _EXHAUSTED:
            stack.pop()
            continue
        if tick is not None:
            tick(counters)
        if stage_counts is not None:
            # Every solution popped off stack[-1] is one output of
            # stage len(stack)-1 — a single branch covers all stages.
            stage_counts[len(stack) - 1] += 1
        if len(stack) == depth:
            yield solution
        else:
            stack.append(stage_solutions(len(stack), solution))
            if counters is not None and len(stack) > counters.peak_intermediate:
                counters.peak_intermediate = len(stack)


def _resolve(
    literal: Literal,
    lookup: RelationLookup,
    overrides: Optional[Dict[int, RelationLike]],
    original_index: int,
) -> Optional[RelationLike]:
    if overrides is not None and original_index in overrides:
        return overrides[original_index]
    return lookup(literal.predicate)
