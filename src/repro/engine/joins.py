"""Rule-body evaluation: a streaming nested-index join pipeline.

This module is the single join implementation every bottom-up
evaluator uses.  A rule body is evaluated left-to-right after a safety
reordering pass (:func:`order_body`): builtins and negated literals are
postponed until their input variables are bound, and among stored
literals the one with the most bound argument positions is probed first
(a greedy bound-is-easier SIPS, the same one the adornment machinery
assumes).

Ordering and everything else that depends only on the body and on which
variables the seed binds happens once, in :func:`compile_body`: each
literal becomes a :class:`Stage` holding its index columns, constant
key values, the variable slot of each free position and its
repeated-variable checks, so a probe of a function-free stored literal
builds its key and binds its row by position — no ``unify``, no
``apply_substitution``, no ``is_ground`` on rows of constants.  Callers
compile a body once per rule and binding pattern (a plan keeps it) and
evaluate it many times.

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

__all__ = [
    "CompiledBody",
    "UnsafeRuleError",
    "compile_body",
    "compile_order",
    "evaluate_body",
    "literal_solutions",
    "order_body",
]

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

# Stage kinds: fixed at compile time, except that a positive literal
# whose predicate has no relation at evaluation time is solved by the
# ``idb_solver`` (an _IDB stage) instead of probed.
_NEGATED, _BUILTIN, _STORED, _IDB = 0, 1, 2, 3


def ground_value(value: object) -> bool:
    """Is a substitution value a ground term as it stands?  A ``Var``,
    a ``Struct`` holding one, or a missing binding (``None``) is not;
    whether such a value becomes ground through the substitution's
    other bindings is the unifier's question."""
    return value.__class__ is Const or (
        value.__class__ is Struct and is_ground(value)
    )


class Stage:
    """One body literal compiled for the join.

    A function-free literal (only variables and constants) is compiled
    against the variables bound before it: ``columns`` are its index
    columns (constant and bound positions, in position order), ``key``
    the key template with the constants in place, ``key_vars`` the
    ``(key slot, variable)`` pairs filled per probe, ``binds`` the
    ``(position, variable)`` pairs a matching row binds, ``repeats``
    the ``(position, earlier position)`` pairs a repeated free variable
    must agree on, and ``free`` the free variables.  A probe whose
    substitution does not fit that shape — a key variable bound to a
    ``Var`` or a non-ground ``Struct``, or a free variable that is
    bound after all — goes through the unifier, as does every probe of
    a literal with a compound argument (``columns`` is ``None``).
    """

    __slots__ = (
        "index", "literal", "kind", "solve",
        "columns", "key", "key_vars", "binds", "repeats", "free",
    )

    def __init__(
        self, index: int, literal: Literal, registry: BuiltinRegistry,
        bound: Set[str],
    ):
        self.index = index
        self.literal = literal
        self.solve = None
        self.columns: Optional[Tuple[int, ...]] = None
        builtin = None if literal.negated else registry.get(literal.predicate)
        if builtin is not None:
            self.kind = _BUILTIN
            self.solve = builtin.solve
            return
        self.kind = _NEGATED if literal.negated else _STORED
        if not all(isinstance(a, (Var, Const)) for a in literal.args):
            return
        columns: List[int] = []
        key: List[Optional[Term]] = []
        key_vars: List[Tuple[int, str]] = []
        binds: List[Tuple[int, str]] = []
        repeats: List[Tuple[int, int]] = []
        first: Dict[str, int] = {}
        for position, arg in enumerate(literal.args):
            if isinstance(arg, Const):
                columns.append(position)
                key.append(arg)
            elif arg.name in bound or literal.negated:
                # A negated literal is a membership test: every
                # argument is part of the probed row.
                columns.append(position)
                key_vars.append((len(key), arg.name))
                key.append(None)
            elif arg.name in first:
                repeats.append((position, first[arg.name]))
            else:
                first[arg.name] = position
                binds.append((position, arg.name))
        self.columns = tuple(columns)
        self.key = key
        self.key_vars = tuple(key_vars)
        self.binds = tuple(binds)
        self.repeats = tuple(repeats)
        self.free = tuple(first)

    def bind_key(self, subst: Substitution) -> Optional[List[Term]]:
        """The index key under ``subst``, or ``None`` when the probe
        does not fit the compiled shape and needs the unifier."""
        if self.columns is None:
            return None
        key = self.key.copy()
        for slot, name in self.key_vars:
            value = subst.get(name)
            if not ground_value(value):
                return None
            key[slot] = value
        for name in self.free:
            if name in subst:
                return None
        return key


class CompiledBody:
    """A body ordered once and compiled into join stages.

    Iterates as the ``(original_index, literal)`` pairs of its order,
    so it stands wherever an :func:`order_body` result is read (the
    tracer's stage profile, for one)."""

    __slots__ = ("order", "stages")

    def __init__(self, order: Sequence[Tuple[int, Literal]], stages: Sequence[Stage]):
        self.order = list(order)
        self.stages = list(stages)

    def __iter__(self) -> Iterator[Tuple[int, Literal]]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, position: int) -> Tuple[int, Literal]:
        return self.order[position]


def compile_order(
    ordered_body: Iterable[Tuple[int, Literal]],
    registry: BuiltinRegistry,
    initially_bound: Iterable[str] = (),
) -> CompiledBody:
    """Compile an already ordered body (``(original_index, literal)``
    pairs) whose seed binds ``initially_bound``."""
    bound: Set[str] = set(initially_bound)
    order = list(ordered_body)
    stages = []
    for index, literal in order:
        stages.append(Stage(index, literal, registry, bound))
        bound.update(v.name for v in literal.variables())
    return CompiledBody(order, stages)


def compile_body(
    body: Sequence[Literal],
    registry: BuiltinRegistry,
    initially_bound: Iterable[str] = (),
) -> CompiledBody:
    """Order ``body`` (:func:`order_body`) and compile its join stages
    for seeds that bind ``initially_bound``.  Done once per rule and
    binding pattern; every evaluation then only resolves relations."""
    bound = set(initially_bound)
    return compile_order(order_body(body, registry, bound), registry, bound)


def evaluate_body(
    body: CompiledBody,
    lookup: RelationLookup,
    registry: BuiltinRegistry,
    seed: Substitution,
    counters: Optional[Counters] = None,
    overrides: Optional[Dict[int, RelationLike]] = None,
    idb_solver: Optional[IdbSolver] = None,
    stage_counts: Optional[List[int]] = None,
    ctx: EvalContext = DISABLED,
) -> Iterator[Substitution]:
    """Evaluate a compiled body, lazily yielding complete solutions.

    ``body`` is a :class:`CompiledBody` (:func:`compile_body`).

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
    ``len(body)`` ints; slot *k* is incremented once per
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
    depth = len(body.stages)
    if depth == 0:
        yield seed
        return

    # Resolve each stage's relation once per body evaluation: the
    # relation a literal probes (override window or lookup result) is
    # fixed for the whole evaluation; everything else about the stage
    # was fixed at compile time.
    stages: List[Tuple[int, Stage, Optional[RelationLike]]] = []
    for stage in body.stages:
        kind = stage.kind
        relation = None
        if kind != _BUILTIN:
            relation = _resolve(stage.literal, lookup, overrides, stage.index)
            if relation is None and kind == _STORED:
                kind = _IDB
        stages.append((kind, stage, relation))

    def stage_solutions(position: int, subst: Substitution) -> Iterator[Substitution]:
        kind, stage, relation = stages[position]
        if kind == _STORED:
            key = stage.bind_key(subst)
            if key is None:
                for result in literal_solutions(
                    stage.literal, relation, subst, counters
                ):
                    if counters is not None:
                        counters.intermediate_tuples += 1
                    yield result
                return
            if counters is not None:
                counters.join_probes += 1
            binds, repeats = stage.binds, stage.repeats
            for row in relation.lookup(stage.columns, key):
                if repeats and any(row[p] != row[q] for p, q in repeats):
                    continue
                if binds:
                    result = dict(subst)
                    for column, name in binds:
                        result[name] = row[column]
                else:
                    result = subst
                if counters is not None:
                    counters.intermediate_tuples += 1
                yield result
        elif kind == _BUILTIN:
            if counters is not None:
                counters.builtin_evals += 1
            for solution in stage.solve(stage.literal.args, subst):
                if counters is not None:
                    counters.intermediate_tuples += 1
                yield solution
        elif kind == _NEGATED:
            key = stage.bind_key(subst)
            if key is None:
                key = [apply_substitution(a, subst) for a in stage.literal.args]
                if not all(is_ground(a) for a in key):
                    raise UnsafeRuleError(
                        f"negated literal {stage.literal} not ground at "
                        "evaluation time"
                    )
            if counters is not None:
                counters.join_probes += 1
            if relation is None or tuple(key) not in relation:
                if counters is not None:
                    counters.intermediate_tuples += 1
                yield subst
        else:  # _IDB: no stored relation — delegate or fail the stage
            if idb_solver is None:
                return
            for solution in idb_solver(stage.literal, subst):
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
