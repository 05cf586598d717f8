"""Constraint pushing for chain-split partial evaluation (ref [6]).

Algorithm 3.3 integrates constraint-based query evaluation: when a
chain accumulates a *monotone* quantity (the running fare ``sum`` in
``travel``, the length of the route list), a query constraint such as
``F =< 600`` can be pushed into the chain — any partial derivation
whose accumulated value already violates the bound is hopeless and is
pruned, which both saves work and (on cyclic data) makes the
evaluation terminate at all.

This module provides:

* :class:`Accumulator` — a detected accumulation pattern in the delayed
  portion of a split chain: ``b(Increment, RecResult, HeadResult)``
  where ``b`` is associative with identity (``sum``: 0; ``cons``: []),
  the increment comes from the buffered down-phase values, the second
  argument from the recursive call and the output feeds a head result
  position.
* :class:`PushedConstraint` — an upper-bound comparison on an
  accumulated value, with a *sound* dynamic monotonicity check: if a
  negative increment ever appears, pruning is disabled for the
  affected derivation (monotonicity would be violated).
* :func:`detect_accumulators` / :func:`push_constraints` — the analysis
  entry points the partial evaluator calls; :func:`fold_accumulators`
  (Alg. 3.3's applicability test) and :func:`constraints_hold` (the
  residual-constraint filter), which the planner calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.terms import NIL, Const, Term, Var, is_ground, make_list
from ..datalog.unify import Substitution
from ..engine.builtins import BuiltinRegistry
from ..analysis.chains import CompiledRecursion
from ..analysis.finiteness import PathSplit

__all__ = [
    "Accumulator",
    "PushedConstraint",
    "ConstraintPushingError",
    "constraints_hold",
    "detect_accumulators",
    "fold_accumulators",
    "push_constraints",
]


class ConstraintPushingError(ValueError):
    """A constraint cannot be pushed soundly."""


@dataclass
class Accumulator:
    """An accumulation pattern ``b(Increment, RecResult, HeadResult)``.

    ``kind`` is ``"sum"`` (numeric addition; identity 0, finalization
    ``acc + exit_value``) or ``"cons"`` (list prepend; identity ``[]``,
    finalization: fold the collected elements onto the exit list).
    ``head_position`` is the head argument position the accumulated
    value answers.
    """

    literal: Literal
    kind: str
    increment_var: str
    rec_var: str
    out_var: str
    head_position: int

    def identity(self):
        return 0 if self.kind == "sum" else []

    def step(self, acc, increment: Term):
        """Fold one down-phase increment into the accumulator."""
        if self.kind == "sum":
            if not isinstance(increment, Const) or not isinstance(
                increment.value, (int, float)
            ):
                raise ConstraintPushingError(
                    f"non-numeric increment {increment} for sum accumulator"
                )
            return acc + increment.value
        return [*acc, increment]

    def finalize(self, acc, exit_value: Term) -> Term:
        """Combine the accumulated prefix with the exit rule's value."""
        if self.kind == "sum":
            if not isinstance(exit_value, Const) or not isinstance(
                exit_value.value, (int, float)
            ):
                raise ConstraintPushingError(
                    f"non-numeric exit value {exit_value} for sum accumulator"
                )
            total = acc + exit_value.value
            return Const(total)
        return make_list(acc, tail=exit_value)

    def measure(self, acc) -> float:
        """Scalar measure of the accumulated value, for constraint
        checks: the value itself for sums, the length for lists."""
        if self.kind == "sum":
            return float(acc)
        return float(len(acc))


@dataclass
class PushedConstraint:
    """An upper bound on a monotone accumulated quantity.

    ``op`` is ``"<"`` or ``"=<"``.  ``on_length`` marks constraints on
    the list-length measure (pushed from ``length(L, N), N =< k``
    style goals) rather than on a numeric sum.
    """

    accumulator: Accumulator
    op: str
    bound: float

    def admits(self, measure: float) -> bool:
        if self.op == "<":
            return measure < self.bound
        return measure <= self.bound

    def __str__(self) -> str:
        target = (
            f"length(arg{self.accumulator.head_position})"
            if self.accumulator.kind == "cons"
            else f"arg{self.accumulator.head_position}"
        )
        return f"{target} {self.op} {self.bound:g}"


def detect_accumulators(
    compiled: CompiledRecursion, split: PathSplit
) -> List[Accumulator]:
    """Find accumulation patterns in the delayed portion of a split.

    A delayed literal ``b(I, R, O)`` is an accumulator when ``b`` is
    ``sum``/``plus`` or ``cons``, ``O`` is the head variable at some
    position *p*, and ``R`` is the recursive literal's variable at the
    same position *p* — the paper's shape for monotone chain
    quantities (``S' = S + S_i``, ``L' = append(L_i, L)``).
    """
    head_args = compiled.head_args
    rec_args = compiled.rec_args
    accumulators: List[Accumulator] = []
    for literal in split.delayed:
        if literal.arity != 3 or literal.negated:
            continue
        kind = None
        if literal.name in {"sum", "plus"}:
            kind = "sum"
        elif literal.name == "cons":
            kind = "cons"
        if kind is None:
            continue
        increment, rec_side, out = literal.args
        if not (
            isinstance(increment, Var)
            and isinstance(rec_side, Var)
            and isinstance(out, Var)
        ):
            continue
        for position, head_arg in enumerate(head_args):
            if not isinstance(head_arg, Var) or head_arg.name != out.name:
                continue
            rec_arg = rec_args[position]
            if isinstance(rec_arg, Var) and rec_arg.name == rec_side.name:
                accumulators.append(
                    Accumulator(
                        literal=literal,
                        kind=kind,
                        increment_var=increment.name,
                        rec_var=rec_side.name,
                        out_var=out.name,
                        head_position=position,
                    )
                )
    return accumulators


def fold_accumulators(
    compiled: CompiledRecursion, split: PathSplit
) -> Tuple[List[Accumulator], List[Literal]]:
    """Algorithm 3.3's applicability test: the accumulators of
    ``split``'s delayed portion, and the delayed literals that are not
    one.  Partial evaluation folds the whole delayed portion during the
    descent, so it applies only when the second list is empty."""
    accumulators = detect_accumulators(compiled, split)
    folded = {id(acc.literal) for acc in accumulators}
    return accumulators, [lit for lit in split.delayed if id(lit) not in folded]


def constraints_hold(
    registry: BuiltinRegistry,
    constraints: Sequence[Literal],
    binding: Substitution,
) -> bool:
    """True when every comparison goal in ``constraints`` has a
    solution under ``binding`` (an answer row unified with the query)."""
    return all(
        any(True for _ in registry.solve(constraint, binding))
        for constraint in constraints
    )


def push_constraints(
    constraint_literals: Sequence[Literal],
    query: Literal,
    accumulators: Sequence[Accumulator],
) -> Tuple[List[PushedConstraint], List[Literal]]:
    """Split query constraints into pushable and residual ones.

    ``constraint_literals`` are extra comparison goals attached to the
    query (e.g. the ``F =< 600`` of the travel example).  A comparison
    ``V op c`` (or ``c op V``) is pushable when ``V`` is the query
    variable at an accumulator's head position and ``op`` bounds the
    monotone measure from above.  Everything else is returned as a
    residual filter to apply to final answers.
    """
    pushed: List[PushedConstraint] = []
    residual: List[Literal] = []
    by_query_var: Dict[str, Accumulator] = {}
    for accumulator in accumulators:
        query_arg = query.args[accumulator.head_position]
        if isinstance(query_arg, Var):
            by_query_var[query_arg.name] = accumulator

    for literal in constraint_literals:
        normalized = _normalize_comparison(literal)
        if normalized is not None:
            var_name, op, bound = normalized
            accumulator = by_query_var.get(var_name)
            if accumulator is not None and accumulator.kind == "sum":
                pushed.append(PushedConstraint(accumulator, op, bound))
                # Keep it as residual too: the pushed version prunes
                # *partial* sums; the final sum still must be checked
                # (exit contributions can overshoot).
                residual.append(literal)
                continue
        residual.append(literal)
    return pushed, residual


def _normalize_comparison(literal: Literal) -> Optional[Tuple[str, str, float]]:
    """``V =< c`` / ``V < c`` / ``c >= V`` / ``c > V`` -> (V, op, c)."""
    if literal.negated or literal.arity != 2:
        return None
    left, right = literal.args
    if literal.name in {"=<", "<"} and isinstance(left, Var) and isinstance(right, Const):
        if isinstance(right.value, (int, float)):
            return left.name, literal.name, float(right.value)
    if literal.name in {">=", ">"} and isinstance(right, Var) and isinstance(left, Const):
        if isinstance(left.value, (int, float)):
            flipped = "=<" if literal.name == ">=" else "<"
            return right.name, flipped, float(left.value)
    return None
