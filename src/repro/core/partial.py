"""Chain-split partial evaluation with constraint pushing (Alg. 3.3).

Buffered evaluation (Algorithm 3.2) buffers *every* intermediate value
shared between the split portions of a chain.  When the delayed portion
consists of **monotone accumulators** — the running fare ``sum`` and the
route-list ``cons`` of the ``travel`` example — partial evaluation does
better: it folds the delayed portion *during the descent*, keeping only
the accumulated value per derivation.  That enables the paper's
constraint pushing: a query bound like ``F =< 600`` on a monotonically
nondecreasing sum prunes every partial derivation whose accumulated
fare already exceeds the bound ("the continued search following this
intermediate tuple will be hopeless"), which is also what makes the
evaluation terminate on cyclic flight networks.  The descent, its depth
guard and the exit rows are the ones counting and Algorithm 3.2 use
(:class:`~repro.core.chain.ChainEvaluator`); a frontier node here is a
frame of folded accumulators, and a pushed constraint prunes a solution
before it spawns one.

Scope: the delayed portion must reduce entirely to accumulators (after
the split).  Delayed literals that genuinely need the recursive call's
output (e.g. a connection-time comparison against the sub-trip's
departure) are not foldable; for those, use
:class:`~repro.core.buffered.BufferedChainEvaluator` — the planner
makes that choice automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import apply_substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.joins import order_body
from ..engine.relation import Relation
from ..analysis.chains import CompiledRecursion
from ..analysis.finiteness import PathSplit, split_path
from .chain import ChainEvaluator
from .pushing import (
    Accumulator,
    constraints_hold,
    fold_accumulators,
    push_constraints,
)

__all__ = ["PartialChainEvaluator", "PartialEvaluationError"]


class PartialEvaluationError(ValueError):
    """The recursion/query does not fit partial chain-split
    evaluation."""


# Head-position kinds (see module docstring of the planner).
_BOUND = "bound"  # ground in the query: answers carry the query value
_PASS = "passthrough"  # head var reappears as the same rec arg: exit value
_ACC = "accumulator"  # folded during descent
_LOCAL = "local"  # bound by the evaluable portion at the root level


@dataclass
class _Frame:
    """One partial derivation: the current call's bound arguments, the
    folded accumulator values, and the root-level local bindings."""

    call: Dict[str, Term]
    acc: Tuple[object, ...]
    root_locals: Tuple[Tuple[int, Term], ...]
    depth: int

    def key(self) -> Tuple[object, ...]:
        call_key = tuple(sorted(self.call.items(), key=lambda kv: kv[0]))
        acc_key = tuple(
            tuple(v) if isinstance(v, list) else v for v in self.acc
        )
        return (call_key, acc_key, self.root_locals)


class PartialChainEvaluator(ChainEvaluator):
    """Algorithm 3.3 over a compiled single-chain recursion."""

    error = PartialEvaluationError
    method = "partial evaluation"
    span = "partial_chain"
    prunes = True
    depth_hint = (
        "; on cyclic data, push a termination constraint (Algorithm 3.3, "
        "step 4)"
    )

    def __init__(
        self,
        database: Database,
        compiled: CompiledRecursion,
        registry: Optional[BuiltinRegistry] = None,
        constraints: Sequence[Literal] = (),
        split: Optional[PathSplit] = None,
        max_depth: int = 10_000,
        ctx: EvalContext = DISABLED,
    ):
        super().__init__(database, compiled, registry, max_depth, ctx)
        self.constraints = list(constraints)
        self._injected_split = split

    # ------------------------------------------------------------------
    def _run(self, query: Literal, counters: Counters) -> Relation:
        ctx = self.ctx
        setup_span = ctx.begin("stage", "descent_setup")
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args

        bound_positions = {
            i for i, arg in enumerate(query.args) if is_ground(arg)
        }
        entry_bound = {head_args[p].name for p in bound_positions}

        split = self._injected_split
        if split is None:
            split = split_path(
                self.chains[0], entry_bound, self.compiled.recursive_literal,
                self.registry, self.database,
            )
        accumulators, unfoldable = fold_accumulators(self.compiled, split)
        if unfoldable:
            residual = ", ".join(str(l) for l in unfoldable)
            raise PartialEvaluationError(
                f"delayed portion has non-accumulator literals ({residual}); "
                "use buffered evaluation instead"
            )

        kinds = self._classify_positions(bound_positions, accumulators)
        local_positions = [p for p, kind in enumerate(kinds) if kind == _LOCAL]
        acc_by_position = {a.head_position: i for i, a in enumerate(accumulators)}
        pushed, residual_constraints = push_constraints(
            self.constraints, query, accumulators
        )
        pushed_at = [(accumulators.index(c.accumulator), c) for c in pushed]
        evaluable_order = order_body(
            split.evaluable, self.registry, initially_bound=entry_bound
        )
        answers = Relation(query.name, query.arity)

        def emit(frame: _Frame, exit_row: Tuple[Term, ...]) -> None:
            """Admit the answer a frame's exit row completes."""
            root_locals = dict(frame.root_locals)
            row: List[Term] = []
            for p, kind in enumerate(kinds):
                if kind == _BOUND:
                    row.append(query.args[p])
                elif kind == _ACC:
                    i = acc_by_position[p]
                    row.append(accumulators[i].finalize(frame.acc[i], exit_row[p]))
                elif kind == _LOCAL and frame.depth:
                    row.append(root_locals[p])
                else:  # pass-through, or a local of a root-level exit
                    row.append(exit_row[p])
            binding = unify_sequences(query.args, row)
            if binding is None:
                return
            if not constraints_hold(self.registry, residual_constraints, binding):
                counters.pruned_tuples += 1
            elif answers.add(tuple(row)):
                counters.derived_tuples += 1
                ctx.check_tuple(counters)

        # ---- descent with folding ---------------------------------------
        start = _Frame(
            call={head_args[p].name: query.args[p] for p in bound_positions},
            acc=tuple(a.identity() for a in accumulators),
            root_locals=(),
            depth=0,
        )
        seen: Set[Tuple[object, ...]] = {start.key()}

        def expand(frontier, solve):
            spawned: List[_Frame] = []
            for frame in frontier:
                # Each exit row is emitted as soon as it matches.
                for exit_row in self.exit_rows(frame.call, counters):
                    emit(frame, exit_row)
                for solution in solve(dict(frame.call)):
                    new_acc: List[object] = []
                    for accumulator, value in zip(accumulators, frame.acc):
                        increment = apply_substitution(
                            Var(accumulator.increment_var), solution
                        )
                        if not is_ground(increment):
                            raise PartialEvaluationError(
                                f"accumulator increment {accumulator.increment_var} "
                                "not bound by the evaluable portion"
                            )
                        new_acc.append(accumulator.step(value, increment))
                    if not all(
                        c.admits(c.accumulator.measure(new_acc[i]))
                        for i, c in pushed_at
                    ):
                        counters.pruned_tuples += 1
                        continue
                    child_call: Dict[str, Term] = {}
                    for p, rec_arg in enumerate(rec_args):
                        value = apply_substitution(rec_arg, solution)
                        if is_ground(value):
                            child_call[head_args[p].name] = value
                    if frame.depth == 0:
                        locals_captured = tuple(
                            (p, apply_substitution(head_args[p], solution))
                            for p in local_positions
                        )
                        if not all(is_ground(v) for _, v in locals_captured):
                            raise PartialEvaluationError(
                                "root-level local head value not bound by "
                                "the evaluable portion"
                            )
                    else:
                        locals_captured = frame.root_locals
                    child = _Frame(
                        child_call, tuple(new_acc), locals_captured, frame.depth + 1
                    )
                    child_key = child.key()
                    if child_key not in seen:
                        seen.add(child_key)
                        spawned.append(child)
            return spawned

        ctx.end(setup_span)
        self.descend(
            "descent", evaluable_order, sorted(entry_bound), [start], expand,
            counters,
        )
        return answers

    # ------------------------------------------------------------------
    def _classify_positions(
        self,
        bound_positions: Set[int],
        accumulators: Sequence[Accumulator],
    ) -> List[str]:
        """Each head position's kind, in position order."""
        rec_args = self.compiled.rec_args
        acc_positions = {a.head_position for a in accumulators}
        kinds: List[str] = []
        for p, head_arg in enumerate(self.compiled.head_args):
            if p in bound_positions:
                kinds.append(_BOUND)
            elif p in acc_positions:
                kinds.append(_ACC)
            elif (
                isinstance(rec_args[p], Var)
                and rec_args[p].name == head_arg.name
            ):
                kinds.append(_PASS)
            else:
                kinds.append(_LOCAL)
        return kinds
