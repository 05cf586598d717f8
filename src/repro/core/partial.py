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
evaluation terminate on cyclic flight networks.

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

from ..datalog.literals import Literal, Predicate
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import (
    Substitution,
    apply_substitution,
    unify_sequences,
)
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.joins import evaluate_body, order_body
from ..engine.relation import Relation
from ..analysis.chains import CompiledRecursion
from ..analysis.finiteness import PathSplit, split_path
from .counting import exit_rows
from .pushing import (
    Accumulator,
    PushedConstraint,
    detect_accumulators,
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


class PartialChainEvaluator:
    """Algorithm 3.3 over a compiled single-chain recursion."""

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
        self.database = database
        self.compiled = compiled
        self.registry = registry if registry is not None else default_registry()
        self.constraints = list(constraints)
        self.max_depth = max_depth
        # Tracer: one descent event per frontier level; budget: checked
        # per descent level, per admitted answer, and per streamed
        # substitution.
        self.ctx = ctx
        self._injected_split = split
        chains = compiled.generating_chains()
        if len(chains) != 1:
            raise PartialEvaluationError(
                f"partial evaluation requires a single-chain recursion; "
                f"{compiled.predicate} has {len(chains)} generating chains"
            )
        self.chain = chains[0]
        if not all(isinstance(a, Var) for a in compiled.head_args):
            raise PartialEvaluationError(
                "partial evaluation requires a rectified recursion"
            )

    # ------------------------------------------------------------------
    def evaluate(self, query: Literal) -> Tuple[Relation, Counters]:
        if query.predicate != self.compiled.predicate:
            raise PartialEvaluationError(
                f"query {query} is not on {self.compiled.predicate}"
            )
        counters = Counters()
        run_span = self.ctx.begin("evaluate", "partial_chain")
        try:
            return self._evaluate(query, counters)
        finally:
            self.ctx.end(
                run_span,
                derived=counters.derived_tuples,
                pruned=counters.pruned_tuples,
            )

    def _evaluate(
        self, query: Literal, counters: Counters
    ) -> Tuple[Relation, Counters]:
        ctx = self.ctx
        setup_span = ctx.begin("stage", "descent_setup")
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args
        rec_literal = self.compiled.recursive_literal
        lookup = self.database.get

        bound_positions = {
            i for i, arg in enumerate(query.args) if is_ground(arg)
        }
        entry_bound = {head_args[p].name for p in bound_positions}

        split = self._injected_split
        if split is None:
            split = split_path(
                self.chain, entry_bound, rec_literal, self.registry, self.database
            )
        accumulators = detect_accumulators(self.compiled, split)
        non_acc = [
            lit
            for lit in split.delayed
            if all(lit is not acc.literal for acc in accumulators)
        ]
        if non_acc:
            residual = ", ".join(str(l) for l in non_acc)
            raise PartialEvaluationError(
                f"delayed portion has non-accumulator literals ({residual}); "
                "use buffered evaluation instead"
            )

        kinds = self._classify_positions(bound_positions, accumulators)
        acc_by_position = {a.head_position: i for i, a in enumerate(accumulators)}
        pushed, residual_constraints = push_constraints(
            self.constraints, query, accumulators
        )

        evaluable_order = order_body(
            split.evaluable, self.registry, initially_bound=entry_bound
        )

        # ---- descent with folding ---------------------------------------
        root_call = {
            head_args[p].name: query.args[p] for p in bound_positions
        }
        start = _Frame(
            call=root_call,
            acc=tuple(a.identity() for a in accumulators),
            root_locals=(),
            depth=0,
        )
        answers = Relation(query.name, query.arity)
        frontier: List[_Frame] = [start]
        seen: Set[Tuple[object, ...]] = {start.key()}
        entry_names = sorted(entry_bound)
        depth = 0
        ctx.end(setup_span)
        while frontier:
            if depth > self.max_depth:
                raise PartialEvaluationError(
                    f"descent exceeded max depth {self.max_depth}; on cyclic "
                    "data, push a termination constraint (Algorithm 3.3, "
                    "step 4)"
                )
            depth += 1
            ctx.check_round(depth, counters)
            level_span = ctx.begin("stage", f"descent L{depth}")
            level_counts = ctx.stage_counts(len(evaluable_order))
            pruned_before = counters.pruned_tuples
            next_frontier: List[_Frame] = []
            for frame in frontier:
                self._try_exit(
                    frame,
                    query,
                    kinds,
                    accumulators,
                    acc_by_position,
                    residual_constraints,
                    answers,
                    counters,
                )
                seed: Substitution = dict(frame.call)
                for solution in evaluate_body(
                    evaluable_order, lookup, self.registry, seed, counters,
                    stage_counts=level_counts, ctx=ctx,
                ):
                    new_acc: List[object] = []
                    admissible = True
                    for index, accumulator in enumerate(accumulators):
                        increment = apply_substitution(
                            Var(accumulator.increment_var), solution
                        )
                        if not is_ground(increment):
                            raise PartialEvaluationError(
                                f"accumulator increment {accumulator.increment_var} "
                                "not bound by the evaluable portion"
                            )
                        value = accumulator.step(frame.acc[index], increment)
                        new_acc.append(value)
                    for constraint in pushed:
                        index = accumulators.index(constraint.accumulator)
                        measure = constraint.accumulator.measure(new_acc[index])
                        if not constraint.admits(measure):
                            admissible = False
                            break
                    if not admissible:
                        counters.pruned_tuples += 1
                        continue
                    child_call: Dict[str, Term] = {}
                    for p, rec_arg in enumerate(rec_args):
                        value = apply_substitution(rec_arg, solution)
                        if is_ground(value):
                            child_call[head_args[p].name] = value
                    if frame.depth == 0:
                        locals_captured = tuple(
                            sorted(
                                (p, apply_substitution(head_args[p], solution))
                                for p, kind in kinds.items()
                                if kind == _LOCAL
                            )
                        )
                        for _, value in locals_captured:
                            if not is_ground(value):
                                raise PartialEvaluationError(
                                    "root-level local head value not bound by "
                                    "the evaluable portion"
                                )
                    else:
                        locals_captured = frame.root_locals
                    child = _Frame(
                        call=child_call,
                        acc=tuple(new_acc),
                        root_locals=locals_captured,
                        depth=frame.depth + 1,
                    )
                    child_key = child.key()
                    if child_key not in seen:
                        seen.add(child_key)
                        next_frontier.append(child)
            pruned = counters.pruned_tuples - pruned_before
            ctx.end(
                level_span,
                seeds=len(frontier),
                spawned=len(next_frontier),
                pruned=pruned,
            )
            ctx.tracer.body_evaluated(
                "descent",
                evaluable_order,
                level_counts,
                seeds=len(frontier),
                initially_bound=entry_names,
                depth=depth,
                spawned=len(next_frontier),
                pruned=pruned,
            )
            frontier = next_frontier
        return answers, counters

    # ------------------------------------------------------------------
    def _classify_positions(
        self,
        bound_positions: Set[int],
        accumulators: Sequence[Accumulator],
    ) -> Dict[int, str]:
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args
        acc_positions = {a.head_position for a in accumulators}
        kinds: Dict[int, str] = {}
        for p, head_arg in enumerate(head_args):
            if p in bound_positions:
                kinds[p] = _BOUND
            elif p in acc_positions:
                kinds[p] = _ACC
            elif (
                isinstance(rec_args[p], Var)
                and rec_args[p].name == head_arg.name
            ):
                kinds[p] = _PASS
            else:
                kinds[p] = _LOCAL
        return kinds

    def _try_exit(
        self,
        frame: _Frame,
        query: Literal,
        kinds: Dict[int, str],
        accumulators: Sequence[Accumulator],
        acc_by_position: Dict[int, int],
        residual_constraints: Sequence[Literal],
        answers: Relation,
        counters: Counters,
    ) -> None:
        # Each exit row is emitted as soon as it matches (no staging list).
        for exit_row in exit_rows(
            self.compiled, self.database, self.registry, frame.call,
            counters, self.ctx,
        ):
            self._emit_exit_row(
                frame,
                query,
                kinds,
                accumulators,
                acc_by_position,
                residual_constraints,
                answers,
                counters,
                exit_row,
            )

    def _emit_exit_row(
        self,
        frame: _Frame,
        query: Literal,
        kinds: Dict[int, str],
        accumulators,
        acc_by_position: Dict[int, int],
        residual_constraints,
        answers: Relation,
        counters: Counters,
        exit_row,
    ) -> None:
        root_locals = dict(frame.root_locals)
        row: List[Term] = []
        valid = True
        for p, kind in sorted(kinds.items()):
            if kind == _BOUND:
                row.append(query.args[p])
            elif kind == _PASS:
                row.append(exit_row[p])
            elif kind == _ACC:
                accumulator = accumulators[acc_by_position[p]]
                row.append(
                    accumulator.finalize(
                        frame.acc[acc_by_position[p]], exit_row[p]
                    )
                )
            else:  # _LOCAL
                if frame.depth == 0:
                    row.append(exit_row[p])
                elif p in root_locals:
                    row.append(root_locals[p])
                else:
                    valid = False
                    break
        if not valid:
            return
        if unify_sequences(query.args, tuple(row)) is None:
            return
        if not self._residual_ok(query, tuple(row), residual_constraints):
            counters.pruned_tuples += 1
            return
        if answers.add(tuple(row)):
            counters.derived_tuples += 1
            self.ctx.check_tuple(counters)

    def _residual_ok(
        self,
        query: Literal,
        row: Tuple[Term, ...],
        residual_constraints: Sequence[Literal],
    ) -> bool:
        if not residual_constraints:
            return True
        binding: Substitution = {}
        for arg, value in zip(query.args, row):
            if isinstance(arg, Var):
                binding[arg.name] = value
        for literal in residual_constraints:
            satisfied = False
            for _ in self.registry.solve(literal, binding):
                satisfied = True
                break
            if not satisfied:
                return False
        return True
