"""Buffered chain-split evaluation (Algorithm 3.2).

The paper's second technique evaluates a *split* single-chain recursion
in two sweeps:

* **down phase** — iterate the *immediately evaluable portion* of the
  chain generating path from the query bindings, spawning the next
  level's recursive call; the variables shared with the delayed portion
  (the ``X_i`` of the paper) are **buffered** per derivation.
* **up phase** — once an exit rule applies, replay the buffered values
  innermost-first through the *delayed-evaluation portion*, completing
  each suspended call until the query's own call is answered.

"The algorithm is similar to counting except that the values of
variable ``X_i``'s are buffered in the processing of the being
evaluated portion of a chain generating path and reused in the
processing of its buffered portion" (Remark 3.1).  So the descent, its
depth guard and the exit rows are counting's, shared through
:class:`~repro.core.chain.ChainEvaluator`; a frontier node here is a
memoized call, and each spawning solution buffers the ``X_i``.

The implementation is set-oriented and memoizing: identical recursive
calls are shared (one node per distinct call-argument tuple), so on
DAG-shaped data each call is expanded once, and the up phase is a
fixpoint over the call graph, which also terminates on cyclic call
graphs for function-free recursions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.literals import Literal
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.joins import CompiledBody, compile_body, evaluate_body
from ..engine.relation import Relation
from ..analysis.chains import CompiledRecursion
from ..analysis.finiteness import PathSplit, split_path
from .chain import ChainEvaluator, ChainProgram

__all__ = ["BufferedChainEvaluator", "BufferedEvaluationError"]


class BufferedEvaluationError(ValueError):
    """The recursion/query does not fit buffered chain-split
    evaluation (not single-chain, or the split fails)."""


@dataclass
class _CallNode:
    """One (memoized) recursive call: its known argument bindings and,
    as the up phase progresses, its complete result rows."""

    key: Tuple[object, ...]
    bindings: Dict[str, Term]  # head-variable name -> ground value
    results: Set[Tuple[Term, ...]] = field(default_factory=set)
    #: (parent key, buffered substitution) pairs: how this call was
    #: reached and what the parent buffered while spawning it.
    parents: List[Tuple[Tuple[object, ...], Substitution]] = field(
        default_factory=list
    )


class BufferedChainEvaluator(ChainEvaluator):
    """Algorithm 3.2 over a compiled single-chain recursion.

    Parameters mirror :class:`~repro.core.counting.CountingEvaluator`;
    the split itself defaults to the finiteness-based
    :func:`~repro.analysis.finiteness.split_path` but can be injected
    (e.g. an efficiency-based split from the cost model).
    """

    error = BufferedEvaluationError
    method = "buffered evaluation"
    span = "buffered_chain"

    def __init__(
        self,
        database: Database,
        compiled: CompiledRecursion,
        registry: Optional[BuiltinRegistry] = None,
        split: Optional[PathSplit] = None,
        max_depth: int = 100_000,
        memoize: bool = True,
        idb_solver=None,
        idb_finite=None,
        ctx: EvalContext = DISABLED,
    ):
        super().__init__(database, compiled, registry, max_depth, ctx)
        # memoize=False disables call sharing (each expansion gets a
        # private node) — the ablation showing why the memoized call
        # graph matters on DAG data and cyclic data.
        self.memoize = memoize
        # Nested chain-split evaluation (paper §4.1): inner recursions
        # occurring in the chain path are solved by this callback, and
        # their finite evaluability is judged by `idb_finite`.
        self.idb_solver = idb_solver
        self.idb_finite = idb_finite
        self._injected_split = split

    # ------------------------------------------------------------------
    def _compile(self, query: Literal) -> "_BufferedProgram":
        head_args = self.compiled.head_args
        rec_literal = self.compiled.recursive_literal
        bound_positions = [
            i for i, arg in enumerate(query.args) if is_ground(arg)
        ]
        entry_bound = {head_args[p].name for p in bound_positions}
        split = self._injected_split
        if split is None:
            extra = {} if self.idb_finite is None else {"idb_finite": self.idb_finite}
            split = split_path(
                self.chains[0], entry_bound, rec_literal, self.registry,
                self.database, **extra,
            )
        delayed_bound = (
            entry_bound
            | {v.name for lit in split.evaluable for v in lit.variables()}
            | {v.name for v in rec_literal.variables()}
        )
        return _BufferedProgram(
            bound_positions=bound_positions,
            entry_bound=entry_bound,
            evaluable_order=compile_body(
                split.evaluable, self.registry, initially_bound=entry_bound
            ),
            delayed_bound=delayed_bound,
            delayed_order=compile_body(
                split.delayed, self.registry, initially_bound=delayed_bound
            ),
            buffered_names=set(split.buffered_vars),
        )

    def _run(self, query: Literal, counters: Counters) -> Relation:
        ctx = self.ctx
        # Compiling the split and the bodies (a plan's first run only)
        # is planning-grade work; give it its own stage rather than
        # container self time.
        setup_span = ctx.begin("stage", "chain_setup")
        program = self._program(query)
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args
        lookup = self.database.get
        bound_positions = program.bound_positions
        entry_bound = program.entry_bound
        delayed_order = program.delayed_order
        delayed_bound = program.delayed_bound
        # Variables the delayed portion needs from the down phase.
        buffered_names = program.buffered_names

        # ---- down phase: one memoized call node per distinct call ------
        root_bindings = {
            head_args[p].name: query.args[p] for p in bound_positions
        }
        root = _CallNode(self._call_key(root_bindings), root_bindings)
        calls: Dict[Tuple[object, ...], _CallNode] = {root.key: root}

        def expand(frontier, solve):
            spawned: List[_CallNode] = []
            for node in frontier:
                for solution in solve(dict(node.bindings)):
                    child_bindings: Dict[str, Term] = {}
                    for p, rec_arg in enumerate(rec_args):
                        value = apply_substitution(rec_arg, solution)
                        if is_ground(value):
                            child_bindings[head_args[p].name] = value
                    buffered = {
                        name: apply_substitution(Var(name), solution)
                        for name in buffered_names
                    }
                    counters.buffered_values += len(buffered)
                    child_key = self._call_key(child_bindings)
                    if not self.memoize:
                        # Unique key per expansion: no sharing.
                        child_key = (*child_key, ("#", len(calls)))
                    child = calls.get(child_key)
                    if child is None:
                        child = _CallNode(child_key, child_bindings)
                        calls[child_key] = child
                        spawned.append(child)
                    child.parents.append((node.key, {**solution, **buffered}))
            return spawned

        ctx.end(setup_span)
        self.descend(
            "chain_down", program.evaluable_order, sorted(entry_bound), [root],
            expand, counters,
        )

        # ---- exit phase -------------------------------------------------
        exit_span = ctx.begin("stage", "chain_exit")
        changed: List[_CallNode] = []
        for node in calls.values():
            node.results.update(self.exit_rows(program, node.bindings, counters))
            if node.results:
                changed.append(node)
        ctx.end(exit_span, calls=len(calls), with_exit_rows=len(changed))
        ctx.tracer.phase(
            "chain_exit", calls=len(calls), with_exit_rows=len(changed)
        )

        # ---- up phase: propagate results through the delayed portion ---
        up_span = ctx.begin("stage", "chain_up")
        head_names = [a.name for a in head_args]
        pending = list(changed)
        processed_pairs: Set[Tuple[Tuple[object, ...], Tuple[Term, ...]]] = set()
        up_counts = ctx.stage_counts(len(delayed_order))
        resumed_calls = 0
        up_derived_before = counters.derived_tuples
        while pending:
            node = pending.pop()
            for result_row in list(node.results):
                marker = (node.key, result_row)
                if marker in processed_pairs:
                    continue
                processed_pairs.add(marker)
                for parent_key, parent_solution in node.parents:
                    parent = calls[parent_key]
                    resumed = unify_sequences(rec_args, result_row, parent_solution)
                    if resumed is None:
                        continue
                    resumed_calls += 1
                    for solution in evaluate_body(
                        delayed_order,
                        lookup,
                        self.registry,
                        resumed,
                        counters,
                        idb_solver=self.idb_solver,
                        stage_counts=up_counts,
                        ctx=ctx,
                    ):
                        row = tuple(
                            apply_substitution(Var(name), solution)
                            for name in head_names
                        )
                        if not all(is_ground(v) for v in row):
                            continue
                        if row not in parent.results:
                            parent.results.add(row)
                            counters.derived_tuples += 1
                            ctx.check_tuple(counters)
                            pending.append(parent)
        ctx.end(
            up_span,
            resumed=resumed_calls,
            derived=counters.derived_tuples - up_derived_before,
        )
        if ctx.recording and delayed_order:
            ctx.tracer.body_evaluated(
                "chain_up",
                delayed_order,
                up_counts,
                seeds=resumed_calls,
                initially_bound=sorted(delayed_bound),
                derived=counters.derived_tuples - up_derived_before,
            )

        # ---- answers -----------------------------------------------------
        answers = Relation(query.name, query.arity)
        for row in root.results:
            if unify_sequences(query.args, row) is not None:
                answers.add(row)
        return answers

    # ------------------------------------------------------------------
    @staticmethod
    def _call_key(bindings: Dict[str, Term]) -> Tuple[object, ...]:
        return tuple(sorted(bindings.items(), key=lambda kv: kv[0]))


@dataclass(eq=False)
class _BufferedProgram(ChainProgram):
    """Algorithm 3.2 compiled for one adornment: the split's evaluable
    portion ordered for the descent, its delayed portion for the up
    phase, and the variables buffered between them."""

    bound_positions: List[int]
    entry_bound: Set[str]
    evaluable_order: CompiledBody
    delayed_bound: Set[str]
    delayed_order: CompiledBody
    buffered_names: Set[str]
