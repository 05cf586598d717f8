"""Nested chain-split evaluation (paper §4.1).

``isort`` is the paper's flagship *nested linear recursion*: the outer
recursion's chain generating path contains ``insert``, itself a linear
recursion needing chain-split.  "This example demonstrates that
chain-split evaluation is a popular technique in the evaluation of
nested linear recursions."

This evaluator composes :class:`~repro.core.buffered.BufferedChainEvaluator`s:
the outer recursion runs buffered chain-split evaluation, and every
inner-recursion literal in its chain path is solved by a recursively
constructed evaluator (memoized per call pattern), through the
``idb_solver`` hook of the join machinery.

Finite evaluability of an inner call is judged per the adornment
reasoning of §4.1: the call is accepted when the inner chain's
immediately evaluable portion is non-empty (or the call is ground) and
re-binds every recursive-argument position that the call itself had
bound — the condition under which the inner descent makes progress on
bound data rather than enumerating an infinite relation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.terms import Var, call_pattern
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.relation import Relation
from ..analysis.chains import (
    CompilationError,
    CompiledRecursion,
    RecursionClass,
    classify_recursion,
)
from ..analysis.finiteness import NotFinitelyEvaluableError, split_path
from .buffered import BufferedChainEvaluator

__all__ = ["NestedChainEvaluator", "NestedEvaluationError"]


class NestedEvaluationError(ValueError):
    """The program does not fit nested chain-split evaluation."""


class NestedChainEvaluator:
    """Chain-split evaluation of (nested) linear recursions.

    ``database`` must hold the *rectified* program; every recursion
    reachable from ``predicate`` through chain paths must be linear
    (or nested linear).
    """

    def __init__(
        self,
        database: Database,
        predicate: Predicate,
        registry: Optional[BuiltinRegistry] = None,
        max_depth: int = 100_000,
        ctx: EvalContext = DISABLED,
    ):
        self.database = database
        self.predicate = predicate
        self.registry = registry if registry is not None else default_registry()
        self.max_depth = max_depth
        # Handed to every inner buffered evaluation (outer recursion
        # and nested inner calls alike).
        self.ctx = ctx
        self._compiled: Dict[Predicate, CompiledRecursion] = {}
        self._call_cache: Dict[Tuple[Predicate, Tuple[object, ...]], Relation] = {}
        self.counters = Counters()

    # ------------------------------------------------------------------
    def evaluate(self, query: Literal) -> Tuple[Relation, Counters]:
        """Answers (as a relation over the query arguments) + counters."""
        self.counters = Counters()
        run_span = self.ctx.begin("evaluate", "nested_chain")
        try:
            answers = self._evaluate_call(query)
        finally:
            self.ctx.end(
                run_span,
                derived=self.counters.derived_tuples,
                calls=len(self._call_cache),
            )
        return answers, self.counters

    # ------------------------------------------------------------------
    def _compile(self, predicate: Predicate) -> CompiledRecursion:
        if predicate not in self._compiled:
            from ..analysis.chains import compile_recursion

            # Chain compilation is planning-grade work done at run
            # time; attribute it rather than leave it as container
            # self time.
            span = self.ctx.begin("stage", f"chain_compile {predicate}")
            try:
                kind = classify_recursion(self.database.program, predicate)
                if kind not in {
                    RecursionClass.LINEAR,
                    RecursionClass.NESTED_LINEAR,
                }:
                    raise NestedEvaluationError(
                        f"{predicate} is {kind}; nested chain-split "
                        "evaluation covers linear and nested-linear recursions"
                    )
                self._compiled[predicate] = compile_recursion(
                    self.database.program, predicate, self.registry
                )
            finally:
                self.ctx.end(span)
        return self._compiled[predicate]

    def _evaluate_call(self, query: Literal) -> Relation:
        """Evaluate one (possibly nested) recursive call, memoized on
        its call pattern: ``r(y, W, W)`` and ``r(y, V, U)`` answer
        differently and get separate entries."""
        key = (query.predicate, call_pattern(query.args)[0])
        cached = self._call_cache.get(key)
        if cached is not None:
            return cached
        compiled = self._compile(query.predicate)
        evaluator = BufferedChainEvaluator(
            self.database,
            compiled,
            self.registry,
            max_depth=self.max_depth,
            idb_solver=self._solve_idb,
            idb_finite=self._idb_finite,
            ctx=self.ctx,
        )
        answers, counters = evaluator.evaluate(query)
        self.counters.merge(counters)
        self._call_cache[key] = answers
        return answers

    # ------------------------------------------------------------------
    # Hooks plugged into the buffered evaluator
    # ------------------------------------------------------------------
    def _solve_idb(
        self, literal: Literal, subst: Substitution
    ) -> Iterator[Substitution]:
        """Solve an inner-recursion literal for one binding context."""
        instantiated = tuple(
            apply_substitution(arg, subst) for arg in literal.args
        )
        call = Literal(literal.name, instantiated)
        answers = self._evaluate_call(call)
        for row in answers:
            extended = unify_sequences(literal.args, row, subst)
            if extended is not None:
                yield extended

    def _idb_finite(self, literal: Literal, bound: FrozenSet[int]) -> bool:
        """Adornment-level finiteness of an inner recursive call.

        Accept when (a) the call is fully bound, or (b) the inner
        chain's immediately evaluable portion under this adornment is
        non-empty and re-binds every recursive-argument position the
        call had bound — i.e. the inner descent progresses on bound
        data (paper §4.1's insert^bbf versus the rejected insert^bff).
        """
        try:
            compiled = self._compile(literal.predicate)
        except (NestedEvaluationError, CompilationError):
            return False
        if len(bound) == literal.arity:
            return True
        chains = compiled.generating_chains()
        if len(chains) != 1:
            return False
        chain = chains[0]
        head_args = compiled.head_args
        entry = {
            head_args[p].name
            for p in bound
            if isinstance(head_args[p], Var)
        }
        try:
            split = split_path(
                chain,
                entry,
                compiled.recursive_literal,
                self.registry,
                self.database,
                idb_finite=self._idb_finite,
            )
        except NotFinitelyEvaluableError:
            return False
        if not split.evaluable:
            return False
        evaluable_vars = set(entry)
        for lit in split.evaluable:
            evaluable_vars |= {v.name for v in lit.variables()}
        rec_args = compiled.rec_args
        for position in bound:
            rec_arg = rec_args[position]
            if isinstance(rec_arg, Var) and rec_arg.name not in evaluable_vars:
                return False
        return True
