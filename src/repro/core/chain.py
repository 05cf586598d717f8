"""The descent that counting and chain-split evaluation share.

Counting (ref [1]), buffered chain-split evaluation (Algorithm 3.2) and
partial evaluation (Algorithm 3.3) are one scheme: the query's bound
arguments descend the chain generating path level by level, every
level evaluates the same ordered body once per frontier node, and the
recursion is left through the exit rows of the calls reached.  Algorithm
3.2 "is similar to counting except that the values of variable
``X_i``'s are buffered" (Remark 3.1), and Algorithm 3.3 folds that
buffer into accumulators during the descent.  The three differ only in
what a frontier node carries and in what happens after the descent.

:class:`ChainEvaluator` owns what they share: the compiled-recursion
shape checks, the ``evaluate`` run span and its counters, the
level-by-level :meth:`~ChainEvaluator.descend` driver (depth guard,
budget checkpoint, level span, one tracer event per level) and
:meth:`~ChainEvaluator.exit_rows`.  ``max_depth=N`` admits exactly N
descent levels for every subclass.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Type

from ..datalog.literals import Literal
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.joins import evaluate_body, literal_solutions, order_body
from ..engine.relation import Relation
from ..analysis.chains import CompiledRecursion

__all__ = ["ChainEvaluator"]

#: ``solve(seed)``: one level's ordered body evaluated under one
#: frontier node's bindings.
Solve = Callable[[Substitution], Iterator[Substitution]]


class ChainEvaluator:
    """Base of the chain evaluators: a subclass names its error class
    and span, and implements :meth:`_run` around one :meth:`descend`."""

    #: Raised for shape, query and depth violations.
    error: Type[ValueError] = ValueError
    #: How messages name the method.
    method = "chain evaluation"
    #: The name of the ``evaluate`` span.
    span = "chain"
    #: Counting needs >= 2 generating chains; chain-split exactly one.
    multi_chain = False
    #: Report pruned derivations on the run and level spans (Alg. 3.3).
    prunes = False
    #: Appended to the depth-guard message.
    depth_hint = ""
    #: Solves derived literals in the chain path (nested evaluation).
    idb_solver = None

    def __init__(
        self,
        database: Database,
        compiled: CompiledRecursion,
        registry: Optional[BuiltinRegistry] = None,
        max_depth: int = 10_000,
        ctx: EvalContext = DISABLED,
    ):
        self.database = database
        self.compiled = compiled
        self.registry = registry if registry is not None else default_registry()
        self.max_depth = max_depth
        self.ctx = ctx
        chains = compiled.generating_chains()
        if (len(chains) >= 2) != self.multi_chain:
            shape = "multi" if self.multi_chain else "single"
            raise self.error(
                f"{self.method} requires a {shape}-chain recursion; "
                f"{compiled.predicate} has {len(chains)} generating chains"
            )
        if not all(isinstance(a, Var) for a in compiled.head_args):
            raise self.error(f"{self.method} requires a rectified recursion")
        self.chains = chains

    def evaluate(self, query: Literal) -> Tuple[Relation, Counters]:
        """Answers (a relation over the query arguments) and counters."""
        if query.predicate != self.compiled.predicate:
            raise self.error(f"query {query} is not on {self.compiled.predicate}")
        counters = Counters()
        run_span = self.ctx.begin("evaluate", self.span)
        try:
            return self._run(query, counters), counters
        finally:
            meta = {"derived": counters.derived_tuples}
            if self.prunes:
                meta["pruned"] = counters.pruned_tuples
            self.ctx.end(run_span, **meta)

    def _run(self, query: Literal, counters: Counters) -> Relation:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def descend(
        self,
        stage: str,
        order: Sequence[Tuple[int, Literal]],
        bound: Sequence[str],
        frontier,
        expand: Callable[[object, Solve], object],
        counters: Counters,
        first_level: int = 1,
    ) -> None:
        """Descend from ``frontier`` until a level spawns nothing.

        Each level calls ``expand(frontier, solve)`` once and gets the
        next frontier back; ``solve(seed)`` evaluates ``order`` (whose
        initially bound variables are ``bound``) under one node's
        bindings.  Level spans and tracer events are named ``stage``
        and numbered from ``first_level``."""
        ctx = self.ctx
        lookup, registry, idb_solver = self.database.get, self.registry, self.idb_solver
        depth = 0
        while frontier:
            depth += 1
            if depth > self.max_depth:
                raise self.error(
                    f"{self.method} exceeded max depth {self.max_depth}"
                    f"{self.depth_hint}"
                )
            ctx.check_round(depth, counters)
            level = first_level + depth - 1
            level_span = ctx.begin("stage", f"{stage} L{level}")
            # One aggregated stage-count vector per level: the frontier
            # nodes all evaluate the same ordered body.
            counts = ctx.stage_counts(len(order))
            pruned = counters.pruned_tuples

            def solve(seed: Substitution) -> Iterator[Substitution]:
                return evaluate_body(
                    order, lookup, registry, seed, counters,
                    idb_solver=idb_solver, stage_counts=counts, ctx=ctx,
                )

            spawned = expand(frontier, solve)
            meta = {"seeds": len(frontier), "spawned": len(spawned)}
            if self.prunes:
                meta["pruned"] = counters.pruned_tuples - pruned
            ctx.end(level_span, **meta)
            ctx.tracer.body_evaluated(
                stage, order, counts, initially_bound=bound, depth=level, **meta
            )
            frontier = spawned

    def exit_rows(
        self, bindings: Dict[str, Term], counters: Counters
    ) -> Iterator[Tuple[Term, ...]]:
        """Complete head rows of one call of the recursive predicate
        whose head variables ``bindings`` binds to ground values: the
        stored facts that match, then what the exit rules derive,
        streamed as they are found.  The loader stores ground heads as
        facts, so a ground exit "rule" lives in the EDB and is an exit
        row here too."""
        compiled = self.compiled
        call_args = [
            bindings.get(arg.name, Var(f"_Q{p}"))
            for p, arg in enumerate(compiled.head_args)
        ]
        stored = self.database.get(compiled.predicate)
        if stored is not None:
            fact = Literal(compiled.predicate.name, call_args)
            for solution in literal_solutions(fact, stored, {}, counters):
                row = tuple(apply_substitution(arg, solution) for arg in call_args)
                if all(is_ground(v) for v in row):
                    yield row
        for rule in compiled.exit_rules:
            unified = unify_sequences(rule.head.args, call_args)
            if unified is None:
                continue
            order = order_body(
                rule.body,
                self.registry,
                initially_bound={
                    name for name, value in unified.items() if is_ground(value)
                },
            )
            for solution in evaluate_body(
                order, self.database.get, self.registry, unified, counters,
                idb_solver=self.idb_solver, ctx=self.ctx,
            ):
                row = tuple(apply_substitution(arg, solution) for arg in rule.head.args)
                if all(is_ground(v) for v in row):
                    yield row
