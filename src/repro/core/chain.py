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

Everything a descent needs that depends on the query's adornment but
not on its constants — the split, the ordered and compiled bodies of
every phase, and the compiled exit rules per bound set — is a
:class:`ChainProgram`, compiled by the first evaluation of a plan.  The
plan keeps it and hands it to :meth:`~ChainEvaluator.evaluate` on every
later execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..datalog.literals import Literal
from ..datalog.rules import Rule
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import Substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.joins import CompiledBody, UnsafeRuleError, compile_body, evaluate_body
from ..engine.relation import Relation
from ..engine.seminaive import CompiledHead
from ..analysis.chains import CompiledRecursion

__all__ = ["ChainEvaluator", "ChainProgram"]

#: ``solve(seed)``: one level's ordered body evaluated under one
#: frontier node's bindings.
Solve = Callable[[Substitution], Iterator[Substitution]]


@dataclass(eq=False)
class ChainProgram:
    """A chain evaluator's compiled form for one query adornment.

    Subclasses hold their phases' compiled bodies; :attr:`exits` fills
    up as calls reach the exit rules: one compiled body and head per
    exit rule and set of ground seed variables."""

    exits: Dict[
        Tuple[int, FrozenSet[str]], Tuple[CompiledBody, CompiledHead]
    ] = field(default_factory=dict, init=False)


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
    #: The compiled program of the last :meth:`evaluate`.
    program: Optional[ChainProgram] = None

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

    def evaluate(
        self, query: Literal, program: Optional[ChainProgram] = None
    ) -> Tuple[Relation, Counters]:
        """Answers (a relation over the query arguments) and counters.

        ``program`` is what an earlier evaluation compiled for a query
        of the same predicate and adornment (a plan keeps it); without
        one, the evaluation compiles its own.  Either way it is left in
        :attr:`program`."""
        if query.predicate != self.compiled.predicate:
            raise self.error(f"query {query} is not on {self.compiled.predicate}")
        self.program = program
        counters = Counters()
        run_span = self.ctx.begin("evaluate", self.span)
        try:
            return self._run(query, counters), counters
        finally:
            meta = {"derived": counters.derived_tuples}
            if self.prunes:
                meta["pruned"] = counters.pruned_tuples
            self.ctx.end(run_span, **meta)

    def _program(self, query: Literal) -> ChainProgram:
        """The program this evaluation runs: the one it was handed, or
        one compiled now (inside the caller's setup span)."""
        if self.program is None:
            self.program = self._compile(query)
        return self.program

    def _compile(self, query: Literal) -> ChainProgram:
        """Everything the descent needs that depends on the query's
        adornment but not on its constants."""
        raise NotImplementedError

    def _run(self, query: Literal, counters: Counters) -> Relation:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def descend(
        self,
        stage: str,
        order: CompiledBody,
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
        self,
        program: ChainProgram,
        bindings: Dict[str, Term],
        counters: Counters,
    ) -> Iterator[Tuple[Term, ...]]:
        """Complete head rows of one call of the recursive predicate
        whose head variables ``bindings`` binds to ground values: the
        stored facts that match, then what the exit rules derive,
        streamed as they are found.  The loader stores ground heads as
        facts, so a ground exit "rule" lives in the EDB and is an exit
        row here too.

        An exit rule whose head arguments are distinct variables is
        seeded with ``bindings`` under its own names; any other head
        is unified with the call, whose free positions are the
        placeholder variables ``_Q<position>``.  Either way the body is
        compiled once per rule and set of ground seed variables, in
        ``program``."""
        compiled = self.compiled
        head_args = compiled.head_args
        stored = self.database.get(compiled.predicate)
        if stored is not None:
            # The call's free positions are distinct placeholders, so a
            # stored row matches on the bound positions alone and is
            # its own answer.
            bound = [p for p, arg in enumerate(head_args) if arg.name in bindings]
            counters.join_probes += 1
            yield from stored.lookup(
                bound, [bindings[head_args[p].name] for p in bound]
            )
        call_args: Optional[List[Term]] = None
        for number, rule in enumerate(compiled.exit_rules):
            names = _distinct_var_names(rule)
            if names is not None:
                seed = {
                    name: bindings[arg.name]
                    for name, arg in zip(names, head_args)
                    if arg.name in bindings
                }
                bound = frozenset(seed)
            else:
                if call_args is None:
                    call_args = [
                        bindings.get(arg.name, Var(f"_Q{p}"))
                        for p, arg in enumerate(head_args)
                    ]
                seed = unify_sequences(rule.head.args, call_args)
                if seed is None:
                    continue
                bound = frozenset(
                    name for name, value in seed.items() if is_ground(value)
                )
            entry = program.exits.get((number, bound))
            if entry is None:
                entry = program.exits[number, bound] = (
                    compile_body(rule.body, self.registry, initially_bound=bound),
                    CompiledHead(rule),
                )
            body, head = entry
            for solution in evaluate_body(
                body, self.database.get, self.registry, seed, counters,
                idb_solver=self.idb_solver, ctx=self.ctx,
            ):
                try:
                    yield head.row(solution)
                except UnsafeRuleError:
                    continue  # not ground: no complete row for this call


def _distinct_var_names(rule: Rule) -> Optional[List[str]]:
    """The head's variable names when its arguments are distinct
    variables (a rectified head), else ``None``."""
    args = rule.head.args
    if not all(isinstance(arg, Var) for arg in args):
        return None
    names = [arg.name for arg in args]
    return names if len(set(names)) == len(names) else None
