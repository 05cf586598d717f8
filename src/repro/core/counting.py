"""The counting method (ref [1]) for compiled 2-chain recursions.

Counting exploits the level symmetry of recursions like ``sg``: the
query constant descends the first chain for *i* levels, crosses the
exit relation, and ascends the second chain for exactly *i* levels.
Instead of a magic set that forgets depth, counting keeps the frontier
*per level* — which is also the scaffold Algorithm 3.2 (buffered
chain-split evaluation) extends: there, the per-level buffer holds not
just chain values but the split-off variables the delayed portion will
need.

This implementation works on any :class:`CompiledRecursion` with
exactly two generating chains, one of which is fully bound by the
query.  It assumes acyclic chain data (the paper defers cyclic data to
cyclic-counting extensions, ref [5]); a depth guard raises otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.rules import Rule
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.joins import evaluate_body, literal_solutions, order_body
from ..engine.relation import Relation
from ..analysis.chains import ChainPath, CompiledRecursion

__all__ = ["CountingEvaluator", "CountingError", "exit_rows"]


class CountingError(ValueError):
    """The recursion/query does not fit the counting method."""


def exit_rows(
    compiled: CompiledRecursion,
    database: Database,
    registry: BuiltinRegistry,
    bindings: Dict[str, Term],
    counters: Counters,
    ctx: EvalContext = DISABLED,
    idb_solver=None,
) -> Iterator[Tuple[Term, ...]]:
    """Complete head rows of one call of the recursive predicate whose
    head variables ``bindings`` binds to ground values: the stored
    facts that match, then what the exit rules derive, streamed as they
    are found.  The loader stores ground heads as facts, so a ground
    exit "rule" lives in the EDB; counting and Algorithms 3.2 / 3.3 all
    leave the chain through here, so such a fact is an exit row for
    every one of them."""
    call_args = [
        bindings.get(arg.name, Var(f"_Q{p}"))
        for p, arg in enumerate(compiled.head_args)
    ]
    stored = database.get(compiled.predicate)
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
            registry,
            initially_bound={
                name for name, value in unified.items() if is_ground(value)
            },
        )
        for solution in evaluate_body(
            order, database.get, registry, unified, counters,
            idb_solver=idb_solver, ctx=ctx,
        ):
            row = tuple(apply_substitution(arg, solution) for arg in rule.head.args)
            if all(is_ground(v) for v in row):
                yield row


class CountingEvaluator:
    """Counting evaluation of an n-chain recursion (n >= 2) for a
    query binding one chain's head arguments: the bound chain descends
    with per-level frontiers, and each remaining chain ascends the same
    number of levels from the exit tuples."""

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
        if len(chains) < 2:
            raise CountingError(
                f"counting requires a multi-chain recursion; "
                f"{compiled.predicate} has {len(chains)} generating chains"
            )
        self.chains = chains

    # ------------------------------------------------------------------
    def evaluate(self, query: Literal) -> Tuple[Relation, Counters]:
        """Answers (as a relation over the query predicate's arguments)
        and work counters."""
        if query.predicate != self.compiled.predicate:
            raise CountingError(f"query {query} is not on {self.compiled.predicate}")
        counters = Counters()
        run_span = self.ctx.begin("evaluate", "counting")
        try:
            return self._evaluate(query, counters)
        finally:
            self.ctx.end(run_span, derived=counters.derived_tuples)

    def _evaluate(
        self, query: Literal, counters: Counters
    ) -> Tuple[Relation, Counters]:
        ctx = self.ctx
        setup_span = ctx.begin("stage", "count_setup")
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args
        if not all(isinstance(a, Var) for a in head_args):
            raise CountingError(
                "counting requires a normalized (rectified) recursion "
                "with an all-variable head"
            )

        bound_positions = {
            i for i, arg in enumerate(query.args) if is_ground(arg)
        }
        down = self._chain_covering(bound_positions)
        up_chains = [chain for chain in self.chains if chain is not down]

        lookup = self.database.get

        # ---- down phase: per-level frontiers of the bound chain ------
        seed: Substitution = {}
        for position in bound_positions:
            head_var = head_args[position]
            if isinstance(head_var, Var):
                seed[head_var.name] = query.args[position]
        down_order = order_body(
            down.literals, self.registry, initially_bound=set(seed)
        )
        down_positions = [p for p in down.head_positions]
        down_rec_positions = [p for p in down.rec_positions]

        down_bound = sorted(
            head_args[p].name
            for p in down_positions
            if isinstance(head_args[p], Var)
        )
        frontiers: List[Set[Tuple[Term, ...]]] = []
        current: Set[Tuple[Term, ...]] = {
            tuple(
                apply_substitution(head_args[p], seed) for p in down_positions
            )
        }
        seen_states: Set[frozenset] = set()
        ctx.end(setup_span)
        while current:
            frontiers.append(current)
            # Opened before the frontier-state cycle check: hashing
            # the whole frontier is part of this level's work.
            level_span = ctx.begin(
                "stage", f"count_down L{len(frontiers) - 1}"
            )
            counters.buffered_values += len(current)
            if len(frontiers) > self.max_depth:
                raise CountingError(
                    "down chain exceeded max depth (cyclic data?)"
                )
            ctx.check_round(len(frontiers), counters)
            state = frozenset(current)
            if state in seen_states:
                raise CountingError(
                    "down-chain frontier repeated — cyclic chain data is "
                    "not supported by plain counting (see ref [5])"
                )
            seen_states.add(state)
            level_counts = ctx.stage_counts(len(down_order))
            next_frontier: Set[Tuple[Term, ...]] = set()
            for values in current:
                level_seed = {
                    head_args[p].name: v
                    for p, v in zip(down_positions, values)
                    if isinstance(head_args[p], Var)
                }
                for solution in evaluate_body(
                    down_order, lookup, self.registry, level_seed, counters,
                    stage_counts=level_counts, ctx=ctx,
                ):
                    next_values = tuple(
                        apply_substitution(rec_args[p], solution)
                        for p in down_rec_positions
                    )
                    if all(is_ground(v) for v in next_values):
                        next_frontier.add(next_values)
            ctx.end(
                level_span, seeds=len(current), spawned=len(next_frontier)
            )
            ctx.tracer.body_evaluated(
                "count_down",
                down_order,
                level_counts,
                seeds=len(current),
                initially_bound=down_bound,
                depth=len(frontiers) - 1,
                spawned=len(next_frontier),
            )
            current = next_frontier

        # ---- exit phase: cross the exit rules at each level -----------
        # Answers at level i map the down-chain values to full head
        # tuples of the *innermost* call; the up phase then rewinds.
        exit_span = ctx.begin("stage", "count_exit")
        head_names = [a.name for a in head_args]
        per_level_exit: List[List[Substitution]] = [
            [
                dict(zip(head_names, row))
                for values in frontier
                for row in exit_rows(
                    self.compiled,
                    self.database,
                    self.registry,
                    dict(zip((head_names[p] for p in down_positions), values)),
                    counters,
                    ctx,
                )
            ]
            for frontier in frontiers
        ]
        if ctx.recording:
            exit_solutions = sum(len(s) for s in per_level_exit)
            ctx.end(
                exit_span, levels=len(frontiers), exit_solutions=exit_solutions
            )
            ctx.tracer.phase(
                "count_exit",
                levels=len(frontiers),
                exit_solutions=exit_solutions,
            )

        # ---- up phase: ascend every remaining chain level by level ----
        up_span = ctx.begin("stage", "count_up")
        up_orders = [
            order_body(
                up.literals,
                self.registry,
                initially_bound={
                    rec_args[p].name
                    for p in up.rec_positions
                    if isinstance(rec_args[p], Var)
                },
            )
            for up in up_chains
        ]
        up_counts = [ctx.stage_counts(len(order)) for order in up_orders]
        up_seeds = [[0] for _ in up_chains]
        answers = Relation(query.name, query.arity)
        for level in range(len(frontiers) - 1, -1, -1):
            # climb `level` steps up; at each step every up chain
            # advances one level (they interact only through the exit
            # tuple, so they climb independently within one solution).
            # The steps are chained as generators: one exit solution
            # flows through the whole climb before the next is touched,
            # so no per-step solution list is ever materialized.
            solutions: Iterable[Substitution] = per_level_exit[level]
            for step in range(level, 0, -1):
                for chain_no, (up, up_order) in enumerate(
                    zip(up_chains, up_orders)
                ):
                    solutions = self._climb_one_level(
                        solutions, up, up_order, head_args, rec_args,
                        lookup, counters,
                        stage_counts=up_counts[chain_no],
                        seed_counter=up_seeds[chain_no],
                    )
            # The climbed solutions carry the up-chain values at level
            # 0; the down-chain positions are the query's own constants
            # (the climb never touches them).
            for solution in solutions:
                row: List[Term] = []
                complete = True
                for p, head_var in enumerate(head_args):
                    if p in down.head_positions:
                        row.append(query.args[p])
                    else:
                        value = solution.get(head_var.name)
                        if value is None or not is_ground(value):
                            complete = False
                            break
                        row.append(value)
                if not complete:
                    continue
                if unify_sequences(query.args, tuple(row)) is not None:
                    if answers.add(tuple(row)):
                        counters.derived_tuples += 1
                        ctx.check_tuple(counters)
        ctx.end(up_span, derived=len(answers))
        if ctx.recording:
            for up, up_order, chain_counts, seed_counter in zip(
                up_chains, up_orders, up_counts, up_seeds
            ):
                ctx.tracer.body_evaluated(
                    "count_up",
                    up_order,
                    chain_counts,
                    seeds=seed_counter[0],
                    initially_bound=sorted(
                        rec_args[p].name
                        for p in up.rec_positions
                        if isinstance(rec_args[p], Var)
                    ),
                    derived=len(answers),
                )
        return answers, counters

    # ------------------------------------------------------------------
    def _climb_one_level(
        self,
        solutions: Iterable[Substitution],
        up: ChainPath,
        up_order,
        head_args: Sequence[Term],
        rec_args: Sequence[Term],
        lookup,
        counters: Counters,
        stage_counts: Optional[List[int]] = None,
        seed_counter: Optional[List[int]] = None,
    ) -> Iterator[Substitution]:
        """One ascent step of one up chain, as a streaming stage."""
        for solution in solutions:
            if seed_counter is not None:
                seed_counter[0] += 1
            rec_seed: Substitution = {}
            for p in up.rec_positions:
                arg = rec_args[p]
                head_var = head_args[p]
                if isinstance(arg, Var) and isinstance(head_var, Var):
                    value = solution.get(head_var.name)
                    if value is not None:
                        rec_seed[arg.name] = value
            for up_solution in evaluate_body(
                up_order, lookup, self.registry, rec_seed, counters,
                stage_counts=stage_counts, ctx=self.ctx,
            ):
                climbed = dict(solution)
                for p in up.head_positions:
                    head_var = head_args[p]
                    if isinstance(head_var, Var):
                        climbed[head_var.name] = apply_substitution(
                            head_var, up_solution
                        )
                yield climbed

    def _chain_covering(self, bound_positions: Set[int]) -> ChainPath:
        for chain in self.chains:
            if set(chain.head_positions) <= bound_positions and chain.head_positions:
                return chain
        raise CountingError(
            "query constants do not fully bind either chain's head "
            "positions — counting is inapplicable"
        )
