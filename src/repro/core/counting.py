"""The counting method (ref [1]) for compiled 2-chain recursions.

Counting exploits the level symmetry of recursions like ``sg``: the
query constant descends the first chain for *i* levels, crosses the
exit relation, and ascends the second chain for exactly *i* levels.
Instead of a magic set that forgets depth, counting keeps the frontier
*per level* — which is also the scaffold Algorithm 3.2 (buffered
chain-split evaluation) extends: there, the per-level buffer holds not
just chain values but the split-off variables the delayed portion will
need.  The descent, its depth guard and the exit rows are
:class:`~repro.core.chain.ChainEvaluator`'s; a counting frontier node
is the tuple of down-chain values at that level.

This implementation works on any :class:`CompiledRecursion` with
exactly two generating chains, one of which is fully bound by the
query.  It assumes acyclic chain data (the paper defers cyclic data to
cyclic-counting extensions, ref [5]); a repeated frontier raises.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ..datalog.literals import Literal
from ..datalog.terms import Term, Var, is_ground
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from ..engine.counters import Counters
from ..engine.joins import evaluate_body, order_body
from ..engine.relation import Relation
from ..analysis.chains import ChainPath
from .chain import ChainEvaluator

__all__ = ["CountingEvaluator", "CountingError"]


class CountingError(ValueError):
    """The recursion/query does not fit the counting method."""


class CountingEvaluator(ChainEvaluator):
    """Counting evaluation of an n-chain recursion (n >= 2) for a
    query binding one chain's head arguments: the bound chain descends
    with per-level frontiers, and each remaining chain ascends the same
    number of levels from the exit tuples."""

    error = CountingError
    method = "counting"
    span = "counting"
    multi_chain = True

    def _run(self, query: Literal, counters: Counters) -> Relation:
        ctx = self.ctx
        setup_span = ctx.begin("stage", "count_setup")
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args
        bound_positions = {
            i for i, arg in enumerate(query.args) if is_ground(arg)
        }
        down = self._chain_covering(bound_positions)
        up_chains = [chain for chain in self.chains if chain is not down]

        # ---- down phase: per-level frontiers of the bound chain ------
        down_order = order_body(
            down.literals,
            self.registry,
            initially_bound={head_args[p].name for p in bound_positions},
        )
        down_names = [head_args[p].name for p in down.head_positions]
        down_rec_args = [rec_args[p] for p in down.rec_positions]
        frontiers: List[Set[Tuple[Term, ...]]] = []
        seen_states: Set[frozenset] = set()

        def expand(current, solve):
            frontiers.append(current)
            # Inside the level span: hashing the whole frontier is part
            # of this level's work.
            state = frozenset(current)
            if state in seen_states:
                raise CountingError(
                    "down-chain frontier repeated — cyclic chain data is "
                    "not supported by plain counting (see ref [5])"
                )
            seen_states.add(state)
            spawned: Set[Tuple[Term, ...]] = set()
            for values in current:
                for solution in solve(dict(zip(down_names, values))):
                    next_values = tuple(
                        apply_substitution(arg, solution) for arg in down_rec_args
                    )
                    if all(is_ground(v) for v in next_values):
                        spawned.add(next_values)
            counters.buffered_values += len(spawned)
            return spawned

        # Each frontier's values are counted as buffered when it is
        # spawned; the root frontier here.
        root = tuple(query.args[p] for p in down.head_positions)
        counters.buffered_values += 1
        ctx.end(setup_span)
        self.descend(
            "count_down", down_order, sorted(down_names), {root}, expand,
            counters, first_level=0,
        )

        # ---- exit phase: cross the exit rules at each level -----------
        # Answers at level i map the down-chain values to full head
        # tuples of the *innermost* call; the up phase then rewinds.
        exit_span = ctx.begin("stage", "count_exit")
        head_names = [a.name for a in head_args]
        per_level_exit: List[List[Substitution]] = [
            [
                dict(zip(head_names, row))
                for values in frontier
                for row in self.exit_rows(dict(zip(down_names, values)), counters)
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
        up_bound = [
            {rec_args[p].name for p in up.rec_positions if isinstance(rec_args[p], Var)}
            for up in up_chains
        ]
        up_orders = [
            order_body(up.literals, self.registry, initially_bound=bound)
            for up, bound in zip(up_chains, up_bound)
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
                        solutions, up, up_order, counters,
                        up_counts[chain_no], up_seeds[chain_no],
                    )
            # The climbed solutions carry the up-chain values at level
            # 0; the down-chain positions are the query's own constants
            # (the climb never touches them).
            for solution in solutions:
                row = tuple(
                    query.args[p] if p in down.head_positions
                    else solution.get(head_var.name)
                    for p, head_var in enumerate(head_args)
                )
                if any(v is None or not is_ground(v) for v in row):
                    continue
                if unify_sequences(query.args, row) is not None:
                    if answers.add(row):
                        counters.derived_tuples += 1
                        ctx.check_tuple(counters)
        ctx.end(up_span, derived=len(answers))
        if ctx.recording:
            for up_order, chain_counts, seed_counter, bound in zip(
                up_orders, up_counts, up_seeds, up_bound
            ):
                ctx.tracer.body_evaluated(
                    "count_up",
                    up_order,
                    chain_counts,
                    seeds=seed_counter[0],
                    initially_bound=sorted(bound),
                    derived=len(answers),
                )
        return answers

    # ------------------------------------------------------------------
    def _climb_one_level(
        self,
        solutions: Iterable[Substitution],
        up: ChainPath,
        up_order,
        counters: Counters,
        stage_counts: Optional[List[int]],
        seed_counter: List[int],
    ) -> Iterator[Substitution]:
        """One ascent step of one up chain, as a streaming stage."""
        head_args = self.compiled.head_args
        rec_args = self.compiled.rec_args
        for solution in solutions:
            seed_counter[0] += 1
            rec_seed: Substitution = {}
            for p in up.rec_positions:
                arg = rec_args[p]
                if isinstance(arg, Var):
                    value = solution.get(head_args[p].name)
                    if value is not None:
                        rec_seed[arg.name] = value
            for up_solution in evaluate_body(
                up_order, self.database.get, self.registry, rec_seed, counters,
                stage_counts=stage_counts, ctx=self.ctx,
            ):
                climbed = dict(solution)
                for p in up.head_positions:
                    climbed[head_args[p].name] = apply_substitution(
                        head_args[p], up_solution
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
