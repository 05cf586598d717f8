"""Tabled top-down evaluation (SLG-style memoization, simplified).

Plain SLD resolution loops on left-recursive programs
(``anc(X,Y) :- anc(X,Z), parent(Z,Y)``) and re-derives shared subgoals
exponentially often on DAG-shaped data.  Tabling fixes both: each
*call pattern* (predicate + argument instantiation, variables
canonicalized) gets one table of answers; repeated calls consume the
table instead of re-deriving.

This implementation restricts itself to what the library needs — the
function-free and constructor-based programs of the paper — and uses a
simple iterate-to-fixpoint scheduling (no suspension machinery): rules
for tabled subgoals are re-run until no table grows.  That is less
incremental than full SLG-WAM resolution but is sound, complete for
definite programs with finite answer sets, and terminates on
left-recursion.

Builtins and negation are handled as in :class:`TopDownEvaluator`:
builtins must be evaluable when selected (deferred selection delays
them), and negation is stratified negation-as-failure over completed
tables.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.terms import Term, call_pattern, fresh_variable_factory, is_ground
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from .builtins import BuiltinError, BuiltinRegistry, default_registry
from .counters import Counters
from .database import Database
from .joins import literal_solutions
from .topdown import (
    GoalQueries,
    NotFinitelyEvaluable,
    TopDownEvaluator,
    _recursion_headroom,
)

__all__ = ["TabledEvaluator"]

#: A call pattern: predicate plus arguments with variables replaced by
#: canonical placeholders (so ``anc(X, Y)`` and ``anc(A, B)`` share a
#: table but ``anc(a, Y)`` gets its own).
CallKey = Tuple[Predicate, Tuple[object, ...]]


class _Table:
    """Answers for one call pattern."""

    __slots__ = ("general_args", "answers", "complete")

    def __init__(self, general_args: List[Term]):
        self.general_args = general_args
        self.answers: Set[Tuple[Term, ...]] = set()
        self.complete = False


class TabledEvaluator(GoalQueries):
    """Top-down evaluation with call-pattern tabling.

    API mirrors :class:`~repro.engine.topdown.TopDownEvaluator`:
    ``solve`` / ``query`` / ``ask``, and goals are selected by its
    deferred policy.
    """

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        max_rounds: int = 10_000,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.max_rounds = max_rounds
        self.counters = Counters()
        self._tables: Dict[CallKey, _Table] = {}
        self._fresh = fresh_variable_factory("_TR")
        # Borrow the evaluator's deferred goal selection.
        self._selector = TopDownEvaluator(database, self.registry)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self, goals: Sequence[Literal], subst: Optional[Substitution] = None
    ) -> Iterator[Substitution]:
        """Enumerate solutions of a conjunctive goal list."""
        with _recursion_headroom():
            self._saturate(list(goals), dict(subst or {}))
            yield from self._solve_body(list(goals), dict(subst or {}))

    def table_sizes(self) -> Dict[str, int]:
        """Answer counts per call pattern (for tests/diagnostics)."""
        return {
            f"{predicate.name}/{predicate.arity}#{i}": len(table.answers)
            for i, ((predicate, _), table) in enumerate(self._tables.items())
        }

    # ------------------------------------------------------------------
    # Saturation
    # ------------------------------------------------------------------
    def _saturate(self, goals: List[Literal], subst: Substitution) -> None:
        """Run rounds until no table grows: each round re-derives every
        registered call pattern against the current tables."""
        # Register the top-level IDB goals.
        for goal in goals:
            instantiated = goal.substitute(subst)
            if self._is_idb(instantiated):
                self._table_for(instantiated)
        for round_number in range(self.max_rounds):
            self.counters.iterations += 1
            tables_before = len(self._tables)
            grew = False
            # Iterate over a snapshot: new call patterns found during
            # the round join the next round.
            for key in list(self._tables):
                if self._expand_table(key):
                    grew = True
            # A freshly registered call pattern is growth too — its
            # table still needs expansion even if no answers appeared
            # this round.
            if not grew and len(self._tables) == tables_before:
                for table in self._tables.values():
                    table.complete = True
                return
        raise RuntimeError(
            f"tabled evaluation did not converge within {self.max_rounds} rounds"
        )

    def _expand_table(self, key: CallKey) -> bool:
        predicate, _ = key
        table = self._tables[key]
        call_literal = Literal(predicate.name, table.general_args)
        grew = False
        # Stored facts.
        relation = self.database.get(predicate)
        if relation is not None:
            for solution in literal_solutions(call_literal, relation, {}, self.counters):
                row = tuple(
                    apply_substitution(arg, solution) for arg in table.general_args
                )
                if all(is_ground(v) for v in row) and row not in table.answers:
                    table.answers.add(row)
                    self.counters.derived_tuples += 1
                    grew = True
        # Rules.
        for rule in self.database.program.rules_for(predicate):
            variant = rule.rename_apart(self._fresh)
            unified = unify_sequences(variant.head.args, table.general_args)
            if unified is None:
                continue
            for solution in self._solve_body(list(variant.body), unified):
                row = tuple(
                    apply_substitution(arg, solution)
                    for arg in table.general_args
                )
                if all(is_ground(v) for v in row) and row not in table.answers:
                    table.answers.add(row)
                    self.counters.derived_tuples += 1
                    grew = True
        return grew

    def _solve_body(
        self, goals: List[Literal], subst: Substitution
    ) -> Iterator[Substitution]:
        """Solve a rule body against the current tables (IDB goals read
        tables only — recursion is closed by the outer fixpoint)."""
        if not goals:
            yield subst
            return
        index = self._selector._select(goals, subst)
        goal = goals[index]
        rest = goals[:index] + goals[index + 1 :]

        if goal.negated:
            ground_args = [apply_substitution(a, subst) for a in goal.args]
            if any(not is_ground(a) for a in ground_args):
                raise NotFinitelyEvaluable(
                    f"negated goal {goal} selected with unbound arguments"
                )
            positive = goal.positive().with_args(ground_args)
            if self._is_idb(positive):
                # Negation over a *growing* table is unsound (an early
                # round could wrongly succeed before the positive fact
                # is derived, and table growth is monotone).  Sound
                # support needs stratum-ordered saturation; this
                # evaluator targets the definite programs the paper's
                # chain analyses cover, so refuse loudly instead.
                raise NotImplementedError(
                    "negation over tabled IDB predicates is not supported; "
                    "use TopDownEvaluator (SLD) or SemiNaiveEvaluator "
                    "(stratified bottom-up) instead"
                )
            relation = self.database.get(positive.predicate)
            if relation is None or tuple(ground_args) not in relation:
                yield subst
            return

        builtin = self.registry.get(goal.predicate)
        if builtin is not None:
            self.counters.builtin_evals += 1
            try:
                for solution in builtin.solve(goal.args, subst):
                    yield from self._solve_body(rest, solution)
            except BuiltinError as exc:
                raise NotFinitelyEvaluable(str(exc)) from exc
            return

        if self._is_idb(goal):
            instantiated = goal.substitute(subst)
            table = self._table_for(instantiated)
            self.counters.join_probes += 1
            for row in list(table.answers):
                extended = unify_sequences(goal.args, list(row), subst)
                if extended is not None:
                    yield from self._solve_body(rest, extended)
            return

        relation = self.database.get(goal.predicate)
        if relation is None:
            return
        for solution in literal_solutions(goal, relation, subst, self.counters):
            yield from self._solve_body(rest, solution)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _is_idb(self, literal: Literal) -> bool:
        return bool(self.database.program.rules_for(literal.predicate))

    def _table_for(self, literal: Literal) -> _Table:
        key_parts, general = call_pattern(literal.args)
        key = (literal.predicate, key_parts)
        table = self._tables.get(key)
        if table is None:
            table = _Table(general)
            self._tables[key] = table
        return table
