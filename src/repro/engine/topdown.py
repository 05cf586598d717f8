"""Top-down (SLD) evaluation with optional delayed goal selection.

Functional recursions (``isort``, ``qsort``, ``nqueens``) are evaluated
top-down.  The evaluator supports two goal-selection policies:

* ``"leftmost"`` — textbook Prolog selection.  On a body whose chain
  generating path contains a functional predicate that is not yet
  evaluable (e.g. ``cons(X1, W1, W)`` with both ``X1`` and ``W1`` free
  in ``append^bbf``), this policy *fails finitely-evaluability*: the
  builtin raises :class:`NotFinitelyEvaluable`.
* ``"deferred"`` — the operational core of chain-split evaluation: the
  leftmost *ready* goal is selected and non-ready functional goals are
  delayed until their arguments become bound.  This is precisely the
  paper's split of a chain generating path into an immediately
  evaluable portion and a delayed-evaluation portion, applied
  dynamically per resolution step.

A step budget turns nontermination into a :class:`BudgetExceeded`
exception so benchmarks can demonstrate divergence safely.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.parser import parse_query
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term, Var, fresh_variable_factory, is_ground, term_variables
from ..datalog.unify import Substitution, apply_substitution, unify_sequences
from ..resilience.budget import BudgetExceeded
from .builtins import BuiltinError, BuiltinRegistry, default_registry
from .context import DISABLED, EvalContext
from .counters import Counters
from .database import Database
from .joins import literal_solutions
from .relation import Relation

__all__ = [
    "TopDownEvaluator",
    "BudgetExceeded",
    "NotFinitelyEvaluable",
]


class NotFinitelyEvaluable(RuntimeError):
    """A functional goal was selected under a mode with infinitely many
    solutions — the situation chain-split evaluation exists to avoid."""


@contextmanager
def _recursion_headroom(limit: int = 1_000_000):
    old = sys.getrecursionlimit()
    if old < limit:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class GoalQueries:
    """``query`` / ``ask`` over a ``solve(goals)`` method; the top-down
    and tabled evaluators share them."""

    def query(self, source: str) -> List[Dict[str, Term]]:
        """Parse and run a query; return bindings of the query's own
        variables (one dict per solution, deduplicated, in order)."""
        goals = parse_query(source)
        names: List[str] = []
        seen: Set[str] = set()
        for goal in goals:
            for var in goal.variables():
                if var.name not in seen:
                    seen.add(var.name)
                    names.append(var.name)
        answers: List[Dict[str, Term]] = []
        answer_keys: Set[Tuple[Tuple[str, Term], ...]] = set()
        for solution in self.solve(goals):
            binding = {
                name: apply_substitution(Var(name), solution) for name in names
            }
            key = tuple(sorted(binding.items(), key=lambda kv: kv[0]))
            if key not in answer_keys:
                answer_keys.add(key)
                answers.append(binding)
        return answers

    def ask(self, source: str) -> bool:
        """True when the query has at least one solution."""
        goals = parse_query(source)
        for _ in self.solve(goals):
            return True
        return False


class TopDownEvaluator(GoalQueries):
    """SLD resolution over a :class:`Database`.

    Parameters
    ----------
    database:
        EDB relations + IDB rules.
    registry:
        Builtin registry (defaults to the standard one).
    max_steps:
        Resolution-step budget; exceeded → :class:`BudgetExceeded`.
    selection:
        ``"leftmost"`` or ``"deferred"`` (chain-split) goal selection.
    ctx:
        The :class:`~repro.engine.context.EvalContext`.  Its budget is
        checked once per resolution step — SLD resolution has no
        fixpoint rounds, so ``max_rounds`` bounds resolution steps
        here — and each :meth:`solve` runs inside an ``evaluate`` /
        ``top_down`` span.
    """

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        max_steps: int = 5_000_000,
        selection: str = "deferred",
        ctx: EvalContext = DISABLED,
    ):
        if selection not in {"leftmost", "deferred"}:
            raise ValueError("selection must be 'leftmost' or 'deferred'")
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.max_steps = max_steps
        self.selection = selection
        self.ctx = ctx
        self.counters = Counters()
        self._fresh = fresh_variable_factory("_R")
        self._steps = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self, goals: Sequence[Literal], subst: Optional[Substitution] = None
    ) -> Iterator[Substitution]:
        """Enumerate solutions of a conjunctive goal list."""
        self._steps = 0
        ctx = self.ctx
        run_span = ctx.begin("evaluate", "top_down")
        resolve_span = ctx.begin("stage", "sld_resolution")
        try:
            with _recursion_headroom():
                yield from self._solve(list(goals), dict(subst or {}))
        finally:
            # Also reached when the consumer abandons the iterator
            # after the first witness (existence probes).
            ctx.end(resolve_span)
            ctx.end(run_span, steps=self._steps)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise BudgetExceeded(
                f"exceeded {self.max_steps} resolution steps",
                reason="steps",
                limit=self.max_steps,
                observed=self._steps,
                counters=self.counters.as_dict(),
            )
        budget = self.ctx.budget
        if budget is not None:
            budget.tick(self.counters)
            if budget.max_rounds is not None and self._steps > budget.max_rounds:
                budget.check_round(self._steps, self.counters)

    def _select(self, goals: List[Literal], subst: Substitution) -> int:
        """Index of the goal to resolve next under the active policy."""
        if self.selection == "leftmost" or len(goals) == 1:
            return 0
        first_user: Optional[int] = None
        for index, goal in enumerate(goals):
            if goal.negated:
                if all(
                    is_ground(apply_substitution(a, subst)) for a in goal.args
                ):
                    return index
                continue
            builtin = self.registry.get(goal.predicate)
            if builtin is not None:
                bound = frozenset(
                    i
                    for i, arg in enumerate(goal.args)
                    if is_ground(apply_substitution(arg, subst))
                )
                if builtin.is_finite_under(bound):
                    # A ready functional goal binds or filters
                    # deterministically — always run it before
                    # expanding a user predicate.
                    return index
                continue
            if first_user is None:
                first_user = index
        if first_user is not None:
            return first_user
        # Only non-ready builtins/negations remain: floundering.
        stuck = ", ".join(str(g.substitute(subst)) for g in goals)
        raise NotFinitelyEvaluable(f"all remaining goals floundered: {stuck}")

    def _solve(self, goals: List[Literal], subst: Substitution) -> Iterator[Substitution]:
        if not goals:
            yield subst
            return
        self._tick()
        index = self._select(goals, subst)
        goal = goals[index]
        rest = goals[:index] + goals[index + 1 :]

        if goal.negated:
            ground_args = [apply_substitution(a, subst) for a in goal.args]
            if any(not is_ground(a) for a in ground_args):
                raise NotFinitelyEvaluable(
                    f"negated goal {goal} selected with unbound arguments"
                )
            positive = goal.positive().with_args(ground_args)
            for _ in self._solve([positive], dict(subst)):
                return
            yield from self._solve(rest, subst)
            return

        builtin = self.registry.get(goal.predicate)
        if builtin is not None:
            self.counters.builtin_evals += 1
            try:
                solutions = list(builtin.solve(goal.args, subst))
            except BuiltinError as exc:
                raise NotFinitelyEvaluable(str(exc)) from exc
            for solution in solutions:
                yield from self._solve(rest, solution)
            return

        relation = self.database.get(goal.predicate)
        if relation is not None:
            for solution in literal_solutions(goal, relation, subst, self.counters):
                yield from self._solve(rest, solution)

        for rule in self.database.program.rules_for(goal.predicate):
            variant = rule.rename_apart(self._fresh)
            unified = unify_sequences(variant.head.args, goal.args, subst)
            if unified is None:
                continue
            self.counters.intermediate_tuples += 1
            yield from self._solve(list(variant.body) + rest, unified)
