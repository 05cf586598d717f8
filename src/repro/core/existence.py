"""Existence checking — stop as soon as one witness is found.

The paper (§5) calls for integrating chain-split evaluation "with
existence checking and constraint-based query evaluation techniques to
achieve high performance": a boolean query (all arguments bound, or
the caller only needs *whether* an answer exists) should not compute
the full answer set.

Two realizations are provided:

* **top-down** — the SLD evaluator is already lazy; taking the first
  solution short-circuits naturally (and chain-split deferred selection
  keeps functional goals finite).
* **bottom-up** — the magic-sets rewrite runs under a
  ``stop_condition`` that aborts the semi-naive fixpoint the moment a
  matching tuple lands in the answer relation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..datalog.literals import Literal
from ..datalog.parser import parse_query
from ..datalog.unify import unify_sequences
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.topdown import TopDownEvaluator
from .magic import MagicSetsEvaluator

__all__ = ["ExistenceChecker"]


class ExistenceChecker:
    """Boolean queries with early termination."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        max_steps: int = 5_000_000,
        ctx: EvalContext = DISABLED,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.max_steps = max_steps
        # The circuit breaker's degraded path probes under a context
        # with a tight budget, so even "does any answer exist?" cannot
        # blow up on a poisoned shape.
        self.ctx = ctx

    # ------------------------------------------------------------------
    def exists_top_down(self, query_source) -> Tuple[bool, Counters]:
        """First-witness SLD evaluation (lazy by construction)."""
        goals = self._goals(query_source)
        evaluator = TopDownEvaluator(
            self.database, self.registry, max_steps=self.max_steps,
            ctx=self.ctx,
        )
        for _ in evaluator.solve(goals):
            return True, evaluator.counters
        return False, evaluator.counters

    def exists_bottom_up(self, query_source) -> Tuple[bool, Counters]:
        """Magic-sets + semi-naive with an early-exit stop condition.

        The stop condition is checked after *each* newly derived answer
        tuple (not once per fixpoint round), so the abort happens
        mid-join as soon as the witness lands.
        """
        goals = self._goals(query_source)
        query = goals[0]
        if len(goals) > 1:
            raise ValueError(
                "bottom-up existence checking takes a single goal; "
                "fold constraints into the program or use exists_top_down"
            )

        def witnessed(answers) -> bool:
            return any(
                unify_sequences(query.args, row) is not None for row in answers
            )

        magic_evaluator = MagicSetsEvaluator(
            self.database, self.registry, ctx=self.ctx
        )
        answers, counters, _ = magic_evaluator.evaluate(
            query, stop_condition=witnessed
        )
        return len(answers) > 0, counters

    def exists(self, query_source) -> bool:
        """Convenience: top-down first (handles functional programs and
        constraints); falls back to bottom-up on step-budget concerns
        is left to callers who know their workload."""
        found, _ = self.exists_top_down(query_source)
        return found

    # ------------------------------------------------------------------
    def _goals(self, query_source) -> List[Literal]:
        if isinstance(query_source, Literal):
            return [query_source]
        if isinstance(query_source, str):
            return parse_query(query_source)
        return list(query_source)
