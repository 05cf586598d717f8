"""The evaluation context: every evaluator's one instrumentation argument.

An :class:`EvalContext` carries the four things an evaluation can be
instrumented with — an event :class:`~repro.observe.Tracer`, a
:class:`~repro.profile.SpanProfiler`, a resource
:class:`~repro.resilience.Budget` and the serving layer's request id.
The session builds one per request and hands it to
:meth:`Planner.plan <repro.core.planner.Planner.plan>` /
:meth:`~repro.core.planner.Planner.execute`; the planner passes it to
the evaluator it picks, the evaluator to :func:`evaluate_body
<repro.engine.joins.evaluate_body>`, nested evaluators and the IVM
view builders.  Everything that takes a context defaults it to
:data:`DISABLED`, the shared context with nothing installed.

The disabled-path discipline, stated once
-----------------------------------------

Instrumentation changes what is *observed*, never what is *evaluated*:
answers and :class:`~repro.engine.counters.Counters` are bit-identical
under every context (``tests/test_context_parity.py`` pins the whole
matrix).  The checkpoints only read the counters, the spans only read
the clock, and the tracer hooks only receive values the evaluator
computed anyway.

Call sites are unconditional wherever the disabled cost is one no-op
method call — a few thousand per second of evaluation, against
millions of join steps:

* **spans** — ``token = ctx.begin(cat, name)`` … ``ctx.end(token,
  **meta)``; without a profiler the token is ``None`` and ``end``
  returns at once;
* **trace events** — ``ctx.tracer`` is always a ``Tracer`` (the
  protocol base class is the no-op), so ``ctx.tracer.round_start(...)``
  needs no guard; ``ctx.stage_counts(n)`` hands out the per-stage
  counter list ``evaluate_body`` fills, or ``None`` when nobody listens;
* **checkpoints** — ``ctx.check_round(n, counters)`` once per fixpoint
  round / chain level and ``ctx.check_tuple(counters)`` once per
  derived tuple do nothing without a budget.

Two tests remain.  ``ctx.recording`` (a tracer or profiler is
installed) gates work that is expensive merely to *prepare* for a
hook: ``str(rule)`` span names, sorted predicate lists, sums over
buffers.  And the per-substitution loop in ``evaluate_body`` hoists
``tick = ctx.tick`` (``None`` without a budget) and tests the local —
that loop runs once per join step, where even a no-op method call
would show.
"""

from __future__ import annotations

from typing import List, Optional

from ..observe.tracer import Tracer

__all__ = ["EvalContext", "DISABLED"]

_SILENT = Tracer()


class EvalContext:
    """Tracer, span profiler, budget and request id for one evaluation.

    ``recording`` and ``tick`` are derived from those four at
    construction and never change.
    """

    __slots__ = (
        "tracer", "profiler", "budget", "request_id", "recording", "tick",
    )

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        profiler=None,
        budget=None,
        request_id: Optional[str] = None,
    ):
        self.recording = tracer is not None or profiler is not None
        self.tracer = tracer if tracer is not None else _SILENT
        self.profiler = profiler
        self.budget = budget
        self.request_id = request_id
        #: ``budget.tick`` for hot loops to hoist; None without a budget.
        self.tick = budget.tick if budget is not None else None

    # -- spans ----------------------------------------------------------
    def begin(self, cat: str, name: str):
        """Open a profiler span; the token :meth:`end` expects."""
        profiler = self.profiler
        return profiler.begin(cat, name) if profiler is not None else None

    def end(self, token, **meta: object) -> None:
        """Close ``token`` (a no-op for the disabled ``None`` token).

        Like :meth:`SpanProfiler.end`, closing an outer token unwinds
        any inner span an exception or early exit left open.
        """
        if token is not None:
            self.profiler.end(token, **meta)

    # -- trace events ---------------------------------------------------
    def stage_counts(self, stages: int) -> Optional[List[int]]:
        """A zeroed ``stage_counts`` list for ``evaluate_body`` when a
        tracer will receive it, else ``None`` (nothing is counted)."""
        return [0] * stages if self.tracer is not _SILENT else None

    # -- checkpoints ----------------------------------------------------
    def check_round(self, rounds: int, counters=None) -> None:
        """Per-fixpoint-round / per-chain-level budget checkpoint."""
        budget = self.budget
        if budget is not None:
            budget.check_round(rounds, counters)

    def check_tuple(self, counters) -> None:
        """Per-derived-tuple budget checkpoint."""
        budget = self.budget
        if budget is not None:
            budget.check_tuple(counters)


#: The context with nothing installed — the default everywhere.
DISABLED = EvalContext()
