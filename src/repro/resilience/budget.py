"""Per-query resource budgets with cooperative checkpoints.

A mis-split chain (the merged-parents cross product in ``scsg``, an
unsafe ``append`` chain) can blow up evaluation by orders of magnitude;
the only historical guard was a coarse wall-clock timeout that left the
evaluator thread spinning.  A :class:`Budget` turns those blowups into
a catchable :class:`BudgetExceeded` raised *from inside* the evaluation
loop, carrying the partial work counters, so the worker thread unwinds
cleanly and releases whatever locks it holds.

Evaluators reach the checkpoints through their
:class:`~repro.engine.context.EvalContext` (which states the
disabled-path discipline).  The checks only *read* the engine's
:class:`~repro.engine.counters.Counters`, so a no-op budget (no limits
set) is bit-identical to no budget at all.

Checkpoint vocabulary (one per granularity of engine work):

``tick(counters)``
    Once per substitution popped off the streaming join stack (and per
    SLD resolution step top-down).  Checks cancellation and the live
    substitution ceiling every call; samples the deadline / memory
    ceiling one call in :data:`_CLOCK_SAMPLE`.
``check_tuple(counters)``
    After each newly derived tuple.  Enforces ``max_tuples`` exactly,
    so the raise happens at ``ceiling + 1`` derived tuples — well under
    the "< 2x ceiling" bound the acceptance criteria demand.
``check_round(rounds, counters)``
    Once per semi-naive fixpoint round or chain descent level (and per
    sampled batch of SLD steps).  Enforces ``max_rounds`` plus the
    clocked limits.

Cancellation (:meth:`Budget.cancel`) is a plain attribute write — safe
from any thread under the GIL — observed at every checkpoint.  The
server uses it to abort queries whose client timed out or vanished.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, Optional

__all__ = ["Budget", "BudgetExceeded"]


class BudgetExceeded(RuntimeError):
    """A resource budget ran out, or the query was cancelled.

    Constructor-compatible with the historical single-message step
    budget raise (``BudgetExceeded("exceeded N resolution steps")``);
    the keyword fields carry the structured context a serving layer
    needs: which limit tripped (``reason``), the configured ``limit``,
    the ``observed`` value, a snapshot of the partial work ``counters``
    and the ``elapsed`` wall-clock seconds.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: Optional[str] = None,
        limit: Optional[float] = None,
        observed: Optional[float] = None,
        counters: Optional[Dict[str, Any]] = None,
        elapsed: Optional[float] = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.limit = limit
        self.observed = observed
        self.counters = counters
        self.elapsed = elapsed

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering for error envelopes and logs."""
        return {
            "message": str(self),
            "reason": self.reason,
            "limit": self.limit,
            "observed": self.observed,
            "counters": self.counters,
            "elapsed_s": self.elapsed,
        }


# Monotonic-clock / tracemalloc reads are sampled one call in N on the
# per-substitution paths; exact limits (tuples, rounds, live subs,
# cancellation) are checked every call.
_CLOCK_SAMPLE = 256


class Budget:
    """Resource ceilings for one query evaluation.

    All limits default to ``None`` (unlimited); a limitless budget is
    still useful as a cancellation handle.  ``max_memory_bytes`` is
    best-effort: it is only enforced while :mod:`tracemalloc` is
    tracing (e.g. under a memory-profiling run), because Python offers
    no cheap per-thread allocation counter.

    Budgets are single-use: a server holds a *template* and calls
    :meth:`fork` per request, which restarts the clock and clears any
    cancellation.
    """

    __slots__ = (
        "max_tuples",
        "max_live",
        "max_rounds",
        "timeout",
        "max_memory_bytes",
        "started_at",
        "deadline",
        "cancelled",
        "cancel_reason",
        "request_id",
        "_ticks",
    )

    def __init__(
        self,
        max_tuples: Optional[int] = None,
        max_live: Optional[int] = None,
        max_rounds: Optional[int] = None,
        timeout: Optional[float] = None,
        max_memory_bytes: Optional[int] = None,
    ):
        self.max_tuples = max_tuples
        self.max_live = max_live
        self.max_rounds = max_rounds
        self.timeout = timeout
        self.max_memory_bytes = max_memory_bytes
        # Correlation only — set by the serving layer so evaluation
        # artifacts (slowlog entries, worker envelopes) can be joined
        # back to the request lifecycle record.  Budget logic never
        # reads it, and fork() deliberately does not inherit it.
        self.request_id: Optional[str] = None
        self.start()

    # ------------------------------------------------------------------
    def start(self) -> "Budget":
        """(Re)start the clock and clear any cancellation."""
        self.started_at = time.monotonic()
        self.deadline = (
            None if self.timeout is None else self.started_at + self.timeout
        )
        self.cancelled = False
        self.cancel_reason = None
        self._ticks = 0
        return self

    def fork(self) -> "Budget":
        """A fresh budget with the same limits and a restarted clock."""
        return Budget(
            max_tuples=self.max_tuples,
            max_live=self.max_live,
            max_rounds=self.max_rounds,
            timeout=self.timeout,
            max_memory_bytes=self.max_memory_bytes,
        )

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative abort; observed at the next checkpoint.

        Safe to call from any thread: the write is atomic under the
        GIL and the flag is only ever flipped one way.
        """
        self.cancel_reason = reason
        self.cancelled = True

    def limits(self) -> Dict[str, Optional[float]]:
        """The configured ceilings (for envelopes and ``--help``)."""
        return {
            "max_tuples": self.max_tuples,
            "max_live": self.max_live,
            "max_rounds": self.max_rounds,
            "timeout_s": self.timeout,
            "max_memory_bytes": self.max_memory_bytes,
        }

    # -- checkpoints ----------------------------------------------------
    def tick(self, counters=None) -> None:
        """Per-substitution checkpoint (streaming joins, SLD steps)."""
        if self.cancelled:
            self._trip("cancelled", None, None, counters)
        max_live = self.max_live
        if (
            max_live is not None
            and counters is not None
            and counters.peak_intermediate > max_live
        ):
            self._trip(
                "live_substitutions", max_live, counters.peak_intermediate,
                counters,
            )
        self._ticks += 1
        if self._ticks % _CLOCK_SAMPLE == 0:
            self._check_clocked(counters)

    def check_tuple(self, counters) -> None:
        """Per-derived-tuple checkpoint."""
        if self.cancelled:
            self._trip("cancelled", None, None, counters)
        max_tuples = self.max_tuples
        if max_tuples is not None and counters.derived_tuples > max_tuples:
            self._trip("tuples", max_tuples, counters.derived_tuples, counters)
        self._ticks += 1
        if self._ticks % _CLOCK_SAMPLE == 0:
            self._check_clocked(counters)

    def check_round(self, rounds: int, counters=None) -> None:
        """Per-fixpoint-round / per-chain-level checkpoint."""
        if self.cancelled:
            self._trip("cancelled", None, None, counters)
        max_rounds = self.max_rounds
        if max_rounds is not None and rounds > max_rounds:
            self._trip("rounds", max_rounds, rounds, counters)
        self._check_clocked(counters)

    # ------------------------------------------------------------------
    def _check_clocked(self, counters) -> None:
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            self._trip(
                "deadline", self.timeout,
                time.monotonic() - self.started_at, counters,
            )
        ceiling = self.max_memory_bytes
        if ceiling is not None and tracemalloc.is_tracing():
            current, _peak = tracemalloc.get_traced_memory()
            if current > ceiling:
                self._trip("memory", ceiling, current, counters)

    def _trip(self, reason, limit, observed, counters) -> None:
        elapsed = time.monotonic() - self.started_at
        snapshot = counters.as_dict() if counters is not None else None
        if reason == "cancelled":
            message = f"query cancelled ({self.cancel_reason})"
        elif reason == "deadline":
            message = f"budget exceeded: deadline of {limit}s passed"
        else:
            message = f"budget exceeded: {reason} {observed} > {limit}"
        raise BudgetExceeded(
            message,
            reason=reason,
            limit=limit,
            observed=observed,
            counters=snapshot,
            elapsed=elapsed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"{key}={value}"
            for key, value in self.limits().items()
            if value is not None
        ]
        if self.cancelled:
            parts.append(f"cancelled={self.cancel_reason!r}")
        return f"Budget({', '.join(parts)})"
