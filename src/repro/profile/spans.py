"""The span profiler: wall-clock (and optional allocation) attribution.

PR 3's tracer answers *what happened* in tuples — deltas, probes,
expansion ratios.  This module answers *where the time went*: a
:class:`SpanProfiler` records **spans** — named, nested intervals
timed with :func:`time.perf_counter_ns` — around every fixpoint round,
per-rule body evaluation, chain-evaluation phase and planner phase.
Evaluators reach it through ``ctx.begin`` / ``ctx.end`` on their
:class:`~repro.engine.context.EvalContext` (which states the
disabled-path discipline).  An enabled profiler records into a bounded
in-memory buffer behind a lock, with per-thread open-span stacks so
server threads nest independently.

Span categories (the ``cat`` field):

==========  ==========================================================
``evaluate``  one evaluator run (``semi_naive``, ``buffered_chain``,
              ``counting``, ``partial_chain``, ``nested_chain``,
              ``top_down``)
``round``     one semi-naive fixpoint round
``rule``      one rule-variant body evaluation (meta: slot, derived,
              duplicates)
``stage``     one evaluation phase: a down/descent level, the exit
              phase, the up phase, SLD resolution, an IVM view
              (re)build (``ivm_refresh``)
``plan``      a planner phase (strategy selection, magic rewrite)
``query``     the service layer's whole-request span
==========  ==========================================================

With ``memory=True`` the profiler samples :mod:`tracemalloc` at span
boundaries and records the *net* allocation delta per span
(``alloc_bytes``; negative when the span freed more than it
allocated).  Memory sampling is markedly more expensive than timing —
it is opt-in per profiler, never ambient.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "SpanProfiler"]


@dataclass
class Span:
    """One closed interval of attributed work."""

    #: Monotone id, assigned when the span *closes* (children close
    #: before parents, so ids are a valid bottom-up traversal order).
    seq: int
    cat: str
    name: str
    #: Start, relative to the profiler's construction (ns).
    start_ns: int
    duration_ns: int
    #: Nesting depth within this thread's span stack (0 = root).
    depth: int
    #: ``seq`` of the enclosing span, or None for a root span.  Filled
    #: when the parent closes — readers should resolve it lazily.
    parent: Optional[int]
    thread: int
    #: Net tracemalloc delta over the span; None without memory sampling.
    alloc_bytes: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "cat": self.cat,
            "name": self.name,
            "start_us": self.start_ns / 1e3,
            "duration_us": self.duration_ns / 1e3,
            "depth": self.depth,
            "parent": self.parent,
            "thread": self.thread,
        }
        if self.alloc_bytes is not None:
            out["alloc_bytes"] = self.alloc_bytes
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


class _OpenSpan:
    """A begun-but-not-ended span on a thread's stack."""

    __slots__ = ("cat", "name", "start_ns", "start_alloc", "children")

    def __init__(self, cat: str, name: str, start_ns: int, start_alloc):
        self.cat = cat
        self.name = name
        self.start_ns = start_ns
        self.start_alloc = start_alloc
        #: Closed direct children, waiting for their parent link.
        self.children: List[Span] = []


class SpanProfiler:
    """Record nested timing spans with near-zero per-span cost.

    Usage (the evaluators use explicit begin/end so early exits can
    close spans in ``finally`` blocks)::

        profiler = SpanProfiler()
        token = profiler.begin("round", "round 1")
        ...
        profiler.end(token, derived=42)

    ``capacity`` bounds memory: when the buffer is full, further
    *closed* spans are counted in :attr:`dropped` instead of stored
    (newest-dropped, unlike the tracer's ring — a profile without its
    roots is unreadable, a truncated tail is).  ``memory=True`` turns
    on tracemalloc sampling; if tracemalloc was not already tracing,
    the profiler starts it and :meth:`close` stops it again.
    """

    def __init__(self, capacity: int = 100_000, memory: bool = False):
        if capacity < 1:
            raise ValueError("profiler capacity must be positive")
        self.capacity = capacity
        self.memory = memory
        self.dropped = 0
        self._spans: List[Span] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin_ns = time.perf_counter_ns()
        #: Wall-clock epoch of construction (chrome traces and slowlog
        #: entries want an absolute anchor next to the relative spans).
        self.started_at = time.time()
        self._owns_tracemalloc = False
        if memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, cat: str, name: str) -> _OpenSpan:
        """Open a span; returns the token :meth:`end` expects."""
        alloc = None
        if self.memory:
            import tracemalloc

            alloc = tracemalloc.get_traced_memory()[0]
        token = _OpenSpan(
            cat, name, time.perf_counter_ns() - self._origin_ns, alloc
        )
        self._stack().append(token)
        return token

    def end(self, token: _OpenSpan, **meta: object) -> Optional[Span]:
        """Close the span ``token``; ``meta`` lands on the span.

        Spans must close innermost-first per thread; closing a token
        that is not the top of this thread's stack unwinds (and closes)
        everything above it, so an exception path that skips inner
        ``end`` calls still yields a consistent profile.
        """
        end_ns = time.perf_counter_ns() - self._origin_ns
        alloc_delta = None
        if self.memory:
            import tracemalloc

            current = tracemalloc.get_traced_memory()[0]
            if token.start_alloc is not None:
                alloc_delta = current - token.start_alloc
        stack = self._stack()
        if token not in stack:
            return None  # already closed by an unwind
        while stack and stack[-1] is not token:
            self._close(stack, stack[-1], end_ns, None)
        return self._close(stack, token, end_ns, alloc_delta, meta)

    def _close(
        self,
        stack: List[_OpenSpan],
        token: _OpenSpan,
        end_ns: int,
        alloc_delta: Optional[int],
        meta: Optional[Dict[str, object]] = None,
    ) -> Optional[Span]:
        stack.pop()
        depth = len(stack)
        with self._lock:
            self._seq += 1
            seq = self._seq
            span = Span(
                seq=seq,
                cat=token.cat,
                name=token.name,
                start_ns=token.start_ns,
                duration_ns=end_ns - token.start_ns,
                depth=depth,
                parent=None,
                thread=threading.get_ident(),
                alloc_bytes=alloc_delta,
                meta=dict(meta) if meta else {},
            )
            if len(self._spans) < self.capacity:
                self._spans.append(span)
                recorded = True
            else:
                self.dropped += 1
                recorded = False
        for child in token.children:
            child.parent = seq
        if stack:
            stack[-1].children.append(span)
        return span if recorded else None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self, cat: Optional[str] = None) -> List[Span]:
        """Closed spans (in closing order); optionally one category."""
        with self._lock:
            snapshot = list(self._spans)
        if cat is None:
            return snapshot
        return [s for s in snapshot if s.cat == cat]

    def __len__(self) -> int:
        return len(self._spans)

    def total_ns(self) -> int:
        """Measured wall time: the summed duration of root spans."""
        return sum(s.duration_ns for s in self.spans() if s.parent is None)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "memory": self.memory,
            "started_at": self.started_at,
            "spans": [s.as_dict() for s in self.spans()],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release resources: stops tracemalloc if this profiler
        started it.  Idempotent; reading remains valid afterwards."""
        if self._owns_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._owns_tracemalloc = False

    def __enter__(self) -> "SpanProfiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
