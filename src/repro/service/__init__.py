"""repro.service — the concurrent query-serving layer.

Turns the one-shot library into a compile-once/serve-many system:
:class:`QuerySession` owns a shared
:class:`~repro.core.planner.Planner` plus plan and result caches with
version-counter invalidation; :mod:`repro.service.protocol` defines
the TCP line protocol (``QUERY``/``PLAN``/``FACT``/``STATS``/...)
once; :class:`AsyncQueryServer` serves it from a ``selectors`` event
loop that dispatches heavy verbs to a :class:`WorkerPool` of forked
evaluator processes; :class:`ServiceMetrics` aggregates per-query latency, cache hit rates
and strategy usage.  See ``docs/service.md``.
"""

from .metrics import LatencyStats, ServiceMetrics
from .session import QueryResult, QuerySession
from .eventloop import AsyncQueryServer
from .workers import WorkerPool, fork_available

__all__ = [
    "AsyncQueryServer",
    "LatencyStats",
    "QueryResult",
    "QuerySession",
    "ServiceMetrics",
    "WorkerPool",
    "fork_available",
]
