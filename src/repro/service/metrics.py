"""Per-query metrics for the serving layer.

The engine's :class:`~repro.engine.counters.Counters` measure *work*
inside one evaluation; a long-lived service additionally needs
*service-level* observability — request latency, cache effectiveness,
which strategies actually serve the traffic — aggregated across every
query a :class:`~repro.service.session.QuerySession` answers.
:class:`ServiceMetrics` collects both: it merges the per-run engine
counters and keeps its own latency/hit-rate aggregates, all behind one
lock so concurrent sessions and server threads can share an instance.

``snapshot()`` returns a plain JSON-serializable dict; the server's
``STATS`` verb is exactly that snapshot in a reply envelope.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from ..engine.counters import Counters

__all__ = ["LatencyStats", "LatencyHistogram", "ServiceMetrics"]


class LatencyStats:
    """Streaming min/mean/max over a series of durations (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def as_dict(self) -> Dict[str, float]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_ms": self.total * 1e3,
            "mean_ms": mean * 1e3,
            "min_ms": (self.min or 0.0) * 1e3,
            "max_ms": (self.max or 0.0) * 1e3,
        }


#: Log-spaced latency bucket upper bounds (seconds): 100µs … ~56s in
#: quarter-decade steps.  Fixed at construction, so memory is bounded
#: regardless of traffic — the Prometheus histogram contract.
DEFAULT_LATENCY_BOUNDS: Sequence[float] = tuple(
    1e-4 * (10 ** (i / 4)) for i in range(24)
)


class LatencyHistogram:
    """Bounded-bucket latency histogram with interpolated quantiles.

    :class:`LatencyStats` keeps min/mean/max, which hides tail
    behaviour entirely; this keeps a fixed set of log-spaced buckets
    (plus one overflow bucket) and estimates p50/p95/p99 by linear
    interpolation inside the bucket containing the target rank —
    exactly the estimate a Prometheus ``histogram_quantile`` over the
    exported buckets would compute.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.bounds = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.bounds):
                    # Overflow bucket has no upper bound: clamp to the
                    # largest finite bound.
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                into = (target - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * max(0.0, min(1.0, into))
        return self.bounds[-1]

    def as_dict(self) -> Dict[str, object]:
        cumulative = 0
        buckets = []
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets.append({"le": bound, "count": cumulative})
        # +Inf bucket: ``le`` is None because strict JSON has no
        # Infinity literal.
        buckets.append({"le": None, "count": self.count})
        return {
            "count": self.count,
            "sum_ms": self.total * 1e3,
            "p50_ms": self.quantile(0.50) * 1e3,
            "p95_ms": self.quantile(0.95) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
            "buckets": buckets,
        }


class ServiceMetrics:
    """Thread-safe aggregates over every query a session served."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries = 0
        self.errors = 0
        self.timeouts = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        #: Syncs that dropped cached results: every rule change, and
        #: every fact change that evicted at least one answer.
        self.result_invalidations = 0
        #: Plan-cache flushes (IDB mutation observed).
        self.plan_invalidations = 0
        #: Queries served per strategy name.
        self.strategy_histogram: Dict[str, int] = {}
        self.latency = LatencyStats()
        #: Latency of result-cache hits vs queries that evaluated.
        self.cached_latency = LatencyStats()
        self.evaluated_latency = LatencyStats()
        #: Bucketed latency distributions (p50/p95/p99), overall and
        #: for queries that actually evaluated.
        self.latency_histogram = LatencyHistogram()
        self.evaluated_latency_histogram = LatencyHistogram()
        #: Request latency per verb (QUERY/PLAN/FACT), so a flood of
        #: cheap FACT inserts cannot hide a QUERY tail — exported as
        #: one labelled Prometheus histogram family.
        self.verb_latency: Dict[str, LatencyHistogram] = {}
        #: Per-stage request lifecycle latency (read/queue/parse/
        #: admission/worker/eval/serialize/outbox/flush) fed by the
        #: flight recorder on commit — exported as one labelled
        #: ``repro_stage_latency_seconds`` family.
        self.stage_latency: Dict[str, LatencyHistogram] = {}
        #: Time heavy verbs waited for a free evaluator worker.
        self.worker_wait = LatencyHistogram()
        #: Queries that tripped the session's ``slow_query_ms``
        #: threshold and were retained in the slow-query log.
        self.slow_queries = 0
        #: Requests shed by admission control (``OVERLOADED`` replies).
        self.rejected = 0
        self.rejected_by_verb: Dict[str, int] = {}
        #: Evaluations aborted by a resource :class:`~repro.resilience.Budget`.
        self.budget_exceeded = 0
        #: Clients that vanished mid-request (write failed or the peer
        #: closed while the query was still running).
        self.disconnects = 0
        #: Subscribers dropped because their push backlog overflowed.
        self.push_dropped = 0
        #: Optional zero-arg callable returning the evaluator worker
        #: pool's gauge snapshot (size/queue depth/restarts); installed
        #: by the server the same way as :attr:`breaker_provider`.
        self.worker_provider = None
        #: Optional zero-arg callable returning event-loop gauges
        #: (loop lag, connection count, outbox depths); installed by
        #: :class:`~repro.service.eventloop.AsyncQueryServer`.
        self.eventloop_provider = None
        #: Optional zero-arg callable that folds the flight recorder's
        #: pending stage timelines into :attr:`stage_latency`; installed
        #: by the session so histogram feeding happens lazily at
        #: snapshot time instead of on the serving thread.
        self.stage_drain = None
        #: Optional zero-arg callable returning the circuit breaker's
        #: ``snapshot()``; the server installs it so STATS/metrics can
        #: surface breaker state without metrics importing the breaker.
        self.breaker_provider = None
        #: Incremental view maintenance (``repro.ivm``) aggregates.
        #: Cached results repaired in place instead of evicted:
        self.ivm_repairs = 0
        #: Cached results kept untouched (closure disjoint from the
        #: mutated relations — selective invalidation):
        self.ivm_results_kept = 0
        #: Tuples rederived after a DRed over-delete:
        self.ivm_rederivations = 0
        #: Views that fell back to a full recompute:
        self.ivm_recomputes = 0
        #: Maintenance runs folded into materializations:
        self.ivm_maintenance_runs = 0
        #: Maintenance runs that faulted (view went dirty):
        self.ivm_failures = 0
        #: Queries answered straight from a materialized view:
        self.ivm_view_serves = 0
        #: Optional zero-arg callable returning the current number of
        #: active subscriptions (installed by the server, same pattern
        #: as :attr:`breaker_provider`).
        self.subscriber_provider = None
        #: Engine work counters summed over all evaluated queries.
        self.engine_counters = Counters()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_query(
        self,
        strategy: str,
        seconds: float,
        plan_cached: bool,
        result_cached: bool,
        counters: Optional[Counters] = None,
    ) -> None:
        """Account one successfully answered query."""
        with self._lock:
            self.queries += 1
            self.strategy_histogram[strategy] = (
                self.strategy_histogram.get(strategy, 0) + 1
            )
            self.latency.record(seconds)
            self.latency_histogram.record(seconds)
            if result_cached:
                self.result_cache_hits += 1
                self.cached_latency.record(seconds)
            else:
                self.result_cache_misses += 1
                self.evaluated_latency.record(seconds)
                self.evaluated_latency_histogram.record(seconds)
                if plan_cached:
                    self.plan_cache_hits += 1
                else:
                    self.plan_cache_misses += 1
                if counters is not None:
                    self.engine_counters.merge(counters)

    def record_verb(self, verb: str, seconds: float) -> None:
        """Account one request's latency under its verb label."""
        with self._lock:
            hist = self.verb_latency.get(verb)
            if hist is None:
                hist = self.verb_latency[verb] = LatencyHistogram()
            hist.record(seconds)

    def record_slow_query(self) -> None:
        with self._lock:
            self.slow_queries += 1

    def record_stage(self, stage: str, seconds: float) -> None:
        """Account one lifecycle stage duration under its label."""
        with self._lock:
            hist = self.stage_latency.get(stage)
            if hist is None:
                hist = self.stage_latency[stage] = LatencyHistogram()
            hist.record(seconds)

    def record_stages_ns(self, durations_ns: Dict[str, int]) -> None:
        """Account one request's whole stage timeline (values in
        nanoseconds) under one lock acquisition — the flight recorder
        commits 6-9 stages per request, and a lock round-trip plus a
        unit-conversion dict for each would tax the serving path."""
        with self._lock:
            for stage, ns in durations_ns.items():
                hist = self.stage_latency.get(stage)
                if hist is None:
                    hist = self.stage_latency[stage] = LatencyHistogram()
                hist.record(ns / 1e9)

    def record_worker_wait(self, seconds: float) -> None:
        """Account one wait for a free evaluator worker."""
        with self._lock:
            self.worker_wait.record(seconds)

    def record_plan(self, cached: bool) -> None:
        """Account a plan-only request (``PLAN`` verb, ``:plan``)."""
        with self._lock:
            if cached:
                self.plan_cache_hits += 1
            else:
                self.plan_cache_misses += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1
            self.errors += 1

    def record_rejected(self, verb: str) -> None:
        """Account one request shed by admission control."""
        with self._lock:
            self.rejected += 1
            self.rejected_by_verb[verb] = self.rejected_by_verb.get(verb, 0) + 1

    def record_budget_exceeded(self) -> None:
        with self._lock:
            self.budget_exceeded += 1

    def record_disconnect(self) -> None:
        with self._lock:
            self.disconnects += 1

    def record_push_dropped(self) -> None:
        """Account one subscriber dropped from the push channel."""
        with self._lock:
            self.push_dropped += 1

    def record_invalidation(self, plans: bool) -> None:
        with self._lock:
            self.result_invalidations += 1
            if plans:
                self.plan_invalidations += 1

    def record_ivm_sync(self, kept: int, repaired: int) -> None:
        """Account one selective cache sync: entries kept vs repaired."""
        with self._lock:
            self.ivm_results_kept += kept
            self.ivm_repairs += repaired

    def record_ivm_maintenance(
        self,
        rederivations: int = 0,
        recomputed: bool = False,
        failed: bool = False,
    ) -> None:
        """Account one maintenance run folded into a materialization."""
        with self._lock:
            self.ivm_maintenance_runs += 1
            self.ivm_rederivations += rederivations
            if recomputed:
                self.ivm_recomputes += 1
            if failed:
                self.ivm_failures += 1

    def record_ivm_recompute(self) -> None:
        with self._lock:
            self.ivm_recomputes += 1

    def record_view_serve(self) -> None:
        with self._lock:
            self.ivm_view_serves += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of every aggregate."""
        # Breaker state is owned by the server's CircuitBreaker (its own
        # lock); call the provider outside ours to avoid nesting locks.
        # Same for the subscription registry.
        provider = self.breaker_provider
        breaker = provider() if provider is not None else None
        sub_provider = self.subscriber_provider
        subscribers = sub_provider() if sub_provider is not None else None
        worker_provider = self.worker_provider
        workers = worker_provider() if worker_provider is not None else None
        loop_provider = self.eventloop_provider
        eventloop = loop_provider() if loop_provider is not None else None
        # Catch the stage histograms up with the flight recorder's
        # pending commits (record_stages_ns takes our lock itself, so
        # drain before entering it).
        drain = self.stage_drain
        if drain is not None:
            drain()
        with self._lock:
            snap = {
                "queries": self.queries,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "plan_cache": {
                    "hits": self.plan_cache_hits,
                    "misses": self.plan_cache_misses,
                    "invalidations": self.plan_invalidations,
                },
                "result_cache": {
                    "hits": self.result_cache_hits,
                    "misses": self.result_cache_misses,
                    "invalidations": self.result_invalidations,
                },
                "strategies": dict(self.strategy_histogram),
                "latency": self.latency.as_dict(),
                "cached_latency": self.cached_latency.as_dict(),
                "evaluated_latency": self.evaluated_latency.as_dict(),
                "latency_histogram": self.latency_histogram.as_dict(),
                "evaluated_latency_histogram": (
                    self.evaluated_latency_histogram.as_dict()
                ),
                "verb_latency": {
                    verb: hist.as_dict()
                    for verb, hist in sorted(self.verb_latency.items())
                },
                "stage_latency": {
                    stage: hist.as_dict()
                    for stage, hist in sorted(self.stage_latency.items())
                },
                "worker_wait_histogram": self.worker_wait.as_dict(),
                "slow_queries": self.slow_queries,
                "rejected": self.rejected,
                "rejected_by_verb": dict(self.rejected_by_verb),
                "budget_exceeded": self.budget_exceeded,
                "disconnects": self.disconnects,
                "push_dropped": self.push_dropped,
                "ivm": {
                    "repairs": self.ivm_repairs,
                    "results_kept": self.ivm_results_kept,
                    "rederivations": self.ivm_rederivations,
                    "recomputes": self.ivm_recomputes,
                    "maintenance_runs": self.ivm_maintenance_runs,
                    "failures": self.ivm_failures,
                    "view_serves": self.ivm_view_serves,
                },
                "engine": self.engine_counters.as_dict(),
            }
        if breaker is not None:
            snap["breaker"] = breaker
        if subscribers is not None:
            snap["subscribers"] = subscribers
        if workers is not None:
            snap["workers"] = workers
        if eventloop is not None:
            snap["eventloop"] = eventloop
        return snap

    def reset(self) -> None:
        with self._lock:
            self.queries = self.errors = self.timeouts = 0
            self.plan_cache_hits = self.plan_cache_misses = 0
            self.result_cache_hits = self.result_cache_misses = 0
            self.result_invalidations = self.plan_invalidations = 0
            self.strategy_histogram = {}
            self.latency = LatencyStats()
            self.cached_latency = LatencyStats()
            self.evaluated_latency = LatencyStats()
            self.latency_histogram = LatencyHistogram()
            self.evaluated_latency_histogram = LatencyHistogram()
            self.verb_latency = {}
            self.stage_latency = {}
            self.worker_wait = LatencyHistogram()
            self.slow_queries = 0
            self.rejected = 0
            self.rejected_by_verb = {}
            self.budget_exceeded = 0
            self.disconnects = 0
            self.push_dropped = 0
            self.ivm_repairs = self.ivm_results_kept = 0
            self.ivm_rederivations = self.ivm_recomputes = 0
            self.ivm_maintenance_runs = self.ivm_failures = 0
            self.ivm_view_serves = 0
            self.engine_counters = Counters()

    def __repr__(self) -> str:
        # Counter reads must hold the lock too: on implementations
        # without a GIL-serialized int read this could otherwise tear
        # against a concurrent record_query.
        with self._lock:
            return (
                f"ServiceMetrics({self.queries} queries, "
                f"{self.result_cache_hits} result hits, "
                f"{self.plan_cache_hits} plan hits)"
            )
