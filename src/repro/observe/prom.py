"""Render a metrics snapshot in Prometheus text exposition format.

:func:`prometheus_text` turns the dict produced by
:meth:`~repro.service.session.QuerySession.stats` (i.e. a
:meth:`~repro.service.metrics.ServiceMetrics.snapshot` plus cache and
database gauges) into the text format (version 0.0.4) that Prometheus
and every compatible scraper understand: ``# HELP``/``# TYPE`` headers,
cumulative ``_bucket{le=...}`` series with a ``+Inf`` bucket and
``_sum``/``_count``, and ``quantile``-labelled gauges for the
interpolated p50/p95/p99.

No Prometheus client library is involved — the format is line-oriented
and this module emits it directly, so the service keeps its
zero-dependency footprint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["prometheus_text"]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value) -> str:
    if value is None:
        return "+Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Writer:
    def __init__(self, namespace: str):
        self.namespace = namespace
        self.lines: List[str] = []

    def header(self, name: str, help_text: str, kind: str) -> str:
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(
        self, full_name: str, value, labels: Optional[Dict[str, str]] = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
            )
            self.lines.append(f"{full_name}{{{rendered}}} {_fmt(value)}")
        else:
            self.lines.append(f"{full_name} {_fmt(value)}")

    def counter(
        self, name: str, help_text: str, value, labels=None
    ) -> None:
        full = self.header(name, help_text, "counter")
        self.sample(full, value, labels)

    def gauge(self, name: str, help_text: str, value, labels=None) -> None:
        full = self.header(name, help_text, "gauge")
        self.sample(full, value, labels)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _histogram_family(
    writer: _Writer,
    name: str,
    help_text: str,
    series: List[Tuple[Optional[Dict[str, str]], Dict[str, object]]],
) -> None:
    """A histogram family (cumulative le-buckets + _sum/_count per
    labelled series, grouped under one header) followed by one gauge
    family of interpolated quantiles under ``<name>_quantile``.

    ``series`` pairs a label dict (or None for an unlabelled single
    series) with a :meth:`LatencyHistogram.as_dict` snapshot.  All
    samples of each family stay contiguous, as the exposition format
    requires.
    """
    full = writer.header(name, help_text, "histogram")
    for labels, hist in series:
        base = dict(labels) if labels else {}
        for bucket in hist["buckets"]:
            writer.sample(
                f"{full}_bucket",
                bucket["count"],
                {**base, "le": _fmt(bucket["le"])},
            )
        writer.sample(f"{full}_sum", float(hist["sum_ms"]) / 1e3, labels)
        writer.sample(f"{full}_count", hist["count"], labels)
    quantile_full = writer.header(
        f"{name.rsplit('_seconds', 1)[0]}_quantile_seconds",
        f"{help_text} (interpolated quantiles)",
        "gauge",
    )
    for labels, hist in series:
        base = dict(labels) if labels else {}
        for q, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms")):
            writer.sample(
                quantile_full, float(hist[key]) / 1e3, {**base, "quantile": q}
            )


def _histogram(
    writer: _Writer, name: str, help_text: str, hist: Dict[str, object]
) -> None:
    """One unlabelled histogram + its quantile gauges."""
    _histogram_family(writer, name, help_text, [(None, hist)])


def prometheus_text(stats: Dict[str, object], namespace: str = "repro") -> str:
    """The metrics snapshot as a Prometheus text-format page."""
    w = _Writer(namespace)
    w.counter("queries_total", "Queries answered.", stats.get("queries", 0))
    w.counter("errors_total", "Requests that raised an error.", stats.get("errors", 0))
    w.counter(
        "timeouts_total", "Requests aborted by the timeout.", stats.get("timeouts", 0)
    )

    full = w.header(
        "cache_events_total", "Cache hits/misses/invalidations by cache.", "counter"
    )
    for cache in ("plan_cache", "result_cache"):
        entry = stats.get(cache) or {}
        short = cache.rsplit("_", 1)[0]
        for event in ("hits", "misses", "invalidations"):
            w.sample(
                full, entry.get(event, 0), {"cache": short, "event": event}
            )

    strategies = stats.get("strategies") or {}
    if strategies:
        full = w.header(
            "queries_by_strategy_total", "Queries answered per strategy.", "counter"
        )
        for strategy, count in sorted(strategies.items()):
            w.sample(full, count, {"strategy": strategy})

    hist = stats.get("latency_histogram")
    if hist:
        _histogram(
            w, "query_latency_seconds", "Latency of every answered query.", hist
        )
    hist = stats.get("evaluated_latency_histogram")
    if hist:
        _histogram(
            w,
            "evaluated_query_latency_seconds",
            "Latency of queries that missed the result cache and evaluated.",
            hist,
        )
    verb_latency = stats.get("verb_latency") or {}
    if verb_latency:
        _histogram_family(
            w,
            "request_latency_seconds",
            "Request latency per verb (QUERY/PLAN/FACT).",
            [
                ({"verb": verb}, hist)
                for verb, hist in sorted(verb_latency.items())
            ],
        )
    stage_latency = stats.get("stage_latency") or {}
    if stage_latency:
        _histogram_family(
            w,
            "stage_latency_seconds",
            "Per-request lifecycle stage latency "
            "(read/queue/parse/admission/worker/eval/serialize/outbox/flush).",
            [
                ({"stage": stage}, hist)
                for stage, hist in sorted(stage_latency.items())
            ],
        )
    worker_wait = stats.get("worker_wait_histogram")
    if worker_wait and worker_wait.get("count"):
        _histogram(
            w,
            "worker_acquire_wait_seconds",
            "Time heavy verbs waited for a free evaluator worker.",
            worker_wait,
        )
    if "slow_queries" in stats:
        w.counter(
            "slow_queries_total",
            "Queries that exceeded the slow_query_ms threshold.",
            stats.get("slow_queries", 0),
        )

    # Resilience counters: guarded so snapshots from older sessions
    # (or hand-built dicts in tests) still render.
    if "rejected" in stats:
        full = w.header(
            "rejected_total",
            "Requests shed by admission control (OVERLOADED replies).",
            "counter",
        )
        w.sample(full, stats.get("rejected", 0))
        by_verb = stats.get("rejected_by_verb") or {}
        if by_verb:
            full = w.header(
                "rejected_by_verb_total",
                "Requests shed by admission control, per verb.",
                "counter",
            )
            for verb, count in sorted(by_verb.items()):
                w.sample(full, count, {"verb": verb})
    if "budget_exceeded" in stats:
        w.counter(
            "budget_exceeded_total",
            "Evaluations aborted by a resource budget.",
            stats.get("budget_exceeded", 0),
        )
    if "disconnects" in stats:
        w.counter(
            "disconnects_total",
            "Clients that vanished mid-request.",
            stats.get("disconnects", 0),
        )
    breaker = stats.get("breaker") or {}
    if breaker:
        full = w.header(
            "breaker_keys",
            "Plan-cache keys tracked by the circuit breaker, per state.",
            "gauge",
        )
        for state in ("closed", "open", "half_open"):
            w.sample(full, breaker.get(state, 0), {"state": state})
        w.counter(
            "breaker_trips_total",
            "Circuit-breaker transitions into the open state.",
            breaker.get("trips", 0),
        )

    ivm = stats.get("ivm") or {}
    if ivm:
        w.counter(
            "ivm_repairs_total",
            "Cached results repaired in place after a mutation.",
            ivm.get("repairs", 0),
        )
        w.counter(
            "ivm_results_kept_total",
            "Cached results kept untouched because the mutation did not "
            "reach their closure.",
            ivm.get("results_kept", 0),
        )
        w.counter(
            "ivm_rederivations_total",
            "Over-deleted tuples rederived during DRed maintenance.",
            ivm.get("rederivations", 0),
        )
        w.counter(
            "ivm_recomputes_total",
            "Materializations rebuilt from scratch instead of maintained.",
            ivm.get("recomputes", 0),
        )
        w.counter(
            "ivm_maintenance_runs_total",
            "Mutation batches folded into materialized views.",
            ivm.get("maintenance_runs", 0),
        )
        w.counter(
            "ivm_failures_total",
            "Maintenance runs that failed and marked the view dirty.",
            ivm.get("failures", 0),
        )
        w.counter(
            "ivm_view_serves_total",
            "Queries answered straight from a materialized view.",
            ivm.get("view_serves", 0),
        )
    if "subscribers" in stats:
        w.gauge(
            "subscribers",
            "Live SUBSCRIBE registrations across connections.",
            stats.get("subscribers", 0),
        )
    if "push_dropped" in stats:
        w.counter(
            "push_dropped_total",
            "Subscribers dropped for overflowing their push backlog.",
            stats.get("push_dropped", 0),
        )

    workers = stats.get("workers") or {}
    if workers:
        w.gauge(
            "workers",
            "Evaluator worker processes in the pool.",
            workers.get("workers", 0),
        )
        w.gauge(
            "worker_queue_depth",
            "Heavy requests waiting for a free evaluator worker.",
            workers.get("queue_depth", 0),
        )
        w.counter(
            "worker_restarts_total",
            "Evaluator workers killed and respawned after dying or "
            "ignoring a cancellation.",
            workers.get("restarts", 0),
        )
        w.counter(
            "worker_refreshes_total",
            "Pool re-forks triggered by database snapshot drift.",
            workers.get("refreshes", 0),
        )
        w.counter(
            "worker_dispatches_total",
            "Heavy requests dispatched to evaluator workers.",
            workers.get("dispatches", 0),
        )
        if "alive" in workers:
            w.gauge(
                "workers_alive",
                "Evaluator workers whose process is currently alive.",
                workers.get("alive", 0),
            )
        if workers.get("last_restart_age_s") is not None:
            w.gauge(
                "worker_last_restart_age_seconds",
                "Seconds since the most recent worker respawn.",
                workers.get("last_restart_age_s", 0),
            )

    eventloop = stats.get("eventloop") or {}
    if eventloop:
        w.gauge(
            "eventloop_lag_seconds",
            "Duration of the event loop's most recent processing pass "
            "(readiness handling + dispatch between selector waits).",
            eventloop.get("lag_s", 0.0),
        )
        w.gauge(
            "connections",
            "Open client connections on the event loop.",
            eventloop.get("connections", 0),
        )
        w.gauge(
            "outbox_bytes",
            "Bytes buffered across every connection outbox.",
            eventloop.get("outbox_bytes", 0),
        )
        w.gauge(
            "outbox_max_bytes",
            "Largest single-connection outbox backlog.",
            eventloop.get("outbox_max_bytes", 0),
        )

    engine = stats.get("engine") or {}
    if engine:
        full = w.header(
            "engine_work_total",
            "Engine work counters summed over evaluated queries.",
            "counter",
        )
        for counter, value in sorted(engine.items()):
            w.sample(full, value, {"counter": counter})

    caches = stats.get("caches") or {}
    if caches:
        full = w.header("cache_entries", "Live entries per cache.", "gauge")
        for cache, size in sorted(caches.items()):
            w.sample(full, size, {"cache": cache.rsplit("_", 1)[0]})

    database = stats.get("database") or {}
    if database:
        w.gauge("database_facts", "Stored EDB facts.", database.get("facts", 0))
        w.gauge("database_rules", "IDB rules.", database.get("rules", 0))
        w.gauge(
            "database_relations",
            "Stored relations.",
            database.get("relations", 0),
        )
        full = w.header(
            "database_version", "EDB/IDB mutation version counters.", "counter"
        )
        w.sample(full, database.get("edb_version", 0), {"kind": "edb"})
        w.sample(full, database.get("idb_version", 0), {"kind": "idb"})

    persist = stats.get("persist") or {}
    if persist:
        wal = persist.get("wal") or {}
        if wal:
            w.counter(
                "wal_records_total",
                "Mutation records appended to the write-ahead log.",
                wal.get("records", 0),
            )
            w.counter(
                "wal_bytes_total",
                "Bytes appended to the write-ahead log.",
                wal.get("bytes", 0),
            )
            w.counter(
                "wal_fsyncs_total",
                "fsync calls issued by the write-ahead log.",
                wal.get("fsyncs", 0),
            )
            w.counter(
                "wal_rotations_total",
                "WAL segment files opened (rotations plus the first).",
                wal.get("rotations", 0),
            )
            w.gauge(
                "wal_segments",
                "WAL segment files currently on disk.",
                wal.get("segments", 0),
            )
            w.gauge(
                "wal_last_lsn",
                "Highest log sequence number appended to the WAL.",
                wal.get("last_lsn", 0),
            )
        snapshot = persist.get("snapshot") or {}
        if snapshot:
            w.counter(
                "snapshot_checkpoints_total",
                "Snapshot checkpoints cut over the durable store.",
                snapshot.get("checkpoints", 0),
            )
            w.counter(
                "snapshot_truncated_segments_total",
                "Fully-covered WAL segments deleted by checkpoints.",
                snapshot.get("truncated_segments", 0),
            )
            w.gauge(
                "snapshot_last_lsn",
                "LSN covered by the most recent snapshot checkpoint.",
                snapshot.get("last_lsn", 0),
            )
            w.gauge(
                "snapshot_last_seconds",
                "Wall-clock duration of the most recent checkpoint.",
                snapshot.get("last_seconds", 0.0),
            )
        if persist.get("recovery_seconds") is not None:
            w.gauge(
                "recovery_seconds",
                "Wall-clock time startup recovery took (snapshot restore "
                "plus WAL replay).",
                persist.get("recovery_seconds", 0.0),
            )

    build = stats.get("build") or {}
    if build:
        # The standard build_info idiom: constant 1, identity as labels.
        w.gauge(
            "build_info",
            "Server build identity; constant 1 with version labels.",
            1,
            {
                "version": str(build.get("version", "unknown")),
                "python": str(build.get("python", "unknown")),
            },
        )
    if "uptime_s" in stats:
        w.gauge(
            "uptime_seconds",
            "Seconds since the session started (monotonic clock).",
            float(stats.get("uptime_s") or 0.0),
        )
    return w.text()
