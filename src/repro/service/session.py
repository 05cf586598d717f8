"""A long-lived query session: one Planner, two caches.

The one-shot library pays full planning cost per query — every
:class:`~repro.core.planner.Planner` construction re-rectifies and
re-classifies the whole rule base.  A :class:`QuerySession` amortizes
that across a query stream the way a serving system must:

* **plan cache** — executed plans are memoized under
  :func:`~repro.core.planner.plan_cache_key` (predicate, bound/free
  adornment, constraint shape), so ``sg(ann, Y)`` and ``sg(bob, Y)``
  share one compiled plan; a hit skips parsing-to-strategy planning
  entirely and only swaps the concrete literal in.
* **result cache** — a bounded LRU from the exact query text shape
  (constants included) to the answer, rows already rendered, so a
  repeated query skips evaluation too.  A serving process has no other
  answer cache: forked workers run with it off and the server adopts
  their answers here (:meth:`QuerySession.adopt`).

Invalidation follows the database's version counters
(:attr:`~repro.engine.database.Database.version` and the per-relation
``relation_versions``), checked lazily at the next request, so
mutating through :meth:`add_fact`/:meth:`load_source` or directly on
the :class:`~repro.engine.database.Database` is equally safe.  A rule
change flushes both caches and re-normalizes the shared planner.  A
fact change keeps every cached answer whose predicate closure misses
the mutated relations (every plan answers from its closure alone) and
evicts the rest.

With ``ivm=True`` the session additionally owns a
:class:`~repro.ivm.ViewManager`: the answers a fact change reaches are
*repaired* in place from the incrementally maintained materialized
relations where that is cheap, instead of evicted, and cache-miss
queries on maintainable predicates are served straight from the
materialized view.  See :mod:`repro.ivm` and ``docs/ivm.md``.

A session is thread-safe: one re-entrant lock serializes planning and
evaluation (the evaluators share mutable relation state), while cache
hits return under the same lock in microseconds.  Many dispatch
threads therefore share a single session, which is exactly how
:class:`~repro.service.eventloop.AsyncQueryServer` uses it.
"""

from __future__ import annotations

import platform
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.cost import CostModel
from ..core.planner import Planner, QueryPlan, plan_cache_key
from ..datalog.literals import Literal
from ..datalog.rules import Rule
from ..datalog.terms import Term, Var
from ..datalog.unify import unify_sequences
from ..engine.builtins import BuiltinRegistry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..observe import (
    EngineTracer,
    FlightRecorder,
    WorkloadRecorder,
    build_report,
    current_id,
    merge_worker_trace,
    prometheus_text,
    register_session,
    snapshot_database,
)
from ..profile import SpanProfiler, chrome_trace, profile_report
from ..resilience import Budget, BudgetExceeded
from .metrics import ServiceMetrics

__all__ = ["QueryResult", "QuerySession"]


def _render_rows(rows) -> List[List[str]]:
    return [[str(value) for value in row] for row in rows]


def _query_payload(
    strategy, answers, plan_cached, result_cached, elapsed, counters=None
) -> Dict[str, Any]:
    """The JSON-safe payload of one answered QUERY, evaluated or cached."""
    return {
        "strategy": strategy,
        "answers": answers,
        "count": len(answers),
        "plan_cached": plan_cached,
        "result_cached": result_cached,
        "elapsed": elapsed,
        "counters": counters,
    }


class _Entry(NamedTuple):
    """One cached answer: what a hit replies with (rows as the wire
    renders them) and the closure root ``_sync`` invalidates by.  IVM
    repair and :meth:`QuerySession.execute` also need ``plan`` and the
    engine ``rows``; an entry adopted from a worker has neither and is
    only ever kept or evicted."""

    strategy: str
    answers: List[List[str]]
    predicate: object
    plan: Optional[QueryPlan] = None
    rows: Optional[List[Tuple[Term, ...]]] = None


@dataclass
class QueryResult:
    """One answered query: rows plus how the answer was produced."""

    plan: QueryPlan
    rows: List[Tuple[Term, ...]]
    elapsed: float
    plan_cached: bool
    result_cached: bool
    counters: Optional[Counters] = None
    #: Answered by filtering a maintained materialized view instead of
    #: running the plan's evaluator (``ivm=True`` sessions only).
    via_view: bool = False
    #: ``rows`` as the wire renders them (rendered once, for the cache).
    answers: List[List[str]] = field(default_factory=list)

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    def bindings(self) -> List[Dict[str, Term]]:
        """Rows as variable-binding dicts, like ``Planner.query``."""
        out: List[Dict[str, Term]] = []
        for row in self.rows:
            binding: Dict[str, Term] = {}
            for arg, value in zip(self.plan.query.args, row):
                if isinstance(arg, Var):
                    binding[arg.name] = value
            out.append(binding)
        return out


class QuerySession:
    """Serve many queries against one database, caching plans/results."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        cost_model: Optional[CostModel] = None,
        max_depth: int = 10_000,
        result_cache_size: int = 256,
        metrics: Optional[ServiceMetrics] = None,
        slow_query_ms: Optional[float] = None,
        slowlog_size: int = 8,
        budget: Optional[Budget] = None,
        ivm: bool = False,
        reqlog_size: int = 256,
    ):
        self.database = database
        self.planner = Planner(
            database, registry=registry, cost_model=cost_model, max_depth=max_depth
        )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.result_cache_size = result_cache_size
        #: Slow-query forensics: with a threshold set, every evaluated
        #: (cache-miss) query runs under a span profiler, and queries
        #: at or over ``slow_query_ms`` land in a bounded ring of
        #: slowlog entries with their full span profile attached.
        #: None (the default) keeps evaluation profiler-free.
        self.slow_query_ms = slow_query_ms
        #: Default resource budget *template*: each evaluated query runs
        #: under a fresh fork() of it (restarted clock, cleared cancel)
        #: unless the caller passes a per-request budget.  None keeps
        #: evaluation budget-free.
        self.budget = budget
        self._slowlog: Deque[Dict[str, object]] = deque(
            maxlen=max(1, slowlog_size)
        )
        #: Where this session's slowlog entries are evaluated: "inline"
        #: for in-process sessions, "worker" inside a forked evaluator
        #: (set by the pool's child bootstrap).  Entries carry it so a
        #: merged parent slowlog stays attributable.
        self.slowlog_origin = "inline"
        #: Always-on per-request stage-timeline ring (REQLOG verb,
        #: ``GET /reqlog``).  Servers mint records into it; committed
        #: records feed the stage-latency histograms.  ``reqlog_size=0``
        #: disables recording.
        self.lifecycle = FlightRecorder(reqlog_size)
        # Commit parks each record on a pending queue; the histograms
        # catch up lazily whenever the metrics are actually read.
        self.metrics.stage_drain = (
            lambda: self.lifecycle.drain_metrics(self.metrics)
        )
        #: Always-available workload recorder (RECORD verb,
        #: ``--record``); inert until :meth:`start_capture` opens an
        #: archive, after which both servers' lifecycle taps feed it.
        self.capture = WorkloadRecorder()
        #: Optional durability manager (``repro.persist``), installed by
        #: :meth:`attach_persistence`.  The WAL itself hangs off the
        #: database's mutation path; the session's role is checkpoint
        #: pacing (under its lock) and exposing persist stats.
        self.persist = None
        register_session(self)
        #: Wall-clock start stamp, for display only (slowlog-style "at"
        #: fields).  Uptime is tracked on the monotonic clock so HEALTH
        #: never jumps or goes negative across NTP steps.
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._lock = threading.RLock()
        self._plan_cache: Dict[object, QueryPlan] = {}
        # LRU: key -> _Entry; dict preserves insertion order and
        # move-to-end is pop+reinsert.
        self._result_cache: Dict[object, _Entry] = {}
        # Source text parses (and keys the result cache) identically
        # forever, so this memo needs no version invalidation — just a
        # size cap against unbounded text.
        self._parse_cache: Dict[str, Tuple[Literal, List[Literal], object]] = {}
        self._seen_version = database.version
        self._seen_relation_versions = dict(database.relation_versions)
        #: Report of the most recent explain() call (TRACE verb).
        self._last_trace: Optional[Dict[str, object]] = None
        #: Report of the most recent profile() call (``--profile-json``).
        self._last_profile: Optional[Dict[str, object]] = None
        #: Incremental view maintenance (opt-in): in-place result repair
        #: and view-served answers.
        self.views = None
        if ivm:
            from ..ivm import ViewManager

            self.views = ViewManager(
                database, self.planner.registry, metrics=self.metrics
            )
            # Planning and IVM read one dependency graph per IDB version.
            self.views.graph = self.planner.graph

    # ------------------------------------------------------------------
    # Cache coherence
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Reconcile the caches with the database's version counters.

        Must be called with the lock held.  A rule change clears both
        caches and re-normalizes the planner (``Planner.refresh``); an
        IVM session's views follow it.  A fact change keeps every
        cached answer whose predicate closure is disjoint from the
        mutated relations: the rules and relations of a closure are a
        splitting set, so no plan's answer depends on anything outside
        it.  The other answers are repaired in place from the views
        when the session maintains them, and evicted otherwise.
        """
        version = self.database.version
        if version == self._seen_version:
            return
        idb_changed = version[1] != self._seen_version[1]
        current = self.database.relation_versions
        mutated = {
            predicate
            for predicate, counter in current.items()
            if self._seen_relation_versions.get(predicate) != counter
        }
        self._seen_version = version
        self._seen_relation_versions = dict(current)
        if idb_changed:
            self._result_cache.clear()
            self._plan_cache.clear()
            self.planner.refresh()
            if self.views is not None:
                self.views.on_idb_change(self.planner.graph)
            self.metrics.record_invalidation(plans=True)
            return
        pending = self.views.drain_pending() if self.views is not None else {}
        closure = self.planner.graph.closure
        kept = repaired = evicted = 0
        for key, entry in list(self._result_cache.items()):
            if closure(entry.predicate).isdisjoint(mutated):
                kept += 1
                continue
            rows = None
            if self.views is not None and entry.plan is not None:
                rows = self._patch_rows(entry, pending.get(entry.predicate))
            if rows is None:
                del self._result_cache[key]
                evicted += 1
                continue
            if rows is not entry.rows:
                self._result_cache[key] = entry._replace(
                    answers=_render_rows(rows), rows=rows
                )
            self.views.register_shape(entry.plan).repairs += 1
            repaired += 1
        if evicted:
            self.metrics.record_invalidation(plans=False)
        if kept or repaired:
            self.metrics.record_ivm_sync(kept=kept, repaired=repaired)

    def _patch_rows(
        self, entry: _Entry, delta: Optional[Dict[object, int]]
    ) -> Optional[List[Tuple[Term, ...]]]:
        """Apply the predicate's net row delta to a cached result.

        O(|delta|) instead of re-filtering the whole view: each changed
        row is matched against the query's constants (and, for
        additions, its residual constraints) and folded into the cached
        answer set.  When the delta log is not authoritative for this
        predicate — no materialization, or a dirty one (skipped/failed
        maintenance) whose drift the log never saw — the answer is
        re-filtered from maintained state instead (:meth:`_repair_rows`);
        ``None`` means the entry must be evicted.
        """
        plan, rows = entry.plan, entry.rows
        predicate = plan.query.predicate
        if self.views.graph.is_idb(predicate):
            fix = self.views.fixpoints.get(predicate)
            if fix is None or fix.dirty:
                return self._repair_rows(plan)
        if not delta:
            return rows
        from ..engine.relation import Relation

        adds = Relation(plan.query.name, plan.query.arity)
        dels = set()
        for row, sign in delta.items():
            if unify_sequences(plan.query.args, row) is None:
                continue
            if sign < 0:
                dels.add(row)
            else:
                adds.add(row)
        if len(adds):
            adds = self.planner._apply_residual_constraints(
                plan, adds, Counters()
            )
        if not len(adds) and not dels:
            return rows
        merged = set(rows)
        merged.difference_update(dels)
        merged.update(adds)
        return sorted(merged, key=str)

    def _repair_rows(
        self, plan: QueryPlan
    ) -> Optional[List[Tuple[Term, ...]]]:
        """Re-filter a cached result from maintained state, or ``None``.

        ``None`` means no cheap repair exists (unmaterialized derived
        predicate, dirty view, or the filter itself failed) and the
        entry must be evicted.
        """
        try:
            relations = self.views.relations_for_repair(plan.query.predicate)
            if relations is None:
                return None
            answers = self.planner._filter(plan.query, relations)
            answers = self.planner._apply_residual_constraints(
                plan, answers, Counters()
            )
            return sorted(answers.rows(), key=str)
        except Exception:
            return None

    def _view_rows(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Optional[List[Tuple[Term, ...]]]:
        """Answer a cache-miss query from a maintained view, or ``None``.

        Only maintainable closures are served this way (the manager
        refuses the rest); the filter applies the query's constants and
        residual constraints exactly like plan execution would.
        """
        relations = self.views.relations_for_query(plan.query.predicate, ctx)
        if relations is None:
            return None
        answers = self.planner._filter(plan.query, relations, ctx)
        answers = self.planner._apply_residual_constraints(
            plan, answers, Counters()
        )
        self.views.register_shape(plan).hits += 1
        self.metrics.record_view_serve()
        return sorted(answers.rows(), key=str)

    def cache_sizes(self) -> Dict[str, int]:
        with self._lock:
            return {
                "plan_cache": len(self._plan_cache),
                "result_cache": len(self._result_cache),
            }

    def clear_caches(self) -> None:
        with self._lock:
            self._plan_cache.clear()
            self._result_cache.clear()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _keyed(self, query_source) -> Tuple[Literal, List[Literal], object]:
        """A query parsed, with its result-cache key (memoized by text)."""
        memoize = isinstance(query_source, str)
        hit = self._parse_cache.get(query_source) if memoize else None
        if hit is None:
            query, constraints = self.planner._parse(query_source)
            key = (str(query), tuple(str(c) for c in constraints))
            hit = (query, constraints, key)
            if memoize:
                if len(self._parse_cache) >= 4096:
                    self._parse_cache.clear()
                self._parse_cache[query_source] = hit
        return hit

    def _parse(self, query_source) -> Tuple[Literal, List[Literal]]:
        return self._keyed(query_source)[:2]

    def _lookup(self, query_source):
        """Reconcile the caches, then ``(query, constraints, key, cached
        entry or None)``.  Lock held by the caller."""
        self._sync()
        query, constraints, key = self._keyed(query_source)
        return query, constraints, key, self._result_cache.get(key)

    def _store(self, key, entry: _Entry) -> None:
        """Insert at the most-recent end; trim to size.  Lock held."""
        self._result_cache.pop(key, None)
        self._result_cache[key] = entry
        while len(self._result_cache) > self.result_cache_size:
            del self._result_cache[next(iter(self._result_cache))]

    def _record_hit(self, key, entry: _Entry, start: float) -> float:
        """LRU-touch and account one served hit; returns its latency."""
        self._store(key, entry)
        elapsed = time.perf_counter() - start
        self.metrics.record_query(
            entry.strategy, elapsed, plan_cached=True, result_cached=True
        )
        self.metrics.record_verb("QUERY", elapsed)
        return elapsed

    def plan(self, query_source) -> Tuple[QueryPlan, bool]:
        """The plan for a query and whether it came from the cache."""
        start = time.perf_counter()
        with self._lock:
            self._sync()
            query, constraints = self._parse(query_source)
            plan, cached = self._plan_locked(query, constraints)
            self.metrics.record_plan(cached)
            self.metrics.record_verb("PLAN", time.perf_counter() - start)
            return plan, cached

    def _plan_locked(
        self,
        query: Literal,
        constraints: List[Literal],
        ctx: EvalContext = DISABLED,
    ) -> Tuple[QueryPlan, bool]:
        key = plan_cache_key(query, constraints)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached.rebind(query, constraints), True
        plan = self.planner.plan([query, *constraints], ctx)
        self._plan_cache[key] = plan
        return plan, False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _context(
        self, budget: Optional[Budget], tracer=None, profiler=None
    ) -> EvalContext:
        """The evaluation context of one request: the caller's budget
        (default: a fork of the session's template, if any) plus the
        instrumentation the verb asks for, tagged with the request id."""
        if budget is None and self.budget is not None:
            budget = self.budget.fork()
        request_id = budget.request_id if budget is not None else None
        return EvalContext(tracer, profiler, budget, request_id or current_id())

    def _evaluate_locked(
        self,
        query: Literal,
        constraints: List[Literal],
        key: object,
        ctx: EvalContext,
        start: float,
        max_depth: Optional[int],
        views: bool = False,
    ) -> QueryResult:
        """Plan and evaluate a cache-miss query under ``ctx``, insert
        the answer into the result cache and record the request.

        Lock held by the caller.  ``views`` lets an IVM session answer
        from a maintained view; EXPLAIN / PROFILE always run the plan,
        since a view read has no evaluation to report on.
        """
        saved_depth = self.planner.max_depth
        if max_depth is not None:
            self.planner.max_depth = max_depth
        counters: Optional[Counters] = None
        try:
            plan, plan_cached = self._plan_locked(query, constraints, ctx)
            rows = (
                self._view_rows(plan, ctx)
                if views and self.views is not None
                else None
            )
            via_view = rows is not None
            if rows is None:
                answers, counters = self.planner.execute(plan, ctx)
                rows = sorted(answers.rows(), key=str)
        except BudgetExceeded:
            # The request still happened: record its latency (the
            # disconnect/timeout path depends on the histogram not
            # losing aborted queries) and the blowout itself.
            self.metrics.record_budget_exceeded()
            self.metrics.record_verb("QUERY", time.perf_counter() - start)
            raise
        finally:
            self.planner.max_depth = saved_depth
        answers = _render_rows(rows)
        self._store(
            key, _Entry(plan.strategy, answers, query.predicate, plan, rows)
        )
        elapsed = time.perf_counter() - start
        self.metrics.record_query(
            plan.strategy,
            elapsed,
            plan_cached=plan_cached,
            result_cached=False,
            counters=counters,
        )
        self.metrics.record_verb("QUERY", elapsed)
        return QueryResult(
            plan, list(rows), elapsed, plan_cached, False, counters, via_view,
            answers,
        )

    def execute(
        self,
        query_source,
        max_depth: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> QueryResult:
        """Answer a query, going through both caches.

        ``max_depth`` temporarily overrides the session's chain-depth
        budget for this one request (the server's per-request budget).
        ``budget`` runs the evaluation under a per-request resource
        budget (default: a fork of the session's budget template, if
        any); a blown budget raises
        :class:`~repro.resilience.BudgetExceeded` *after* recording
        the per-verb latency, so the histogram never loses the request.
        """
        start = time.perf_counter()
        with self._lock:
            query, constraints, key, hit = self._lookup(query_source)
            # An adopted entry has no plan or engine rows to hand a
            # library caller: evaluate, and replace it with a full one.
            if hit is not None and hit.plan is not None:
                elapsed = self._record_hit(key, hit, start)
                return QueryResult(
                    hit.plan, list(hit.rows), elapsed, True, True,
                    answers=hit.answers,
                )

            # Slow-query forensics: profile every evaluated query so an
            # offender's span breakdown is already in hand when the
            # threshold trips — a retrospective re-run would not
            # reproduce cold caches.
            profiler = (
                SpanProfiler() if self.slow_query_ms is not None else None
            )
            ctx = self._context(budget, profiler=profiler)
            result = self._evaluate_locked(
                query, constraints, key, ctx, start, max_depth, views=True
            )
            if profiler is not None and result.elapsed * 1e3 >= self.slow_query_ms:
                self._retain_slow(query, result, ctx)
            return result

    def _retain_slow(
        self, query: Literal, result: QueryResult, ctx: EvalContext
    ) -> None:
        """Append one slowlog entry (lock held by the caller)."""
        counters = (
            result.counters if result.counters is not None else Counters()
        )
        entry: Dict[str, object] = {
            "at": time.time(),
            "query": str(query),
            "strategy": result.strategy,
            "elapsed_ms": result.elapsed * 1e3,
            "threshold_ms": self.slow_query_ms,
            "answers": len(result.rows),
            "plan_cached": result.plan_cached,
            "origin": self.slowlog_origin,
            "request_id": ctx.request_id,
            "counters": counters.as_dict(),
            "profile": profile_report(ctx.profiler, counters),
            "chrome_trace": chrome_trace(
                ctx.profiler, process_name=f"repro slow: {query}"
            ),
        }
        self._slowlog.append(entry)
        self.metrics.record_slow_query()

    def explain(
        self,
        query_source,
        max_depth: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> Dict[str, object]:
        """Answer a query with tracing on and return the EXPLAIN report.

        The evaluation runs under a context carrying a fresh
        :class:`~repro.observe.EngineTracer` and span profiler.  The
        result cache is bypassed — a cache hit would produce an empty
        trace — but the answer still lands in it, and the plan cache
        works as usual.  The report (see
        :func:`~repro.observe.build_report`) is also retained as
        :attr:`last_trace` for the server's argument-less ``TRACE``.
        """
        start = time.perf_counter()
        with self._lock:
            query, constraints, key, _hit = self._lookup(query_source)
            tracer = EngineTracer()
            profiler = SpanProfiler()
            ctx = self._context(budget, tracer, profiler)
            result = self._evaluate_locked(
                query, constraints, key, ctx, start, max_depth
            )
            report = build_report(
                tracer,
                plan=result.plan,
                cost_model=self.planner.cost_model,
                counters=result.counters,
                profile=profile_report(profiler, result.counters),
            )
            report["query"] = str(query)
            report["predicate"] = str(query.predicate)
            report["answers"] = len(result.rows)
            report["rows"] = [
                "(" + ", ".join(str(v) for v in row) + ")"
                for row in result.rows
            ]
            report["elapsed_ms"] = result.elapsed * 1e3
            report["plan_cached"] = result.plan_cached
            self._last_trace = report
            return report

    def profile(
        self,
        query_source,
        max_depth: Optional[int] = None,
        memory: bool = False,
        include_trace: bool = False,
        budget: Optional[Budget] = None,
    ) -> Dict[str, object]:
        """Answer a query with span profiling on; the attribution report.

        Like :meth:`explain` but with the profiler instead of the
        tracer: the result cache is bypassed (the answer still lands in
        it), and the report is :func:`~repro.profile.profile_report`
        plus query/strategy/answer fields.  ``memory=True`` adds
        tracemalloc net-allocation sampling; ``include_trace=True``
        embeds the Chrome-trace JSON under ``"chrome_trace"``.
        """
        start = time.perf_counter()
        with self._lock:
            query, constraints, key, _hit = self._lookup(query_source)
            with SpanProfiler(memory=memory) as profiler:
                ctx = self._context(budget, profiler=profiler)
                result = self._evaluate_locked(
                    query, constraints, key, ctx, start, max_depth
                )
            report = profile_report(profiler, result.counters)
            report["query"] = str(query)
            report["predicate"] = str(query.predicate)
            report["strategy"] = result.strategy
            report["answers"] = len(result.rows)
            report["elapsed_ms"] = result.elapsed * 1e3
            report["plan_cached"] = result.plan_cached
            if include_trace:
                report["chrome_trace"] = chrome_trace(
                    profiler, process_name=f"repro: {query}"
                )
            self._last_profile = report
            return report

    # ------------------------------------------------------------------
    # Degraded answers (circuit-breaker support)
    # ------------------------------------------------------------------
    def plan_key(self, query_source) -> object:
        """The plan-cache key of a query — the circuit breaker's key.

        Parsing only (memoized); no planning or evaluation happens.
        """
        with self._lock:
            self._sync()
            query, constraints = self._parse(query_source)
            return plan_cache_key(query, constraints)

    def peek_cached(self, query_source) -> Optional[Tuple[str, List[List[str]]]]:
        """The cached (strategy, rendered rows) for a query, or None —
        never evaluates.  Used to serve stale-but-real answers while
        the circuit breaker is open."""
        with self._lock:
            hit = self._lookup(query_source)[3]
            return None if hit is None else (hit.strategy, hit.answers)

    def cached_answer(self, query_source) -> Optional[Dict[str, Any]]:
        """The server's hit path: the QUERY payload of a cached answer
        (recorded and LRU-touched as a hit), or None — never evaluates."""
        start = time.perf_counter()
        with self._lock:
            *_, key, hit = self._lookup(query_source)
            if hit is None:
                return None
            return _query_payload(
                hit.strategy, hit.answers, True, True,
                self._record_hit(key, hit, start),
            )

    def hit_ready(self, query_source: str) -> bool:
        """Would :meth:`cached_answer` hit without parsing?  The event
        loop's probe; lock held by the caller.  A fact write since the
        last reconciliation is reconciled here first when that is cheap
        (a session without views only keeps or evicts entries), so an
        answer whose closure the write missed stays servable on the
        loop thread.  A rule change or a view repair is left to the
        dispatch thread."""
        memo = self._parse_cache.get(query_source)
        if memo is None:
            return False
        version = self.database.version
        if version != self._seen_version:
            if version[1] != self._seen_version[1] or self.views is not None:
                return False
            self._sync()
        return memo[2] in self._result_cache

    def adopt(self, query_source, payload: Dict[str, Any]) -> None:
        """Cache a worker-evaluated QUERY payload, unless the database
        has moved past the snapshot it was evaluated at: that answer
        goes to its client and nowhere else."""
        with self._lock:
            if payload.get("version") != self.database.version:
                return
            query, _constraints, key, _hit = self._lookup(query_source)
            self._store(
                key, _Entry(payload["strategy"], payload["answers"], query.predicate)
            )

    def exists(self, query_source, budget: Optional[Budget] = None) -> bool:
        """Existence-only probe: does the query have *any* answer?

        First-witness SLD evaluation under ``budget`` — the degraded
        answer the breaker serves when full evaluation keeps blowing
        up.  May itself raise :class:`~repro.resilience.BudgetExceeded`
        when even finding one witness is over budget.
        """
        from ..core.existence import ExistenceChecker

        with self._lock:
            self._sync()
            query, constraints = self._parse(query_source)
            checker = ExistenceChecker(
                self.database,
                self.planner.registry,
                ctx=EvalContext(budget=budget),
            )
            found, _counters = checker.exists_top_down(
                [query, *constraints]
            )
            return found

    # ------------------------------------------------------------------
    # Slow-query log / health
    # ------------------------------------------------------------------
    def slowlog(self) -> List[Dict[str, object]]:
        """Retained slow-query entries, most recent first."""
        with self._lock:
            return [dict(entry) for entry in reversed(self._slowlog)]

    def clear_slowlog(self) -> int:
        """Drop all retained entries; returns how many were dropped."""
        with self._lock:
            dropped = len(self._slowlog)
            self._slowlog.clear()
            return dropped

    def adopt_slowlog(self, entries, record=None) -> int:
        """Fold worker-produced slowlog entries into this session's ring.

        A pooled query's slow-query forensics happen inside the forked
        evaluator, whose session (and slowlog) dies with the worker;
        the pool ships new entries back as an envelope sidecar and the
        parent adopts them here so ``SLOWLOG`` covers pooled queries
        exactly like in-process ones.  When the adopting request's
        lifecycle ``record`` is supplied, each entry's chrome trace is
        spliced with the parent's event-loop stage spans
        (:func:`~repro.observe.merge_worker_trace`) — one Perfetto view
        across both processes, correlated by the shared request id.
        """
        adopted = 0
        with self._lock:
            for entry in entries or ():
                entry = dict(entry)
                trace = entry.get("chrome_trace")
                if record is not None:
                    if entry.get("request_id") is None:
                        entry["request_id"] = record.id
                    if isinstance(trace, dict):
                        entry["chrome_trace"] = merge_worker_trace(
                            trace, record
                        )
                self._slowlog.append(entry)
                self.metrics.record_slow_query()
                adopted += 1
        return adopted

    def reqlog(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Recent request lifecycle records, most recent first."""
        return self.lifecycle.records(limit)

    def health(self) -> Dict[str, object]:
        """A cheap liveness/pressure summary (the ``/healthz`` body)."""
        snap = self.metrics.snapshot()
        with self._lock:
            slowlog_len = len(self._slowlog)
            caches = {
                "plan_cache": len(self._plan_cache),
                "result_cache": len(self._result_cache),
            }
        health: Dict[str, object] = {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_monotonic,
            "queries": snap["queries"],
            "errors": snap["errors"],
            "timeouts": snap["timeouts"],
            "slow_queries": snap["slow_queries"],
            "slow_query_ms": self.slow_query_ms,
            "slowlog": slowlog_len,
            "reqlog": len(self.lifecycle),
            "caches": caches,
            "database": {
                "edb_version": self.database.edb_version,
                "idb_version": self.database.idb_version,
                "facts": self.database.total_facts(),
                "rules": len(self.database.program),
            },
        }
        workers = snap.get("workers")
        if workers is not None:
            health["workers"] = workers
            # A pool stuck in kill-and-respawn loops must degrade
            # health rather than report ok: dead workers, or a burst of
            # recent respawns, both count.
            reasons = []
            size = workers.get("size", workers.get("workers", 0))
            alive = workers.get("alive")
            if alive is not None and size and alive < size:
                reasons.append(f"{size - alive}/{size} workers dead")
            recent = workers.get("recent_restarts")
            if recent is not None and recent >= 3:
                reasons.append(
                    f"{recent} worker respawns in the last minute"
                )
            if reasons:
                health["status"] = "degraded"
                health["degraded_reason"] = "; ".join(reasons)
        if self.views is not None:
            health["ivm_views"] = self.views.snapshot()
        if self.persist is not None:
            persist = self.persist.stats()
            health["persist"] = {
                "last_lsn": (persist.get("wal") or {}).get("last_lsn", 0),
                "checkpoints": persist["snapshot"]["checkpoints"],
                "recovery_seconds": persist.get("recovery_seconds"),
            }
        return health

    @property
    def last_trace(self) -> Optional[Dict[str, object]]:
        """The report of the most recent :meth:`explain`, if any."""
        with self._lock:
            return self._last_trace

    def remember_trace(self, report: Dict[str, object]) -> None:
        """Retain an EXPLAIN report as :attr:`last_trace`.

        The worker-pool dispatcher evaluates EXPLAIN in a forked
        evaluator process; the report crosses back as plain JSON and is
        parked here so the argument-less ``TRACE`` verb replays it just
        like an in-process EXPLAIN.
        """
        with self._lock:
            self._last_trace = report

    @property
    def last_profile(self) -> Optional[Dict[str, object]]:
        """The report of the most recent :meth:`profile`, if any."""
        with self._lock:
            return self._last_profile

    def metrics_text(self) -> str:
        """The session's metrics in Prometheus text exposition format."""
        return prometheus_text(self.stats())

    def answer_rows(self, query_source) -> List[Tuple[Term, ...]]:
        """Sorted answer rows (drop-in for ``Planner.answer_rows``)."""
        return self.execute(query_source).rows

    def query(self, query_source) -> List[Dict[str, Term]]:
        """Answers as variable bindings (drop-in for ``Planner.query``)."""
        return self.execute(query_source).bindings()

    # ------------------------------------------------------------------
    # Mutation passthroughs
    # ------------------------------------------------------------------
    # Mutating through the session serializes with in-flight
    # evaluation (the evaluators iterate the shared relations, so a
    # concurrent insert would blow up mid-join).  Mutating the
    # Database directly is still *coherent* — the version counters
    # invalidate at the next request — but not safe while another
    # thread is evaluating.
    def add_fact(self, name: str, values: Sequence[object]) -> bool:
        start = time.perf_counter()
        with self._lock:
            added = self.database.add_fact(name, values)
            self._maybe_checkpoint()
        self.metrics.record_verb("FACT", time.perf_counter() - start)
        return added

    def retract_fact(self, name: str, values: Sequence[object]) -> bool:
        """Remove a fact; ``False`` when it was not stored."""
        start = time.perf_counter()
        with self._lock:
            removed = self.database.retract_fact(name, values)
            self._maybe_checkpoint()
        self.metrics.record_verb("RETRACT", time.perf_counter() - start)
        return removed

    def apply_batch(self, mutations):
        """Apply ``(op, name, values)`` mutations as one committed batch."""
        start = time.perf_counter()
        with self._lock:
            batch = self.database.apply_batch(mutations)
            self._maybe_checkpoint()
        self.metrics.record_verb("BATCH", time.perf_counter() - start)
        return batch

    def subscribable(self, predicate) -> Optional[str]:
        """Why ``predicate`` cannot stream deltas, or ``None`` if it can.

        Stored (EDB) predicates always can — their deltas come straight
        from the mutation batch.  Derived predicates need IVM enabled
        and a materializable closure; on success the view is
        materialized and pinned so every future batch produces a diff.
        """
        with self._lock:
            self._sync()
            if self.views is None:
                if predicate in self.database.program.head_predicates():
                    return (
                        f"{predicate} is derived and this session has "
                        "incremental view maintenance disabled; start the "
                        "session with ivm=True (CLI: --ivm) to subscribe "
                        "to derived predicates"
                    )
                return None
            return self.views.ensure_pinned(predicate)

    def add_rule(self, rule: Rule) -> None:
        start = time.perf_counter()
        with self._lock:
            self.database.add_rule(rule)
            self._maybe_checkpoint()
        self.metrics.record_verb("FACT", time.perf_counter() - start)

    def load_source(self, source: str) -> None:
        start = time.perf_counter()
        with self._lock:
            self.database.load_source(source)
            self._maybe_checkpoint()
        self.metrics.record_verb("FACT", time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def attach_persistence(self, manager) -> None:
        """Adopt a :class:`~repro.persist.PersistenceManager`.

        The manager's WAL is already attached to the database (every
        mutation above logs before returning); the session adds the
        two things that need its lock: checkpoint pacing after
        mutations, and a consistent snapshot when one is cut.
        """
        with self._lock:
            self.persist = manager

    def _maybe_checkpoint(self) -> None:
        """Cut a checkpoint when due.  Caller holds the session lock."""
        if self.persist is not None:
            self.persist.maybe_checkpoint()

    # ------------------------------------------------------------------
    # Workload capture
    # ------------------------------------------------------------------
    def start_capture(self, path: str, origin: str = "unknown") -> Dict[str, object]:
        """Snapshot the EDB and start recording traffic to ``path``.

        The snapshot is taken under the session lock so no mutation
        lands between the recorded state and the first recorded
        request — the invariant replay correctness rests on.
        """
        with self._lock:
            snapshot = snapshot_database(self.database)
            return self.capture.start(path, snapshot, origin=origin)

    def stop_capture(self) -> Dict[str, object]:
        """Flush, fsync and close the active archive (idempotent)."""
        return self.capture.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Metrics snapshot plus cache/database state."""
        snap = self.metrics.snapshot()
        snap["caches"] = self.cache_sizes()
        snap["database"] = {
            "edb_version": self.database.edb_version,
            "idb_version": self.database.idb_version,
            "relations": len(self.database.relations),
            "facts": self.database.total_facts(),
            "rules": len(self.database.program),
        }
        if self.views is not None:
            snap["ivm_views"] = self.views.snapshot()
        if self.persist is not None:
            snap["persist"] = self.persist.stats()
        snap["uptime_s"] = time.monotonic() - self._started_monotonic
        # Lazy: the package __init__ imports the service layer, so a
        # module-level import here would be circular.
        from .. import __version__

        snap["build"] = {
            "version": __version__,
            "python": platform.python_version(),
        }
        return snap

    def __repr__(self) -> str:
        sizes = self.cache_sizes()
        return (
            f"QuerySession({self.database!r}, "
            f"{sizes['plan_cache']} plans, {sizes['result_cache']} results)"
        )
