"""A multiprocessing pool of evaluator workers over forked snapshots.

The GIL caps in-process serving at one core of fixpoint evaluation no
matter how many dispatch threads run.  This module moves the heavy
verbs (QUERY / PLAN / EXPLAIN) into separate *processes*: each worker
is forked from the serving process and inherits the
:class:`~repro.engine.database.Database` as a copy-on-write snapshot,
so concurrent evaluations really run on separate cores with zero
serialization of the fact base.

Design points, in the order they matter:

**Snapshot freshness.**  A forked worker sees the database as of its
fork.  The pool remembers the database version it forked at; before
every dispatch it compares it to the live database and, on drift,
forks a *new generation* of workers.
Old workers that are mid-request finish their request on the old
snapshot — exactly the answer a request admitted before the mutation
would have produced in-process under the session lock — and are
retired when they reply instead of rejoining the pool.  Forks always
happen while holding the parent session's lock, so a snapshot can
never capture a mutation in flight.

**Result parity.**  A worker runs a plain
:class:`~repro.service.session.QuerySession` over the inherited
database and executes exactly the code path ``workers=0`` runs
in-process.  Answers are rendered to strings in the worker and cross
the pipe as JSON-safe payloads; counters cross as dicts and are
rebuilt with ``Counters(**d)``; a blown budget crosses as its
structured fields and is re-raised as an equivalent
:class:`~repro.resilience.BudgetExceeded`.  The parity tests pin all
three bit-identical to in-process evaluation.

**Cooperative cancellation.**  Each worker shares two lock-free
``RawValue`` cells with the parent: a *cancel sequence* and a *cancel
code*.  To cancel request ``seq`` the parent stores the code then the
sequence; the worker's per-request :class:`_RemoteBudget` checks the
cell on its sampled (clocked) checkpoints and trips ``cancelled``
exactly like an in-process :meth:`Budget.cancel`.  A worker that keeps
ignoring the flag past ``kill_grace`` seconds is killed and respawned
(``repro_worker_restarts_total``).

**Cold evaluators.**  The serving process owns the one answer cache
(:meth:`QuerySession.adopt`); a worker keeps only its parse memo and
plan cache, sees misses only, and stamps each ``ok`` payload with the
``version`` of its snapshot so the parent never caches a stale answer.
Any free worker serves any request.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Optional

from ..engine.database import Database
from ..observe import current_id, get_logger, log_event, mark_stage
from ..resilience import Budget, BudgetExceeded
from .session import QuerySession, _query_payload

_log = get_logger("workers")

__all__ = [
    "WorkerPool",
    "WorkerDied",
    "ClientGone",
    "RemoteEvaluationError",
    "fork_available",
]

#: How often a blocked dispatch re-checks deadline / peer liveness.
_POLL_INTERVAL = 0.05

#: Cancel codes stored in the shared cell (mapped back to the reason
#: strings an in-process ``Budget.cancel`` would have carried).
_CANCEL_TIMEOUT = 1
_CANCEL_DISCONNECT = 2

_CANCEL_REASONS = {
    _CANCEL_TIMEOUT: "request timeout",
    _CANCEL_DISCONNECT: "client disconnected",
}


def fork_available() -> bool:
    """Can this platform fork copy-on-write evaluator workers?"""
    return "fork" in multiprocessing.get_all_start_methods()


class RemoteEvaluationError(RuntimeError):
    """An exception raised inside an evaluator worker.

    Carries the original exception's type name and message so the
    dispatcher can build the same error envelope an in-process raise
    would have produced.
    """

    def __init__(self, exc_type: str, message: str):
        super().__init__(message)
        self.exc_type = exc_type


class WorkerDied(RuntimeError):
    """An evaluator worker died while serving a request."""


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
class _RemoteBudget(Budget):
    """A budget that also observes the parent's shared cancel cell.

    The cell is polled on the *clocked* checkpoints only — once per
    fixpoint round and one per :data:`~repro.resilience.budget._CLOCK_SAMPLE`
    ticks — so the hot per-substitution path pays nothing beyond the
    in-process budget's own branch.  A budget with no limits set still
    polls, which is what makes every worker request cancellable.
    """

    __slots__ = ("_seq", "_cancel_seq", "_cancel_code")

    def __init__(self, seq, cancel_seq, cancel_code, limits=None):
        self._seq = seq
        self._cancel_seq = cancel_seq
        self._cancel_code = cancel_code
        super().__init__(**(limits or {}))

    def _check_clocked(self, counters) -> None:
        if not self.cancelled and self._cancel_seq.value == self._seq:
            reason = _CANCEL_REASONS.get(
                self._cancel_code.value, "cancelled by server"
            )
            self.cancel(reason)
            self._trip("cancelled", None, None, counters)
        super()._check_clocked(counters)


def _serve_one(
    session: QuerySession, verb: str, payload: Dict[str, Any], budget: Budget
) -> Dict[str, Any]:
    """Evaluate one QUERY/PLAN/EXPLAIN/PROFILE request into its
    JSON-safe payload.

    Both execution modes build their payload here — the event loop's
    dispatch threads and the forked workers — so rows are rendered,
    and reply fields named, in exactly one place.
    """
    source = payload["source"]
    max_depth = payload.get("max_depth")
    if verb == "QUERY":
        result = session.execute(source, max_depth, budget)
        return _query_payload(
            result.strategy, result.answers, result.plan_cached,
            result.result_cached, result.elapsed,
            result.counters.as_dict() if result.counters is not None else None,
        )
    if verb == "PLAN":
        start = time.perf_counter()
        plan, cached = session.plan(source)
        return {
            "strategy": plan.strategy,
            "recursion_class": plan.recursion_class,
            "plan": plan.explain(),
            "cached": cached,
            "elapsed": time.perf_counter() - start,
        }
    if verb == "EXPLAIN":
        return {"report": session.explain(source, max_depth, budget)}
    if verb == "PROFILE":
        return {"report": session.profile(source, max_depth, budget=budget)}
    raise ValueError(f"cannot evaluate verb {verb!r}")


def _worker_main(
    database: Database,
    max_depth,
    pipe,
    parent_pipe,
    cancel_seq,
    cancel_code,
    slow_query_ms=None,
    slowlog_size: int = 8,
):
    """Child process loop: recv request, evaluate, send reply.

    The session is built *here*, over the forked database snapshot, so
    the worker owns a fresh plan cache and never shares mutable
    evaluator state with the parent; result caching is off, the parent
    owns the one answer cache.  It inherits the parent's
    slow-query threshold so pooled queries are profiled under the same
    policy as in-process ones; the resulting entries cross back as the
    reply sidecar.  ``reqlog_size=0``: the
    parent records the lifecycle, a per-worker ring would be dead
    weight.
    """
    # The fork copied the parent's end of the pipe too; while this copy
    # is open a SIGKILLed parent never reads as EOF below, and the
    # worker would outlive it (holding the listening socket and WAL).
    parent_pipe.close()
    session = QuerySession(
        database,
        max_depth=max_depth,
        result_cache_size=0,
        slow_query_ms=slow_query_ms,
        slowlog_size=slowlog_size,
        reqlog_size=0,
    )
    session.slowlog_origin = "worker"
    while True:
        try:
            message = pipe.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        seq, verb, payload = message
        budget = _RemoteBudget(
            seq, cancel_seq, cancel_code, payload.get("limits")
        )
        # Correlation: the dispatcher stamped the lifecycle request id
        # on the payload; carrying it on the budget lets the worker's
        # slowlog entries join the parent's REQLOG and chrome trace.
        budget.request_id = payload.get("request_id")
        slow_before = session.metrics.slow_queries
        try:
            data = _serve_one(session, verb, payload, budget)
            # Slow-query forensics happen *here*, in the forked
            # evaluator, whose slowlog dies with the worker.  Ship any
            # entries this request produced back as a payload sidecar;
            # the dispatcher pops it before building the client reply
            # and folds it into the parent session's ring
            # (`adopt_slowlog`), so SLOWLOG / PROFILE cover pooled
            # queries exactly like in-process ones.
            added = session.metrics.slow_queries - slow_before
            if added > 0:
                data["slowlog"] = list(session._slowlog)[-added:]
            reply = ("ok", seq, data)
        except BudgetExceeded as exc:
            reply = (
                "budget",
                seq,
                {
                    "message": str(exc),
                    "reason": exc.reason,
                    "limit": exc.limit,
                    "observed": exc.observed,
                    "counters": exc.counters,
                    "elapsed": exc.elapsed,
                },
            )
        except Exception as exc:  # envelope on the parent side
            reply = ("err", seq, {"type": type(exc).__name__, "message": str(exc)})
        try:
            pipe.send(reply)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = (
        "proc", "pipe", "cancel_seq", "cancel_code",
        "busy", "owned", "generation", "version", "seq", "kill_at",
    )

    def __init__(self, proc, pipe, cancel_seq, cancel_code, generation, version):
        self.proc = proc
        self.pipe = pipe
        self.cancel_seq = cancel_seq
        self.cancel_code = cancel_code
        self.busy = False
        #: A dispatch thread is attached and owns the pipe; the reaper
        #: must not touch it until the dispatcher detaches.
        self.owned = False
        self.generation = generation
        #: The database version of the snapshot this worker was forked at.
        self.version = version
        self.seq = 0
        #: Deadline for a cancelled request's reply, after which the
        #: worker is deemed unresponsive and killed.  None = no kill
        #: pending (e.g. an old-generation worker finishing cleanly).
        self.kill_at: Optional[float] = None

    def cancel(self, code: int) -> None:
        # Code first, then seq: the worker reads seq as the trigger.
        self.cancel_code.value = code
        self.cancel_seq.value = self.seq

    def terminate(self) -> None:
        try:
            self.pipe.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=0.2)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=1.0)
        self.pipe.close()


class WorkerPool:
    """Forked evaluator processes serving QUERY / PLAN / EXPLAIN.

    ``session`` is the parent serving session whose database the
    workers snapshot (and whose lock serializes forks against
    mutations).  ``size`` workers are kept per generation;
    ``kill_grace`` is how long a cancelled worker gets to reply before
    being killed and respawned.
    """

    def __init__(
        self,
        session: QuerySession,
        size: int,
        kill_grace: float = 1.0,
    ):
        if size < 1:
            raise ValueError("worker pool size must be >= 1")
        if not fork_available():
            raise RuntimeError(
                "worker pool needs the fork start method "
                "(unavailable on this platform)"
            )
        self.session = session
        self.size = size
        self.kill_grace = kill_grace
        self._ctx = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._seq = itertools.count(1)
        self._workers: List[_Worker] = []
        self._retired: List[_Worker] = []
        self._generation = 0
        self._snapshot_key = None
        self._closed = False
        #: Gauges for /metrics (repro_worker_* families).
        self.restarts = 0
        self.refreshes = 0
        self.dispatches = 0
        self._queue_depth = 0
        #: Monotonic stamps of recent respawns, for health degradation
        #: (a pool stuck in kill-and-respawn loops must not report ok).
        self._restart_times: deque = deque(maxlen=32)
        with self._lock:
            self._refresh_locked(force=True)
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-worker-reaper", daemon=True
        )
        self._reaper.start()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            workers = self._workers + self._retired
            self._workers = []
            self._retired = []
        for worker in workers:
            worker.terminate()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot(self) -> Dict[str, object]:
        """The /metrics gauge payload (``stats["workers"]``).

        Beyond the dispatch counters, this carries the pool-liveness
        fields HEALTH degrades on: ``alive`` (workers whose process is
        actually running), ``recent_restarts`` (respawns in the last
        minute) and ``last_restart_age_s``.
        """
        now = time.monotonic()
        with self._lock:
            workers = list(self._workers)
            restart_times = list(self._restart_times)
            snap: Dict[str, object] = {
                "workers": len(workers),
                "size": self.size,
                "queue_depth": self._queue_depth,
                "restarts": self.restarts,
                "refreshes": self.refreshes,
                "dispatches": self.dispatches,
            }
        snap["alive"] = sum(1 for w in workers if w.proc.is_alive())
        snap["recent_restarts"] = sum(
            1 for stamp in restart_times if now - stamp < 60.0
        )
        snap["last_restart_age_s"] = (
            now - restart_times[-1] if restart_times else None
        )
        return snap

    # -- forking --------------------------------------------------------
    def _spawn_locked(self, generation: int) -> _Worker:
        pipe, child_pipe = self._ctx.Pipe(duplex=True)
        cancel_seq = self._ctx.RawValue("q", -1)
        cancel_code = self._ctx.RawValue("i", 0)
        # Fork under the session lock: a mutation cannot be mid-flight,
        # so the child's copy-on-write database is a committed snapshot.
        with self.session._lock:
            version = self.session.database.version
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    self.session.database,
                    self.session.planner.max_depth,
                    child_pipe,
                    pipe,
                    cancel_seq,
                    cancel_code,
                    self.session.slow_query_ms,
                    self.session._slowlog.maxlen,
                ),
                name=f"repro-worker-g{generation}",
                daemon=True,
            )
            proc.start()
        child_pipe.close()
        return _Worker(proc, pipe, cancel_seq, cancel_code, generation, version)

    def _refresh_locked(self, force: bool = False) -> None:
        """Fork a fresh generation when the database drifted."""
        # Every mutation bumps one of its two counters, so the O(1)
        # version stamp identifies a snapshot.
        key = self.session.database.version
        if not force and key == self._snapshot_key:
            return
        self._generation += 1
        if not force:
            self.refreshes += 1
            log_event(
                _log, logging.DEBUG, "pool_refresh",
                generation=self._generation,
            )
        for worker in self._workers:
            if worker.busy:
                # Mid-request on the old snapshot: let it finish (its
                # request predates the mutation); retire on reply.
                self._retired.append(worker)
            else:
                worker.terminate()
        self._workers = [
            self._spawn_locked(self._generation) for _ in range(self.size)
        ]
        self._snapshot_key = key

    # -- dispatch -------------------------------------------------------
    def _acquire(self) -> _Worker:
        with self._free:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._queue_depth += 1
            try:
                while True:
                    self._refresh_locked()
                    worker = next(
                        (w for w in self._workers if not w.busy), None
                    )
                    if worker is not None:
                        worker.busy = True
                        worker.owned = True
                        worker.kill_at = None
                        return worker
                    self._free.wait(timeout=_POLL_INTERVAL)
                    if self._closed:
                        raise RuntimeError("worker pool is closed")
            finally:
                self._queue_depth -= 1

    def _release(self, worker: _Worker) -> None:
        """Return a worker after a clean reply."""
        with self._free:
            worker.owned = False
            worker.busy = False
            if worker.generation != self._generation:
                # Finished on a stale snapshot: do not rejoin the pool.
                try:
                    self._retired.remove(worker)
                except ValueError:
                    pass
                self._free.notify_all()
                retire = worker
            else:
                self._free.notify_all()
                return
        retire.terminate()

    def _abandon(self, worker: _Worker, code: int) -> None:
        """Detach from a worker whose request was cancelled; the reaper
        waits out the kill grace and reuses or kills it."""
        worker.cancel(code)
        with self._free:
            worker.owned = False
            worker.kill_at = time.monotonic() + self.kill_grace
            if worker not in self._retired:
                self._retired.append(worker)
            try:
                self._workers.remove(worker)
            except ValueError:
                pass
            if (
                not self._closed
                and worker.generation == self._generation
                and len(self._workers) < self.size
            ):
                self._workers.append(self._spawn_locked(self._generation))
            self._free.notify_all()

    def _replace_dead(self, worker: _Worker) -> None:
        with self._free:
            worker.owned = False
            try:
                self._workers.remove(worker)
            except ValueError:
                pass
            try:
                self._retired.remove(worker)
            except ValueError:
                pass
            self.restarts += 1
            self._restart_times.append(time.monotonic())
            log_event(
                _log, logging.INFO, "worker_respawn",
                pid=worker.proc.pid, generation=worker.generation,
                restarts=self.restarts,
            )
            if (
                not self._closed
                and worker.generation == self._generation
                and len(self._workers) < self.size
            ):
                self._workers.append(self._spawn_locked(self._generation))
            self._free.notify_all()
        worker.terminate()

    def execute(
        self,
        verb: str,
        source: str,
        max_depth: Optional[int] = None,
        limits: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        peer_gone: Optional[Callable[[], bool]] = None,
    ) -> Dict[str, Any]:
        """Run one heavy verb on a worker; blocks the calling thread.

        Raises :class:`concurrent.futures.TimeoutError` when ``timeout``
        passes (the worker is cancelled remotely, then killed if it
        ignores the flag), lets ``peer_gone()`` abort the request the
        same way, re-raises a worker-side
        :class:`~repro.resilience.BudgetExceeded` with its structured
        fields intact, and wraps any other worker-side exception in
        :class:`RemoteEvaluationError`.
        """
        seq = next(self._seq)
        payload: Dict[str, Any] = {"source": source}
        if max_depth is not None:
            payload["max_depth"] = max_depth
        if limits:
            payload["limits"] = {
                key: value for key, value in limits.items() if value is not None
            }
        request_id = current_id()
        if request_id is not None:
            payload["request_id"] = request_id
        wait_start = time.perf_counter()
        worker = self._acquire()
        self.session.metrics.record_worker_wait(
            time.perf_counter() - wait_start
        )
        mark_stage("worker")
        worker.seq = seq
        try:
            worker.pipe.send((seq, verb, payload))
        except (BrokenPipeError, OSError):
            self._replace_dead(worker)
            raise WorkerDied("evaluator worker died before the request")
        with self._lock:
            self.dispatches += 1
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if worker.pipe.poll(_POLL_INTERVAL):
                    kind, reply_seq, data = worker.pipe.recv()
                    if reply_seq != seq:
                        continue  # stale reply from a cancelled request
                    self._release(worker)
                    if kind == "ok":
                        data["version"] = worker.version
                    return self._unwrap(kind, data)
            except (EOFError, OSError):
                self._replace_dead(worker)
                raise WorkerDied("evaluator worker died mid-request")
            if deadline is not None and time.monotonic() >= deadline:
                self._abandon(worker, _CANCEL_TIMEOUT)
                raise FutureTimeoutError()
            if peer_gone is not None and peer_gone():
                self._abandon(worker, _CANCEL_DISCONNECT)
                raise ClientGone("client disconnected mid-request")

    @staticmethod
    def _unwrap(kind: str, data: Dict[str, Any]) -> Dict[str, Any]:
        if kind == "ok":
            return data
        if kind == "budget":
            raise BudgetExceeded(
                data["message"],
                reason=data["reason"],
                limit=data["limit"],
                observed=data["observed"],
                counters=data["counters"],
                elapsed=data["elapsed"],
            )
        raise RemoteEvaluationError(data["type"], data["message"])

    # -- reaper ---------------------------------------------------------
    def _reaper_loop(self) -> None:
        """Retire cancelled/stale workers without blocking dispatchers.

        A cancelled worker that replies within the kill grace is still
        healthy: it rejoins the pool if its snapshot is current, or is
        terminated if stale.  One that stays silent past its ``kill_at``
        is hard-killed and (when current-generation) respawned —
        counted in ``repro_worker_restarts_total``.
        """
        while True:
            time.sleep(_POLL_INTERVAL)
            with self._free:
                if self._closed:
                    return
                candidates = [w for w in self._retired if not w.owned]
            now = time.monotonic()
            for worker in candidates:
                if not worker.proc.is_alive():
                    self._replace_dead(worker)
                    continue
                replied = False
                try:
                    while worker.pipe.poll(0):
                        worker.pipe.recv()  # drain the discarded reply
                        replied = True
                except (EOFError, OSError):
                    self._replace_dead(worker)
                    continue
                if replied:
                    with self._free:
                        try:
                            self._retired.remove(worker)
                        except ValueError:
                            pass
                        worker.busy = False
                        worker.kill_at = None
                        if (
                            not self._closed
                            and worker.generation == self._generation
                            and len(self._workers) < self.size
                        ):
                            self._workers.append(worker)
                            worker = None
                        self._free.notify_all()
                    if worker is not None:
                        worker.terminate()
                    continue
                if worker.kill_at is not None and now >= worker.kill_at:
                    worker.proc.kill()
                    worker.proc.join(timeout=1.0)
                    self._replace_dead(worker)


class ClientGone(ConnectionError):
    """The dispatcher's ``peer_gone`` probe fired mid-request.

    Defined here (rather than importing the server's
    ``ClientDisconnected``) to keep this module importable without the
    socket front ends; the dispatchers translate it.
    """
