"""The line protocol, defined once under the socket transport.

Protocol: one request per line, one JSON reply envelope per line.

========  ==========================  =======================================
verb      argument                    reply payload
========  ==========================  =======================================
QUERY     a query, e.g. ``sg(ann,Y)``  ``answers`` (rows of rendered terms),
                                      ``count``, ``strategy``, cache flags
PLAN      a query                     ``plan`` (the explain text),
                                      ``strategy``, ``cached``
FACT      a clause, e.g.              ``added`` plus the new version stamp;
          ``parent(ann, bea).``       rules are accepted too and bump the
                                      IDB version instead
RETRACT   a ground fact, e.g.         ``removed`` plus the new version
          ``parent(ann, bea).``       stamp; only stored facts can be
                                      retracted, not rules
SUBSCRIBE ``name/arity`` or a         ``subscription`` (an id); from then
          literal, e.g. ``sg(X,Y)``   on every committed mutation batch
                                      that changes the predicate pushes a
                                      ``DELTA`` line (``adds``/``dels``)
                                      on this connection
UNSUBSCRIBE  an id (optional)         drops that subscription (or, with
                                      no argument, all on this
                                      connection); ``removed`` lists ids
STATS     —                           the ``ServiceMetrics`` snapshot plus
                                      cache/database state
EXPLAIN   a query                     evaluate with tracing on; the full
                                      EXPLAIN report — per-round delta
                                      sizes, observed-vs-predicted
                                      expansion ratios, split check
TRACE     a query (optional)          with an argument: alias of EXPLAIN;
                                      without: the last EXPLAIN report
METRICS   —                           ``body``: the metrics in Prometheus
                                      text exposition format
PROFILE   a query                     evaluate with span profiling on; the
                                      per-rule/per-stage wall-clock
                                      attribution report
SLOWLOG   ``CLEAR`` (optional)        retained slow-query entries (span
                                      profile attached), most recent
                                      first; ``CLEAR`` drops them
REQLOG    a limit (optional) or       the flight recorder's per-request
          ``CLEAR``                   stage timelines (read/parse/
                                      admission/eval/serialize/flush
                                      milliseconds per request), most
                                      recent first; ``CLEAR`` drops them
HEALTH    —                           liveness/pressure summary (uptime,
                                      error/timeout/slow-query counts,
                                      cache and database state)
RECORD    ``START <path>``,           workload capture control: START
          ``STOP`` or ``STATUS``      snapshots the EDB and records every
          (optional)                  completed request to a replayable
                                      JSONL archive at ``path``; STOP
                                      flushes and closes it; STATUS (or
                                      no argument) reports the recorder
========  ==========================  =======================================

Raw HTTP ``GET`` request lines on the same port are answered with a
minimal ``HTTP/1.0`` response (connection closed afterwards):
``/metrics`` carries the Prometheus text page, ``/healthz`` the HEALTH
summary as JSON, ``/slowlog`` the slow-query log and ``/reqlog`` the
flight-recorder ring as JSON — so the TCP port doubles as a
scrape/probe target for ``curl``/Prometheus without a separate HTTP
server.

Every reply is ``{"ok": true, "verb": ..., ...}`` or
``{"ok": false, "verb": ..., "error": {"type": ..., "message": ...}}`` —
parse errors, planning errors, evaluation errors and timeouts all come
back as structured envelopes; the connection (and the server) survives.

Heavy verbs run under a wall-clock ``timeout``, a chain-depth budget
(``max_depth``) and an optional resource ``budget`` template
(tuples/rounds/live substitutions); a request that outlives its
timeout, or whose client vanishes, has its
:class:`~repro.resilience.Budget` *cancelled* and aborts at its next
cooperative checkpoint.  Overload and repeated blowouts degrade
gracefully rather than crash:

* an :class:`~repro.resilience.AdmissionController` sheds excess
  heavy-verb requests with ``Overloaded`` envelopes carrying
  ``retry_after`` (observability verbs are never shed);
* a :class:`~repro.resilience.CircuitBreaker` keyed on the plan-cache
  key trips after consecutive budget blowouts on the same query shape
  and serves degraded answers while open — a stale cached result if one
  exists, else an existence-only probe under a tight budget, else a
  ``CircuitOpen`` envelope with ``retry_after``.

``SUBSCRIBE`` turns the connection into a push channel: one
``{"ok": true, "verb": "DELTA", "subscription": id, "predicate":
"name/arity", "adds": [...], "dels": [...]}`` line per committed
mutation batch that changes the subscribed predicate.  For stored
predicates the deltas come straight from the batch; for derived
predicates they come from the session's incremental view maintenance
(the session must be constructed with ``ivm=True``).  Each subscriber
may have at most ``push_backlog`` bytes of undelivered DELTA payload;
overflowing it drops the subscriber and bumps
``repro_push_dropped_total``.

:class:`ProtocolCore` owns all of the above.  The transport
(:class:`~repro.service.eventloop.AsyncQueryServer`, one selector
loop) subclasses it, keeps only its socket machinery, and implements
two hooks: :meth:`~ProtocolCore._evaluate` (run a heavy verb) and
:meth:`~ProtocolCore._push` (deliver one DELTA line).
"""

from __future__ import annotations

import json
import logging
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Optional, Tuple

from ..datalog.literals import Predicate
from ..datalog.parser import parse_rule
from ..engine.database import MutationBatch
from ..observe import (
    RequestRecord,
    get_logger,
    log_event,
    mark_stage,
    set_active,
    set_verb,
)
from ..resilience import AdmissionController, Budget, BudgetExceeded, CircuitBreaker
from .session import QuerySession, _render_rows
from .workers import RemoteEvaluationError

_log = get_logger("protocol")

__all__ = [
    "ClientDisconnected",
    "ProtocolCore",
    "install_signal_handlers",
]

#: Refuse absurd request lines instead of buffering them.
MAX_LINE_BYTES = 64 * 1024

#: Hard ceiling on bytes drained after an oversized request line; a
#: peer still streaming past this is hosing us and gets disconnected.
MAX_DRAIN_BYTES = 512 * 1024

#: Verbs that evaluate (or plan) a query and therefore go through
#: admission control; STATS/HEALTH/METRICS/SLOWLOG and the mutation
#: verbs (FACT/RETRACT) stay exempt so the health surfaces and the
#: write path remain responsive under load shedding.
HEAVY_VERBS = frozenset({"QUERY", "PLAN", "EXPLAIN", "TRACE", "PROFILE"})


class ClientDisconnected(ConnectionError):
    """The peer vanished while its request was still being served."""


def install_signal_handlers(server, signals=None) -> bool:
    """Route SIGTERM/SIGINT into the server's graceful shutdown path.

    Only an explicit ``shutdown()`` call flushes the WAL, finalizes a
    running capture, drains the deferred stage-latency queue and reaps
    workers; a signal would skip all of it.  This wires the signals to
    ``request_shutdown()`` — which merely makes ``serve_forever()``
    return, so the *one* teardown path (the caller's
    ``finally: server.shutdown()``) runs for signals exactly as it does
    for KeyboardInterrupt and normal exit.

    Returns ``False`` (and installs nothing) off the main thread, where
    CPython refuses signal handler registration.
    """
    import signal as signal_module

    if signals is None:
        signals = (signal_module.SIGTERM, signal_module.SIGINT)

    def _handle(signum, frame):  # noqa: ARG001 (signal handler shape)
        server.request_shutdown()

    try:
        for signum in signals:
            signal_module.signal(signum, _handle)
    except ValueError:  # not the main thread
        return False
    return True


def _error_envelope(verb: str, exc_type: str, message: str) -> Dict[str, object]:
    return {
        "ok": False,
        "verb": verb,
        "error": {"type": exc_type, "message": message},
    }


#: The one reply to a request line over :data:`MAX_LINE_BYTES` (never
#: recorded or captured, so the transport sends these bytes as is).
OVERSIZED_WIRE = json.dumps(
    _error_envelope(
        "?", "ProtocolError", f"request line over {MAX_LINE_BYTES} bytes"
    )
).encode("utf-8") + b"\n"


def _strip(argument: str) -> str:
    """Drop optional Prolog dressing (``?- ... .``) from a query."""
    if argument.startswith("?-"):
        argument = argument[2:].strip()
    if argument.endswith("."):
        argument = argument[:-1]
    return argument


def _parse_clause(argument: str):
    return parse_rule(argument if argument.endswith(".") else argument + ".")


def http_response(session: QuerySession, raw: bytes) -> bytes:
    """One-shot HTTP/1.0 response for a ``GET ...`` request line on the
    line-protocol port: /metrics (Prometheus scrape), /healthz,
    /slowlog and /reqlog probes."""
    try:
        path = raw.split()[1].decode("ascii", errors="replace")
    except IndexError:
        path = "/"
    path = path.split("?", 1)[0]
    if path == "/metrics":
        status = b"200 OK"
        content_type = b"text/plain; version=0.0.4; charset=utf-8"
        body = session.metrics_text().encode("utf-8")
    elif path == "/healthz":
        status = b"200 OK"
        content_type = b"application/json; charset=utf-8"
        body = json.dumps(session.health()).encode("utf-8")
    elif path == "/slowlog":
        status = b"200 OK"
        content_type = b"application/json; charset=utf-8"
        body = json.dumps(session.slowlog()).encode("utf-8")
    elif path == "/reqlog":
        status = b"200 OK"
        content_type = b"application/json; charset=utf-8"
        body = json.dumps(session.reqlog()).encode("utf-8")
    else:
        status = b"404 Not Found"
        content_type = b"text/plain; charset=utf-8"
        body = (
            f"no route {path}; try /metrics, /healthz, /slowlog or /reqlog\n"
        ).encode("utf-8")
    return (
        b"HTTP/1.0 " + status + b"\r\n"
        b"Content-Type: " + content_type + b"\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        b"Connection: close\r\n\r\n" + body
    )


class _Subscription:
    """One SUBSCRIBE registration: a predicate feeding one connection."""

    __slots__ = ("id", "predicate", "connection")

    def __init__(self, sub_id: int, predicate: Predicate, connection):
        self.id = sub_id
        self.predicate = predicate
        self.connection = connection


class _Subscriptions:
    """Thread-safe registry of live subscriptions; ``connection`` is
    whatever object the transport identifies a client by."""

    def __init__(self):
        self._lock = threading.Lock()
        self._next_id = 1
        self._by_id: Dict[int, _Subscription] = {}
        self._by_conn: Dict[object, List[int]] = {}

    def add(self, connection, predicate: Predicate) -> _Subscription:
        with self._lock:
            sub = _Subscription(self._next_id, predicate, connection)
            self._next_id += 1
            self._by_id[sub.id] = sub
            self._by_conn.setdefault(connection, []).append(sub.id)
            return sub

    def remove(self, sub_id: int, connection=None) -> Optional[_Subscription]:
        """Drop ``sub_id``; with ``connection`` given, only if it owns it."""
        with self._lock:
            sub = self._by_id.get(sub_id)
            if sub is None:
                return None
            if connection is not None and sub.connection is not connection:
                return None
            del self._by_id[sub_id]
            ids = self._by_conn.get(sub.connection)
            if ids is not None:
                try:
                    ids.remove(sub_id)
                except ValueError:
                    pass
                if not ids:
                    del self._by_conn[sub.connection]
            return sub

    def drop_connection(self, connection) -> List[int]:
        """The connection closed: forget its subscriptions."""
        with self._lock:
            ids = self._by_conn.pop(connection, [])
            for sub_id in ids:
                self._by_id.pop(sub_id, None)
            return ids

    def ids_for(self, connection) -> List[int]:
        with self._lock:
            return list(self._by_conn.get(connection, ()))

    def is_subscribed(self, connection) -> bool:
        with self._lock:
            return connection in self._by_conn

    def for_predicate(self, predicate: Predicate) -> List[_Subscription]:
        with self._lock:
            return [
                sub
                for sub in self._by_id.values()
                if sub.predicate == predicate
            ]

    def count(self) -> int:
        with self._lock:
            return len(self._by_id)


class ProtocolCore:
    """Everything about serving a :class:`QuerySession` that does not
    touch a socket: verb dispatch, envelopes, admission, the breaker's
    degradation ladder, subscriptions and the DELTA fan-out, RECORD,
    the HTTP side routes and shutdown hygiene.

    ``timeout`` is the per-request wall-clock budget in seconds (None
    disables it); ``max_depth`` the per-request chain-depth budget
    (None defers to the session's own).  ``budget`` is a
    :class:`~repro.resilience.Budget` *template* forked per heavy
    request.  ``max_pending`` bounds admitted heavy-verb requests (None
    disables admission control) and ``verb_limits`` per-verb
    concurrency.  ``breaker_threshold`` consecutive budget blowouts on
    one plan-cache key trip the circuit breaker for
    ``breaker_cooldown`` seconds (None disables the breaker).
    ``push_backlog`` caps each subscriber's undelivered DELTA bytes.

    The transport subclass sets :attr:`ORIGIN`, implements the two
    hooks (:meth:`_evaluate`, :meth:`_push`) and its own lifecycle
    (``address``/``serve_forever``/``start``/``request_shutdown``/
    :meth:`_stop_transport`), and feeds request lines to
    :meth:`_respond`.
    """

    #: Stamped on flight-recorder records and capture archives.
    ORIGIN: str

    #: The verb table: wire verb → handler method, in banner order.
    VERBS: Dict[str, str] = {
        "QUERY": "_do_query",
        "PLAN": "_do_plan",
        "FACT": "_do_fact",
        "RETRACT": "_do_retract",
        "SUBSCRIBE": "_do_subscribe",
        "UNSUBSCRIBE": "_do_unsubscribe",
        "STATS": "_do_stats",
        "EXPLAIN": "_do_explain",
        "TRACE": "_do_trace",
        "METRICS": "_do_metrics",
        "PROFILE": "_do_profile",
        "SLOWLOG": "_do_slowlog",
        "REQLOG": "_do_reqlog",
        "HEALTH": "_do_health",
        "RECORD": "_do_record",
    }

    def __init__(
        self,
        session: QuerySession,
        timeout: Optional[float],
        max_depth: Optional[int],
        budget: Optional[Budget],
        max_pending: Optional[int],
        verb_limits: Dict[str, int],
        retry_after: float,
        idle_timeout: Optional[float],
        breaker_threshold: Optional[int],
        breaker_cooldown: float,
        push_backlog: int,
    ):
        self.session = session
        session.lifecycle.origin = self.ORIGIN
        self.timeout = timeout
        self.max_depth = max_depth
        self.budget = budget
        self.retry_after = retry_after
        self.idle_timeout = idle_timeout
        self.push_backlog = push_backlog
        self.admission: Optional[AdmissionController] = None
        if max_pending is not None:
            self.admission = AdmissionController(
                max_pending=max_pending,
                verb_limits=verb_limits,
                retry_after=retry_after,
            )
        self.breaker: Optional[CircuitBreaker] = None
        if breaker_threshold is not None:
            self.breaker = CircuitBreaker(
                threshold=breaker_threshold, cooldown=breaker_cooldown
            )
            # STATS / the Prometheus page surface breaker state without
            # the metrics module importing the breaker.
            session.metrics.breaker_provider = self.breaker.snapshot
        self.subscriptions = _Subscriptions()
        # STATS / the Prometheus page surface the live subscriber count.
        session.metrics.subscriber_provider = self.subscriptions.count
        # Registered after the session's own ViewManager listener (the
        # session constructor ran first), so by the time _on_mutation
        # sees a batch the maintenance report for it is already final.
        # Nothing can be subscribed before the transport serves, so the
        # listener is inert until then.
        session.database.add_mutation_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def _evaluate(self, verb: str, source: str, connection) -> Dict[str, Any]:
        """Run QUERY/PLAN/EXPLAIN/PROFILE on ``source`` wherever this
        transport evaluates, and return the
        :func:`~repro.service.workers._serve_one` payload.

        Raises :class:`~repro.resilience.BudgetExceeded`,
        :class:`ClientDisconnected` or
        :class:`concurrent.futures.TimeoutError` for the ladder in
        :meth:`handle_line` / :meth:`_do_query` to render.
        """
        raise NotImplementedError

    def _push(self, sub: _Subscription, wire: bytes) -> None:
        """Deliver one DELTA line to ``sub``'s connection without
        blocking the mutating thread.  When the subscriber's backlog
        would pass ``push_backlog``, report it with
        :meth:`_drop_subscriber` and hang up on the connection."""
        raise NotImplementedError

    def _stop_transport(self) -> None:
        """Stop accepting, stop the serve loop, close every socket."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self.session.database.remove_mutation_listener(self._on_mutation)
        self._stop_transport()
        # Final-snapshot hygiene: push the deferred stage-latency
        # samples into the histograms so a scrape of the metrics object
        # after shutdown sees every committed request, close any live
        # capture archive (flush + fsync) instead of leaking it, and
        # flush + fsync + checkpoint the durability store so a restart
        # recovers from a snapshot instead of a full WAL replay.
        self.session.lifecycle.drain_metrics(self.session.metrics)
        if self.session.capture.active:
            self.session.capture.stop()
        if self.session.persist is not None:
            self.session.persist.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # One request line in, one reply's wire bytes out
    # ------------------------------------------------------------------
    def _respond(
        self, line: str, record: Optional[RequestRecord], connection
    ) -> bytes:
        """Serve one decoded, non-empty request line.

        Runs on the thread that owns the request (so the active-record
        fast path applies), stamps the eval/serialize stages and taps
        the capture recorder.  Raises :class:`ClientDisconnected` when
        there is nobody left to reply to.
        """
        if record is not None:
            record.detail = line[:200]
            # Guarded at the call site: fires per request, and even a
            # disabled log_event costs a kwargs dict.
            if _log.isEnabledFor(logging.DEBUG):
                log_event(
                    _log, logging.DEBUG, "dispatch",
                    request_id=record.id, line=record.detail,
                )
            set_active(record)
        try:
            reply = self.handle_line(line, connection)
        finally:
            if record is not None:
                set_active(None)
        if record is not None:
            record.mark("eval")
        wire = json.dumps(reply).encode("utf-8") + b"\n"
        if record is not None:
            record.mark("serialize")
        # After serialization so the recorder's writer thread can
        # digest the exact wire bytes without re-dumping.
        capture = self.session.capture
        if capture.active:
            capture.record(line, reply, record, wire)
        return wire

    def _respond_http(
        self, raw: bytes, record: Optional[RequestRecord]
    ) -> bytes:
        """Serve a raw ``GET ...`` request line; the transport closes
        the connection once the response is written."""
        if record is not None:
            record.verb = "HTTP"
            record.detail = raw.decode("utf-8", errors="replace").strip()[:200]
            record.mark("parse")
        response = http_response(self.session, raw)
        if record is not None:
            record.mark("eval")
            record.mark("serialize")
        return response

    def _finalize_record(
        self, record: Optional[RequestRecord], status: str
    ) -> None:
        if record is not None:
            record.finish(status)
            self.session.lifecycle.commit(record, self.session.metrics)

    def handle_line(self, line: str, connection=None) -> Dict[str, object]:
        """Dispatch one request line to its verb handler.

        ``connection`` (when serving a real socket) identifies the
        client: SUBSCRIBE pushes to it, and long-running verbs cancel
        their evaluation when it vanishes.  Chaos and saturation tests
        drive this directly, without a socket.
        """
        verb, _, argument = line.partition(" ")
        verb = verb.upper()
        argument = argument.strip()
        set_verb(verb)
        mark_stage("parse")
        handler = self.VERBS.get(verb)
        if handler is None:
            *head, last = self.VERBS
            return _error_envelope(
                verb, "ProtocolError",
                f"unknown verb {verb!r}; expected {', '.join(head)} or {last}",
            )
        metered = self.admission is not None and verb in HEAVY_VERBS
        if metered and not self.admission.try_acquire(verb):
            self.session.metrics.record_rejected(verb)
            reply = _error_envelope(
                verb, "Overloaded",
                "server at capacity; retry after the indicated delay",
            )
            reply["retry_after"] = self.retry_after
            return reply
        mark_stage("admission")
        try:
            return getattr(self, handler)(argument, connection)
        except ClientDisconnected:
            raise  # nothing to reply to; the transport closes the socket
        except FutureTimeoutError:
            self.session.metrics.record_timeout()
            return _error_envelope(
                verb, "Timeout", f"request exceeded {self.timeout}s budget"
            )
        except RemoteEvaluationError as exc:
            self.session.metrics.record_error()
            return _error_envelope(verb, exc.exc_type, str(exc))
        except Exception as exc:  # envelope instead of a dead connection
            self.session.metrics.record_error()
            return _error_envelope(verb, type(exc).__name__, str(exc))
        finally:
            if metered:
                self.admission.release(verb)

    # ------------------------------------------------------------------
    # Heavy verbs
    # ------------------------------------------------------------------
    def _degraded_reply(self, source: str, key: object) -> Dict[str, object]:
        """Answer while the breaker is open: stale cached rows if any,
        else an existence-only probe under a tight budget, else a
        ``CircuitOpen`` envelope with ``retry_after``."""
        cached = self.session.peek_cached(source)
        if cached is not None:
            strategy, answers = cached
            return {
                "ok": True,
                "verb": "QUERY",
                "query": source,
                "strategy": strategy,
                "answers": answers,
                "count": len(answers),
                "plan_cached": True,
                "result_cached": True,
                "degraded": "cached",
            }
        try:
            found = self.session.exists(
                source, budget=Budget(timeout=0.25, max_rounds=100_000)
            )
        except Exception:
            pass  # even the probe is over budget (or unparsable)
        else:
            return {
                "ok": True,
                "verb": "QUERY",
                "query": source,
                "degraded": "existence",
                "exists": found,
                "answers": [],
                "count": 0,
            }
        remaining = self.breaker.remaining(key) if self.breaker else 0.0
        reply = _error_envelope(
            "QUERY", "CircuitOpen",
            "circuit open for this query shape after repeated budget "
            f"blowouts; retry in {remaining:.2f}s",
        )
        reply["retry_after"] = remaining
        return reply

    def _do_query(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope("QUERY", "ProtocolError", "QUERY needs a query")
        source = _strip(argument)
        key = None
        if self.breaker is not None:
            try:
                key = self.session.plan_key(source)
            except Exception:
                key = None  # parse errors surface from evaluation below
            if key is not None and not self.breaker.allow(key):
                return self._degraded_reply(source, key)
        try:
            payload = self._evaluate("QUERY", source, connection)
        except BudgetExceeded as exc:
            if self.breaker is not None and key is not None:
                self.breaker.record_blowout(key)
            if exc.reason == "deadline":
                # The evaluation's own deadline races the transport's
                # wait; both mean the same thing, so both render as
                # Timeout.
                self.session.metrics.record_timeout()
                reply = _error_envelope("QUERY", "Timeout", str(exc))
            else:
                self.session.metrics.record_error()
                reply = _error_envelope("QUERY", "BudgetExceeded", str(exc))
            reply["budget"] = exc.as_dict()
            reply["retry_after"] = self.retry_after
            return reply
        if self.breaker is not None and key is not None:
            self.breaker.record_success(key)
        return {
            "ok": True,
            "verb": "QUERY",
            "query": source,
            "strategy": payload["strategy"],
            "answers": payload["answers"],
            "count": payload["count"],
            "plan_cached": payload["plan_cached"],
            "result_cached": payload["result_cached"],
            "elapsed_ms": payload["elapsed"] * 1e3,
        }

    def _do_plan(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope("PLAN", "ProtocolError", "PLAN needs a query")
        payload = self._evaluate("PLAN", _strip(argument), connection)
        return {
            "ok": True,
            "verb": "PLAN",
            "strategy": payload["strategy"],
            "recursion_class": payload["recursion_class"],
            "plan": payload["plan"],
            "cached": payload["cached"],
        }

    def _do_explain(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope(
                "EXPLAIN", "ProtocolError", "EXPLAIN needs a query"
            )
        payload = self._evaluate("EXPLAIN", _strip(argument), connection)
        return {"ok": True, "verb": "EXPLAIN", "trace": payload["report"]}

    def _do_trace(self, argument: str, connection=None) -> Dict[str, object]:
        if argument:
            reply = self._do_explain(argument, connection)
            reply["verb"] = "TRACE"
            return reply
        report = self.session.last_trace
        if report is None:
            return _error_envelope(
                "TRACE", "NoTrace",
                "no traced query yet; use EXPLAIN <query> or TRACE <query>",
            )
        return {"ok": True, "verb": "TRACE", "trace": report}

    def _do_profile(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope(
                "PROFILE", "ProtocolError", "PROFILE needs a query"
            )
        payload = self._evaluate("PROFILE", _strip(argument), connection)
        return {"ok": True, "verb": "PROFILE", "profile": payload["report"]}

    # ------------------------------------------------------------------
    # Mutation verbs
    # ------------------------------------------------------------------
    def _do_fact(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope("FACT", "ProtocolError", "FACT needs a clause")
        rule = _parse_clause(argument)
        database = self.session.database
        before = database.version
        self.session.add_rule(rule)  # serializes with in-flight queries
        return {
            "ok": True,
            "verb": "FACT",
            "clause": str(rule),
            "kind": "fact" if rule.is_fact() else "rule",
            "added": database.version != before,
            "edb_version": database.edb_version,
            "idb_version": database.idb_version,
        }

    def _do_retract(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope(
                "RETRACT", "ProtocolError", "RETRACT needs a ground fact"
            )
        rule = _parse_clause(argument)
        if not rule.is_fact():
            return _error_envelope(
                "RETRACT", "ProtocolError",
                "RETRACT takes a ground fact; rules cannot be retracted",
            )
        database = self.session.database
        removed = self.session.retract_fact(rule.head.name, rule.head.args)
        return {
            "ok": True,
            "verb": "RETRACT",
            "clause": str(rule),
            "removed": removed,
            "edb_version": database.edb_version,
            "idb_version": database.idb_version,
        }

    # ------------------------------------------------------------------
    # Subscriptions and the DELTA fan-out
    # ------------------------------------------------------------------
    def _do_subscribe(self, argument: str, connection=None) -> Dict[str, object]:
        if not argument:
            return _error_envelope(
                "SUBSCRIBE", "ProtocolError",
                "SUBSCRIBE needs a predicate (name/arity or a literal)",
            )
        if connection is None:
            return _error_envelope(
                "SUBSCRIBE", "ProtocolError",
                "SUBSCRIBE needs a live connection to push deltas to",
            )
        argument = _strip(argument)
        if "/" in argument:
            name, _, arity_text = argument.partition("/")
            try:
                arity = int(arity_text)
            except ValueError:
                return _error_envelope(
                    "SUBSCRIBE", "ProtocolError",
                    "SUBSCRIBE takes name/arity with an integer arity, "
                    "or a literal",
                )
            predicate = Predicate(name.strip(), arity)
        else:
            predicate = _parse_clause(argument).head.predicate
        problem = self.session.subscribable(predicate)
        if problem is not None:
            return _error_envelope("SUBSCRIBE", "Unsubscribable", problem)
        sub = self.subscriptions.add(connection, predicate)
        return {
            "ok": True,
            "verb": "SUBSCRIBE",
            "subscription": sub.id,
            "predicate": str(predicate),
        }

    def _do_unsubscribe(
        self, argument: str, connection=None
    ) -> Dict[str, object]:
        if argument:
            try:
                candidates = [int(argument)]
            except ValueError:
                return _error_envelope(
                    "UNSUBSCRIBE", "ProtocolError",
                    "UNSUBSCRIBE takes an optional integer subscription id",
                )
        elif connection is not None:
            candidates = self.subscriptions.ids_for(connection)
        else:
            candidates = []
        removed = [
            sub_id for sub_id in candidates
            if self.subscriptions.remove(sub_id, connection=connection)
        ]
        return {"ok": True, "verb": "UNSUBSCRIBE", "removed": removed}

    def _on_mutation(self, batch: MutationBatch) -> None:
        """Database listener: fan one committed batch out as DELTA lines.

        Runs on the mutating thread, synchronously with the batch — the
        session's maintenance report is still the one for *this* batch
        — but :meth:`_push` only queues, so a slow subscriber never
        blocks the mutating caller.
        """
        if not self.subscriptions.count():
            return
        deltas: Dict[Predicate, Tuple[list, list]] = {}
        for predicate, delta in batch.deltas.items():
            deltas[predicate] = (list(delta.added), list(delta.removed))
        views = self.session.views
        if views is not None:
            report = views.last_report
            if report is not None and report.batch is batch:
                # Derived deltas override raw ones: when a predicate is
                # both stored and derived, the maintained net change is
                # the truthful one.
                for predicate, (adds, dels) in report.derived.items():
                    deltas[predicate] = (list(adds), list(dels))
        for predicate, (adds, dels) in deltas.items():
            if not adds and not dels:
                continue
            subs = self.subscriptions.for_predicate(predicate)
            if not subs:
                continue
            envelope = {
                "ok": True,
                "verb": "DELTA",
                "predicate": str(predicate),
                "adds": _render_rows(adds),
                "dels": _render_rows(dels),
                "edb_version": batch.edb_version,
            }
            for sub in subs:
                payload = dict(envelope)
                payload["subscription"] = sub.id
                self._push(sub, json.dumps(payload).encode("utf-8") + b"\n")

    def _drop_subscriber(self, sub: _Subscription) -> bool:
        """Forget a subscriber whose push channel overflowed.  Returns
        ``False`` when it was already gone; otherwise the accounting is
        done and the transport hangs up on ``sub.connection``.
        Dropping bounds server memory: a consumer that is not keeping
        up must not grow a backlog without limit."""
        if self.subscriptions.remove(sub.id) is None:
            return False
        self.session.metrics.record_push_dropped()
        log_event(
            _log, logging.INFO, "push_drop",
            subscription=sub.id, predicate=str(sub.predicate),
        )
        self.session.metrics.record_disconnect()
        return True

    # ------------------------------------------------------------------
    # Observability verbs
    # ------------------------------------------------------------------
    def _do_stats(self, argument: str, connection=None) -> Dict[str, object]:
        return {"ok": True, "verb": "STATS", "stats": self.session.stats()}

    def _do_metrics(self, argument: str, connection=None) -> Dict[str, object]:
        return {
            "ok": True,
            "verb": "METRICS",
            "content_type": "text/plain; version=0.0.4",
            "body": self.session.metrics_text(),
        }

    def _do_slowlog(self, argument: str, connection=None) -> Dict[str, object]:
        if argument.upper() == "CLEAR":
            dropped = self.session.clear_slowlog()
            return {"ok": True, "verb": "SLOWLOG", "cleared": dropped}
        return {
            "ok": True,
            "verb": "SLOWLOG",
            "threshold_ms": self.session.slow_query_ms,
            "entries": self.session.slowlog(),
        }

    def _do_reqlog(self, argument: str, connection=None) -> Dict[str, object]:
        if argument.upper() == "CLEAR":
            dropped = self.session.lifecycle.clear()
            return {"ok": True, "verb": "REQLOG", "cleared": dropped}
        limit = None
        if argument:
            try:
                limit = int(argument)
            except ValueError:
                return _error_envelope(
                    "REQLOG", "ProtocolError",
                    "REQLOG takes an optional integer limit, or CLEAR",
                )
        return {
            "ok": True,
            "verb": "REQLOG",
            "size": self.session.lifecycle.size,
            "records": self.session.reqlog(limit),
        }

    def _do_health(self, argument: str, connection=None) -> Dict[str, object]:
        return {"ok": True, "verb": "HEALTH", "health": self.session.health()}

    def _do_record(self, argument: str, connection=None) -> Dict[str, object]:
        """RECORD START/STOP/STATUS.

        The verb itself is never written to the archive (a replay would
        re-start capture mid-replay), so control and capture compose.
        """
        session = self.session
        action, _, rest = argument.partition(" ")
        action = action.upper()
        rest = rest.strip()
        if action == "START":
            if not rest:
                return _error_envelope(
                    "RECORD", "ProtocolError",
                    "RECORD START needs an archive path",
                )
            try:
                info = session.start_capture(rest, origin=self.ORIGIN)
            except (RuntimeError, OSError) as exc:
                return _error_envelope("RECORD", "CaptureError", str(exc))
            return {"ok": True, "verb": "RECORD", "recording": True, **info}
        if action == "STOP":
            if not session.capture.active:
                return _error_envelope(
                    "RECORD", "CaptureError", "no capture is active"
                )
            summary = session.stop_capture()
            return {"ok": True, "verb": "RECORD", "recording": False, **summary}
        if action in ("", "STATUS"):
            return {"ok": True, "verb": "RECORD", **session.capture.status()}
        return _error_envelope(
            "RECORD", "ProtocolError",
            f"unknown RECORD action {action!r}; expected START <path>, "
            "STOP or STATUS",
        )
