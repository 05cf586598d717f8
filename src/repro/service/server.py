"""The threaded transport: one OS thread per connection.

:class:`QueryServer` serves the line protocol of
:mod:`repro.service.protocol` (verbs, envelopes, admission, breaker and
DELTA fan-out all live there) from a
``socketserver.ThreadingTCPServer``.  This module is only the I/O
machinery underneath:

* **Blocking reads, one handler thread per connection.**  ``idle_timeout``
  is the socket timeout, so a silent peer eventually gives its thread
  back.  Subscribed connections are exempt from it and from the
  mid-request disconnect probe — silence is their normal state.
* **A worker thread pool enforces the wall-clock ``timeout``.**  Heavy
  verbs evaluate on a pool thread while the handler thread waits; when
  the wait is abandoned (deadline, or a ``MSG_PEEK`` probe finds the
  peer gone) the request's :class:`~repro.resilience.Budget` is
  *cancelled*, so the worker releases the session lock at its next
  cooperative checkpoint instead of running a pathological query to
  completion.
* **A pusher thread delivers DELTA lines.**  Request replies and pushes
  on the same connection are serialized by a per-connection write lock
  so lines never interleave.  The push path is bounded in time and
  space: every push write must finish within ``push_timeout`` seconds
  (a stalled consumer is reaped like a dead one, so it cannot freeze
  delivery to healthy subscribers), and each subscriber may have at
  most ``push_backlog`` bytes queued.

For the event-loop transport that keeps thousands of idle connections
cheap and dispatches heavy verbs to forked evaluator workers, see
:mod:`repro.service.eventloop`.
"""

from __future__ import annotations

import logging
import queue
import select
import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, Optional, Tuple

from ..observe import RequestRecord, current_id, get_logger, log_event, mark_stage
from ..resilience import Budget
from .protocol import (
    MAX_DRAIN_BYTES,
    MAX_LINE_BYTES,
    OVERSIZED_WIRE,
    ClientDisconnected,
    ProtocolCore,
    _Subscription,
)
from .session import QuerySession
from .workers import _serve_one

_log = get_logger("server")

__all__ = ["QueryServer"]

#: How often the result-wait loop re-checks deadline and peer liveness.
_POLL_INTERVAL = 0.05


class _PushTimeout(OSError):
    """A push write stayed blocked past the send timeout."""


#: Per-call non-blocking send flag (0 where unsupported, in which case
#: the bounded send degrades to trusting select's writability report).
_MSG_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)


def _send_all_bounded(
    sock: socket.socket, payload: bytes, timeout: Optional[float]
) -> None:
    """``sendall`` with a wall-clock bound, without touching the
    socket's own timeout state (the handler thread may be blocked in a
    read on the same socket, and ``settimeout`` would yank its rug).

    Waits for write readiness and sends in chunks; a send that cannot
    finish within ``timeout`` raises :class:`_PushTimeout` (an
    ``OSError``, so callers treat a stall exactly like a dead socket).
    """
    if timeout is None:
        sock.sendall(payload)
        return
    view = memoryview(payload)
    deadline = time.monotonic() + timeout
    while view:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise _PushTimeout(f"push write blocked over {timeout}s")
        _, writable, _ = select.select([], [sock], [], remaining)
        if not writable:
            continue
        # MSG_DONTWAIT makes this single call non-blocking without
        # flipping the fd's blocking mode: a blocking send() of a
        # buffer larger than the free kernel space would stall until
        # *all* of it fits, defeating the deadline above.
        try:
            sent = sock.send(view, _MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            continue  # spurious writability; re-wait
        view = view[sent:]


def _hang_up(connection: socket.socket) -> None:
    """Unblock any read or push write in flight on a dropped
    subscriber's socket; its handler thread notices the close on its
    next read."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write reply lines."""

    server: "_TCPServer"

    def setup(self) -> None:
        # Per-connection idle timeout: a silent peer eventually gets its
        # handler thread back (readline raises socket.timeout → close).
        idle = self.server.query_server.idle_timeout
        if idle is not None:
            self.request.settimeout(idle)
        super().setup()

    def handle(self) -> None:
        query_server = self.server.query_server
        while True:
            try:
                raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not raw:
                return
            if raw.startswith(b"GET "):
                # One-shot HTTP request on the line-protocol port:
                # minimal HTTP/1.0 response, then close.
                self._handle_http(raw)
                return
            close_after_reply = False
            record: Optional[RequestRecord] = None
            if len(raw) > MAX_LINE_BYTES:
                # readline() returned a *partial* line; drain the rest
                # so the tail is not parsed as a second request (one
                # request line must yield exactly one reply line) — but
                # only up to MAX_DRAIN_BYTES: a peer streaming past
                # that is refused the drain and disconnected after the
                # error envelope instead of being buffered unbounded.
                drained = len(raw)
                while not raw.endswith(b"\n"):
                    raw = self.rfile.readline(MAX_LINE_BYTES + 1)
                    if not raw:
                        break
                    drained += len(raw)
                    if drained > MAX_DRAIN_BYTES:
                        close_after_reply = True
                        break
                wire = OVERSIZED_WIRE
            else:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                record = self._mint_record()
                try:
                    wire = query_server._respond(line, record, self.connection)
                except ClientDisconnected:
                    # Budget already cancelled and disconnect recorded
                    # by the wait loop; nothing left to reply to.
                    query_server._finalize_record(record, "disconnected")
                    return
            try:
                # The connection's write lock keeps the reply line from
                # interleaving with DELTA pushes on the same socket.
                with query_server.subscriptions.lock_for(self.connection):
                    if record is not None:
                        record.mark("outbox")
                    self.wfile.write(wire)
                    self.wfile.flush()
            except (ConnectionError, OSError):
                query_server.session.metrics.record_disconnect()
                query_server._finalize_record(record, "aborted")
                return
            if record is not None:
                record.mark("flush")
            query_server._finalize_record(record, "ok")
            if close_after_reply:
                return

    def finish(self) -> None:
        self.server.query_server.subscriptions.drop_connection(self.connection)
        super().finish()

    def _mint_record(self) -> Optional[RequestRecord]:
        """Mint a lifecycle record for the line just read.

        The blocking ``readline`` gives no frame-arrival stamp, so the
        record is anchored at readline's return: the threaded front end
        has no dispatch queue, read and queue are stamped zero-width.
        """
        session = self.server.query_server.session
        if not session.lifecycle.enabled:
            return None
        try:
            client = self._client_label
        except AttributeError:
            try:
                host, port = self.client_address[:2]
                client = f"{host}:{port}"
            except (TypeError, ValueError, IndexError):
                client = None
            self._client_label = client
        record = session.lifecycle.begin(
            client=client, start_ns=time.perf_counter_ns()
        )
        if record is not None:
            record.mark("read")
            record.mark("queue")
        return record

    def _handle_http(self, raw: bytes) -> None:
        query_server = self.server.query_server
        record = self._mint_record()
        response = query_server._respond_http(raw, record)
        try:
            self.wfile.write(response)
            self.wfile.flush()
        except (ConnectionError, OSError):
            query_server._finalize_record(record, "aborted")
            return
        if record is not None:
            record.mark("flush")
        query_server._finalize_record(record, "ok")


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    query_server: "QueryServer"


class QueryServer(ProtocolCore):
    """Serve a :class:`QuerySession` over TCP, a thread per connection.

    The protocol-level arguments are documented on
    :class:`~repro.service.protocol.ProtocolCore`.  ``workers`` sizes
    the evaluation thread pool (and, by default, the concurrent
    ``QUERY`` limit); ``idle_timeout`` closes connections whose peer
    goes silent; ``push_timeout`` bounds any single push write.
    """

    ORIGIN = "threaded"

    def __init__(
        self,
        session: QuerySession,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = None,
        max_depth: Optional[int] = None,
        workers: int = 8,
        budget: Optional[Budget] = None,
        max_pending: Optional[int] = 64,
        verb_limits: Optional[Dict[str, int]] = None,
        retry_after: float = 1.0,
        idle_timeout: Optional[float] = None,
        breaker_threshold: Optional[int] = 3,
        breaker_cooldown: float = 5.0,
        push_backlog: int = 1_048_576,
        push_timeout: Optional[float] = 5.0,
    ):
        super().__init__(
            session,
            timeout=timeout,
            max_depth=max_depth,
            budget=budget,
            max_pending=max_pending,
            verb_limits=(
                verb_limits if verb_limits is not None else {"QUERY": workers}
            ),
            retry_after=retry_after,
            idle_timeout=idle_timeout,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            push_backlog=push_backlog,
        )
        #: Wall-clock bound on any single push write; a subscriber that
        #: keeps a write blocked longer is treated as dead and reaped.
        self.push_timeout = push_timeout
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.query_server = self
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self._thread: Optional[threading.Thread] = None
        self._push_queue: "queue.Queue" = queue.Queue()
        self._pusher = threading.Thread(
            target=self._pusher_loop, name="repro-push", daemon=True
        )
        self._pusher.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._tcp.server_address[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        self._tcp.serve_forever()

    def start(self) -> "QueryServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to return; safe from a signal
        handler.

        ``socketserver.shutdown()`` blocks until the serve loop exits,
        and a signal handler runs *on* the thread sitting in that loop
        — calling it inline would deadlock, so it is bounced to a
        throwaway thread.  The caller's ``finally: server.shutdown()``
        then performs the one real teardown path.
        """
        threading.Thread(
            target=self._tcp.shutdown, name="repro-shutdown", daemon=True
        ).start()

    def _stop_transport(self) -> None:
        self._push_queue.put(None)
        self._tcp.shutdown()
        self._tcp.server_close()
        self._pool.shutdown(wait=False)
        self._pusher.join(timeout=5)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    # ------------------------------------------------------------------
    # Delta push channel
    # ------------------------------------------------------------------
    def _push(self, sub: _Subscription, wire: bytes) -> None:
        """Queue ``wire`` for the pusher thread, within the backlog."""
        reserved = self.subscriptions.try_reserve(
            sub, len(wire), self.push_backlog
        )
        if reserved:
            self._push_queue.put((sub, wire))
        elif reserved is None and self._drop_subscriber(sub):
            # Hanging up also unblocks any push write already in flight
            # on this socket, so the pusher thread is not left waiting
            # out its timeout on a peer that is being dropped anyway.
            _hang_up(sub.connection)

    def _subscription_changed(self, connection: socket.socket) -> None:
        # Push channels are long-lived and mostly silent; the idle
        # timeout would reap them mid-subscription.
        if self.subscriptions.is_subscribed(connection):
            connection.settimeout(None)
        elif self.idle_timeout is not None:
            connection.settimeout(self.idle_timeout)

    def _pusher_loop(self) -> None:
        while True:
            item = self._push_queue.get()
            if item is None:
                return
            sub, payload = item
            try:
                if not self.subscriptions.is_live(sub):
                    continue  # reaped while queued; discard its backlog
                # sub.lock only orders this write against reply writes
                # on the same socket; the send itself is bounded by
                # push_timeout, so a stalled peer delays the queue by at
                # most one timeout before being reaped — it can no
                # longer freeze delivery to every other subscriber.
                with sub.lock:
                    _send_all_bounded(
                        sub.connection, payload, self.push_timeout
                    )
            except OSError as exc:
                # Dead or stalled push channel.  A stall is a
                # backpressure drop, not a peer death; it is counted
                # with the overflow drops.
                if self._drop_subscriber(
                    sub, backpressure=isinstance(exc, _PushTimeout)
                ):
                    _hang_up(sub.connection)
            finally:
                self.subscriptions.release(sub, len(payload))

    # ------------------------------------------------------------------
    # Budgeted evaluation
    # ------------------------------------------------------------------
    def _evaluate(
        self, verb: str, source: str, connection: Optional[socket.socket]
    ) -> Dict[str, Any]:
        request = {"source": source, "max_depth": self.max_depth}
        if verb == "PLAN":
            # Planning never runs long enough to need the wait loop.
            return _serve_one(self.session, verb, request, None)
        budget = self._request_budget()
        future = self._pool.submit(
            _serve_one, self.session, verb, request, budget
        )
        payload = self._await(future, budget, connection)
        mark_stage("eval")
        return payload

    def _request_budget(self) -> Budget:
        """A fresh per-request budget — always one, even limitless,
        so the wait loop has a cancellation handle."""
        if self.budget is not None:
            budget = self.budget.fork()
        elif self.timeout is not None:
            # Belt and braces: the worker's own deadline matches the
            # server timeout, so an abandoned evaluation self-aborts
            # even if the cancel signal were missed.
            budget = Budget(timeout=self.timeout)
        else:
            budget = Budget()
        # The evaluation runs on a pool thread where the handler
        # thread's active record is invisible; the budget carries the
        # request id across so slowlog entries stay correlated.
        budget.request_id = current_id()
        return budget

    @staticmethod
    def _peer_vanished(connection: socket.socket) -> bool:
        """Non-blocking probe: has the peer closed its end?"""
        flags = getattr(socket, "MSG_DONTWAIT", None)
        if flags is None:
            return False  # platform can't probe without blocking
        try:
            data = connection.recv(1, socket.MSG_PEEK | flags)
        except (BlockingIOError, InterruptedError):
            return False  # no data pending — still connected
        except OSError:
            return True
        return data == b""

    def _await(
        self,
        future,
        budget: Budget,
        connection: Optional[socket.socket],
    ):
        """Wait for a worker result, enforcing the wall-clock timeout
        and watching for the client vanishing; either event cancels the
        request's budget so the worker aborts at its next checkpoint."""
        if self.timeout is None and connection is None:
            return future.result()
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )
        while True:
            try:
                return future.result(timeout=_POLL_INTERVAL)
            except FutureTimeoutError:
                pass
            if deadline is not None and time.monotonic() >= deadline:
                budget.cancel("request timeout")
                log_event(
                    _log, logging.INFO, "cancel",
                    reason="request timeout",
                    request_id=budget.request_id,
                )
                raise FutureTimeoutError()
            if (
                connection is not None
                and not self.subscriptions.is_subscribed(connection)
                and self._peer_vanished(connection)
            ):
                # Subscribed connections are exempt from the probe: the
                # pusher may be mid-write on the same socket, and their
                # liveness is established by the push path itself.
                budget.cancel("client disconnected")
                log_event(
                    _log, logging.INFO, "cancel",
                    reason="client disconnected",
                    request_id=budget.request_id,
                )
                self.session.metrics.record_disconnect()
                raise ClientDisconnected("client disconnected mid-request")
