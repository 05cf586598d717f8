"""The event-loop transport: one selector loop, evaluator workers.

:class:`AsyncQueryServer` is the one transport under
:class:`~repro.service.protocol.ProtocolCore` (verbs, envelopes and
resilience ladder are defined there, once).  A thread per connection
would be hopeless for thousands of mostly-idle subscribers and would
evaluate every fixpoint under the GIL, so the machinery is:

* **One event loop** (``selectors.DefaultSelector``) owns every socket.
  An idle connection costs one registered file descriptor and ~1 KiB of
  buffers, so thousands of idle clients fit in the default fd limit.
  Peer disconnects arrive as readiness events (``recv() == b""``).
* **Bounded per-connection outboxes**: replies and DELTA pushes are
  appended to the connection's outbox and drained when the socket
  reports writable.  A subscriber that stops reading accumulates
  backlog until ``push_backlog`` bytes, then is dropped
  (``repro_push_dropped_total``) — it never blocks the loop, other
  subscribers, or replies.
* **A dispatch thread pool** runs verb handlers off-loop, so a slow
  STATS or a saturated admission queue never stalls socket I/O.
  Requests on one connection stay strictly ordered (one in flight,
  FIFO queue behind it); requests across connections run concurrently.
* **Cache hits never leave the loop.**  The session owns the one
  answer cache.  A ``QUERY`` with nothing of its connection queued or
  in flight is answered on the loop thread when the session lock is
  free *and* the entry is in hand (the loop never waits, evaluates or
  calls the pool), at most ``_INLINE_PER_PASS`` per readable event, all
  replies of the pass in one ``send``.  The rest take the dispatch FIFO.
* **Heavy verbs go to forked evaluator processes** — a
  :class:`~repro.service.workers.WorkerPool` — when ``workers > 0``
  and the platform can fork.  QUERY/PLAN/EXPLAIN/TRACE then evaluate
  on separate cores over copy-on-write database snapshots, refreshed
  whenever the database version drifts; their QUERY answers are adopted
  into the session's cache on the way back.  Budget blowouts,
  timeouts and cancellation-on-disconnect cross the pipe and surface
  exactly as in-process; the conformance suite pins the envelopes
  bit-identical.  With ``workers=0`` heavy verbs run in-process on the
  dispatch threads (the GIL-bound fallback, still event-loop fronted).

Admission and the circuit breaker run on the dispatch thread, so
requests are shed or degraded before touching a worker.  ``/metrics``
additionally exports ``repro_workers``, ``repro_worker_queue_depth``
and ``repro_worker_restarts_total`` via the pool's snapshot provider.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, Optional, Tuple

from ..engine.counters import Counters
from ..observe import (
    RequestRecord,
    current_id,
    current_record,
    get_logger,
    log_event,
    mark_stage,
)
from ..resilience import Budget, BudgetExceeded
from .protocol import (
    MAX_DRAIN_BYTES,
    MAX_LINE_BYTES,
    OVERSIZED_WIRE,
    ClientDisconnected,
    ProtocolCore,
    _strip,
    _Subscription,
)
from .session import QuerySession
from .workers import (
    ClientGone,
    WorkerDied,
    WorkerPool,
    _serve_one,
    fork_available,
)

__all__ = ["AsyncQueryServer"]

_log = get_logger("eventloop")

#: Sentinels queued in place of a request line when the peer sent an
#: oversized line (the second also closes after the error reply).
_OVERSIZED = b"\x00oversized"
_OVERSIZED_CLOSE = b"\x00oversized-close"

#: recv() chunk size on readable sockets.
_READ_CHUNK = 65536

#: Upper bound on one selector cycle, so the idle sweep always runs.
_TICK = 0.2

#: Cache hits answered on the loop thread per readable event, so one
#: pipelining connection cannot monopolise the loop.
_INLINE_PER_PASS = 64

#: Most bytes gathered from an outbox into one ``send``.
_SEND_BATCH = 262144


def _cancel_for_peer(budget: Budget, reason: str) -> None:
    """Abort the evaluation of a request whose client is gone."""
    budget.cancel("client disconnected")
    log_event(
        _log, logging.INFO, "cancel",
        reason=reason, request_id=budget.request_id,
    )


class _Connection:
    """Loop-side state for one client socket."""

    __slots__ = (
        "sock", "addr", "lock", "inbox", "outbox", "outbox_bytes",
        "requests", "inflight", "budget", "eof", "gone", "closed",
        "close_after_flush", "draining", "drained", "last_active",
        "registered_events", "frame_started", "client_label",
    )

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        #: "host:port" rendered once at accept — every request minted on
        #: this connection reuses it instead of re-formatting the peer.
        self.client_label = f"{addr[0]}:{addr[1]}" if addr else None
        #: perf_counter_ns stamp of the first byte of a partial frame
        #: still sitting in the inbox — the lifecycle record minted when
        #: the frame completes anchors its "read" stage here.
        self.frame_started: Optional[int] = None
        #: Guards outbox/requests/inflight/budget against the dispatch
        #: threads; the loop-only fields (inbox, draining, interest)
        #: need no lock.
        self.lock = threading.Lock()
        self.inbox = bytearray()
        self.outbox: deque = deque()
        self.outbox_bytes = 0
        #: Complete request lines not yet dispatched (FIFO; one in
        #: flight at a time keeps per-connection reply order).
        self.requests: deque = deque()
        self.inflight = False
        #: The in-flight request's budget (in-process fallback only);
        #: the loop cancels it when the peer vanishes.
        self.budget: Optional[Budget] = None
        self.eof = False
        #: The peer is gone and any in-flight evaluation should abort.
        self.gone = False
        self.closed = False
        self.close_after_flush = False
        self.draining = False
        self.drained = 0
        self.last_active = time.monotonic()
        self.registered_events = 0


class AsyncQueryServer(ProtocolCore):
    """Event-loop server over a shared :class:`QuerySession`.

    The protocol-level arguments are documented on
    :class:`~repro.service.protocol.ProtocolCore`.  ``workers`` forked
    evaluator processes serve the heavy verbs (``0`` = evaluate
    in-process), ``dispatch_threads`` bounds concurrent verb handling
    (and, by default, concurrent ``QUERY``\\ s), ``push_backlog`` caps
    each connection's outbox — a stalled subscriber is detected by
    backlog growth, never by a blocked write.
    """

    ORIGIN = "async"

    def __init__(
        self,
        session: QuerySession,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = None,
        max_depth: Optional[int] = None,
        workers: Optional[int] = None,
        dispatch_threads: Optional[int] = None,
        budget: Optional[Budget] = None,
        max_pending: Optional[int] = 64,
        verb_limits: Optional[Dict[str, int]] = None,
        retry_after: float = 1.0,
        idle_timeout: Optional[float] = None,
        breaker_threshold: Optional[int] = 3,
        breaker_cooldown: float = 5.0,
        push_backlog: int = 1_048_576,
        kill_grace: float = 1.0,
    ):
        if workers is None:
            import os

            workers = (os.cpu_count() or 1) if fork_available() else 0
        if dispatch_threads is None:
            dispatch_threads = max(8, workers + 4)
        self.dispatch_threads = dispatch_threads
        with contextlib.ExitStack() as undo:
            # Bind before anything is registered on the session or
            # forked: a busy port must fail with no worker process and
            # no database listener left behind.
            self._listen = undo.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            )
            self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listen.bind((host, port))
            self._listen.listen(1024)
            self._listen.setblocking(False)
            self._selector = undo.enter_context(selectors.DefaultSelector())
            self._selector.register(
                self._listen, selectors.EVENT_READ, "listen"
            )
            # Wake pipe: dispatch threads poke the loop after touching
            # an outbox so write interest is (re)registered promptly.
            self._wake_r, self._wake_w = map(
                undo.enter_context, socket.socketpair()
            )
            self._wake_r.setblocking(False)
            self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
            super().__init__(
                session,
                timeout=timeout,
                max_depth=max_depth,
                budget=budget,
                max_pending=max_pending,
                verb_limits=(
                    verb_limits if verb_limits is not None
                    else {"QUERY": dispatch_threads}
                ),
                retry_after=retry_after,
                idle_timeout=idle_timeout,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
                push_backlog=push_backlog,
            )
            undo.callback(
                session.database.remove_mutation_listener, self._on_mutation
            )
            self.pool: Optional[WorkerPool] = None
            if workers > 0 and fork_available():
                self.pool = WorkerPool(session, workers, kill_grace=kill_grace)
                session.metrics.worker_provider = self.pool.snapshot
            undo.pop_all()
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_threads, thread_name_prefix="repro-dispatch"
        )
        self._conns: set = set()
        #: Connections whose outbox/interest changed off-loop, and
        #: connections a dispatch thread asked to close.
        self._control_lock = threading.Lock()
        self._dirty: set = set()
        self._to_close: set = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: The loop thread's ident: bytes queued from it need no wake.
        self._loop_ident: Optional[int] = None
        #: Duration of the most recent between-selects processing pass
        #: — the event-loop lag gauge.  Written by the loop thread only;
        #: read lock-free by the metrics provider.
        self._last_cycle_s = 0.0
        session.metrics.eventloop_provider = self._eventloop_snapshot

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._listen.getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        self._loop()

    def start(self) -> "AsyncQueryServer":
        """Run the event loop on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._loop, name="repro-eventloop", daemon=True
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to return; safe from a signal
        handler (just an Event set plus a self-pipe write).  The
        caller's ``finally: server.shutdown()`` then runs the one real
        teardown path."""
        self._stop.set()
        self._wake()

    def _stop_transport(self) -> None:
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        # Graceful dispatcher drain: requests already running on a
        # dispatch thread finish (their WAL records are already
        # durable), queued-but-unstarted ones are cancelled — they were
        # never acknowledged, so dropping them loses nothing a client
        # was promised.
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.pool is not None:
            self.pool.close()
        for conn in list(self._conns):
            self._close_conn(conn)
        try:
            self._selector.unregister(self._listen)
        except (KeyError, ValueError):
            pass
        self._listen.close()
        self._wake_r.close()
        self._wake_w.close()
        self._selector.close()

    # ------------------------------------------------------------------
    # Event loop (everything here runs on the loop thread)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        self._loop_ident = threading.get_ident()
        last_sweep = time.monotonic()
        while not self._stop.is_set():
            events = self._selector.select(timeout=_TICK)
            cycle_start = time.perf_counter()
            for key, mask in events:
                tag = key.data
                if tag == "listen":
                    self._accept()
                elif tag == "wake":
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, InterruptedError):
                        pass
                else:
                    conn: _Connection = tag
                    if mask & selectors.EVENT_WRITE:
                        self._flush(conn)
                    if mask & selectors.EVENT_READ and not conn.closed:
                        self._on_readable(conn)
            self._process_control()
            now = time.monotonic()
            if self.idle_timeout is not None and now - last_sweep >= 1.0:
                last_sweep = now
                self._sweep_idle(now)
            # Everything since select() ran on the loop thread while no
            # socket was being served — that's the loop's lag.
            self._last_cycle_s = time.perf_counter() - cycle_start

    def _eventloop_snapshot(self) -> Dict[str, object]:
        """Loop gauges for /metrics (lag, connections, outbox depths).

        Reads are lock-free on purpose: each field is a GIL-atomic
        int/float read, and gauge scrapes tolerate a value one write
        stale.
        """
        conns = list(self._conns)
        total = 0
        biggest = 0
        for conn in conns:
            pending = conn.outbox_bytes
            total += pending
            if pending > biggest:
                biggest = pending
        return {
            "lag_s": self._last_cycle_s,
            "connections": len(conns),
            "outbox_bytes": total,
            "outbox_max_bytes": biggest,
        }

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listen.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            # Small replies must not sit in Nagle's buffer waiting for
            # the client's delayed ACK (a 40 ms stall per burst).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, addr)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            conn.registered_events = selectors.EVENT_READ
            log_event(
                _log, logging.DEBUG, "accept",
                client=conn.client_label or "?",
            )

    def _process_control(self) -> None:
        with self._control_lock:
            dirty, self._dirty = self._dirty, set()
            to_close, self._to_close = self._to_close, set()
        for conn in to_close:
            dirty.discard(conn)
            # Closes requested with pending output flush first.
            with conn.lock:
                pending = conn.outbox_bytes > 0
            if pending and not conn.gone:
                conn.close_after_flush = True
                self._update_interest(conn)
            else:
                self._close_conn(conn)
        for conn in dirty:
            self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        if conn.closed:
            return
        events = 0
        if not conn.eof:
            events |= selectors.EVENT_READ
        with conn.lock:
            if conn.outbox:
                events |= selectors.EVENT_WRITE
        if events == conn.registered_events:
            return
        try:
            if conn.registered_events == 0:
                if events:
                    self._selector.register(conn.sock, events, conn)
            elif events == 0:
                self._selector.unregister(conn.sock)
            else:
                self._selector.modify(conn.sock, events, conn)
            conn.registered_events = events
        except (KeyError, ValueError, OSError):
            self._close_conn(conn)

    def _on_readable(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_READ_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._on_peer_lost(conn)
            return
        if not chunk:
            self._on_eof(conn)
            return
        conn.last_active = time.monotonic()
        if conn.draining:
            # Mid-drain of an oversized line: discard until newline,
            # bounded by MAX_DRAIN_BYTES.
            idx = chunk.find(b"\n")
            if idx == -1:
                conn.drained += len(chunk)
                if conn.drained > MAX_DRAIN_BYTES:
                    conn.draining = False
                    self._enqueue(conn, _OVERSIZED_CLOSE)
                    conn.eof = True  # stop reading from this hoser
                    self._update_interest(conn)
                return
            conn.drained += idx + 1
            conn.draining = False
            self._enqueue(
                conn,
                _OVERSIZED_CLOSE
                if conn.drained > MAX_DRAIN_BYTES
                else _OVERSIZED,
            )
            chunk = chunk[idx + 1:]
            conn.drained = 0
            if not chunk:
                return
        if not conn.inbox:
            conn.frame_started = time.perf_counter_ns()
        conn.inbox += chunk
        inline = 0
        while True:
            idx = conn.inbox.find(b"\n")
            if idx == -1:
                if len(conn.inbox) > MAX_LINE_BYTES:
                    conn.draining = True
                    conn.drained = len(conn.inbox)
                    conn.inbox.clear()
                    conn.frame_started = None
                break
            line = bytes(conn.inbox[: idx + 1])
            del conn.inbox[: idx + 1]
            if len(line) > MAX_LINE_BYTES:
                conn.frame_started = None
                self._enqueue(
                    conn,
                    _OVERSIZED_CLOSE
                    if len(line) > MAX_DRAIN_BYTES
                    else _OVERSIZED,
                )
            else:
                record = self._mint_record(conn)
                if inline < _INLINE_PER_PASS and self._answer_inline(
                    conn, line, record
                ):
                    inline += 1
                else:
                    self._enqueue(conn, line, record)
        if inline:
            self._flush(conn)  # every inline reply of the pass, one send
        if conn.inbox and conn.frame_started is None:
            # Leftover bytes start the next frame; its read stage
            # begins now, not when its newline eventually arrives.
            conn.frame_started = time.perf_counter_ns()

    def _answer_inline(
        self, conn: _Connection, raw: bytes, record: Optional[RequestRecord]
    ) -> bool:
        """Answer a cached QUERY here, on the loop thread, or decline.

        Declines unless nothing of this connection is queued or in
        flight (FIFO order), the session lock is free right now and the
        answer is cached at the current version.  Then the ordinary
        :meth:`_process` runs under the (re-entrant) lock: admission,
        breaker, metrics, lifecycle marks and the capture tap behave
        exactly as on a dispatch thread.
        """
        if raw[:6].upper() != b"QUERY " or conn.inflight or conn.requests:
            return False
        lock = self.session._lock
        if not lock.acquire(blocking=False):
            return False
        try:
            # The source text exactly as _do_query will derive it.
            source = _strip(raw[6:].decode("utf-8", errors="replace").strip())
            if not self.session.hit_ready(source):
                return False
            self._process(conn, raw, record)
            return True
        finally:
            lock.release()

    def _mint_record(self, conn: _Connection) -> Optional[RequestRecord]:
        """Mint a lifecycle record for one completed frame.

        ``frame_started`` (the first byte's arrival) anchors the read
        stage; pipelined frames completing in the same chunk fall back
        to "now".  Returns ``None`` when the recorder is disabled.
        """
        start_ns = conn.frame_started
        conn.frame_started = None
        recorder = self.session.lifecycle
        if not recorder.enabled:
            return None
        record = recorder.begin(
            client=conn.client_label, start_ns=start_ns
        )
        if record is not None:
            record.mark("read")
        return record

    def _on_peer_lost(self, conn: _Connection) -> None:
        """Hard socket error: abort everything immediately."""
        with conn.lock:
            conn.eof = True
            conn.gone = True
            budget = conn.budget
        if budget is not None:
            _cancel_for_peer(budget, "peer lost")
        self._close_conn(conn)

    def _on_eof(self, conn: _Connection) -> None:
        """Orderly EOF: this is the readiness-event disconnect signal.

        Queued (pipelined) requests still get served — the peer sent
        them before closing — but with nothing queued the in-flight
        request is cancelled right away.
        """
        with conn.lock:
            conn.eof = True
            has_queued = bool(conn.requests) or conn.inflight
            budget = conn.budget
            flushing = conn.outbox_bytes > 0
            if not conn.requests:
                conn.gone = True
        if conn.gone and budget is not None:
            _cancel_for_peer(budget, "client disconnected")
        if not has_queued:
            if flushing:
                conn.close_after_flush = True
                self._update_interest(conn)
            else:
                self._close_conn(conn)
        else:
            self._update_interest(conn)  # drop read interest

    def _flush(self, conn: _Connection) -> None:
        """Write the outbox, up to ``_SEND_BATCH`` queued bytes a ``send``."""
        while True:
            parts, size = [], 0
            with conn.lock:
                for data, _record in conn.outbox:
                    parts.append(data)
                    size += len(data)
                    if size >= _SEND_BATCH:
                        break
            if not parts:
                break
            try:
                sent = left = conn.sock.send(b"".join(parts))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._on_peer_lost(conn)
                return
            flushed = []
            with conn.lock:
                conn.outbox_bytes -= sent
                while left:
                    head, record = conn.outbox[0]
                    if left < len(head):
                        conn.outbox[0] = (head[left:], record)
                        break
                    left -= len(head)
                    flushed.append(conn.outbox.popleft()[1])
            for record in filter(None, flushed):
                # The reply's last byte hit the kernel buffer: the
                # request's lifecycle is complete.
                record.mark("flush")
                self._finalize_record(record, "ok")
            if sent != size:
                break
        with conn.lock:
            done = not conn.outbox
        if done and conn.close_after_flush:
            self._close_conn(conn)
        else:  # drained: drop write interest; kernel buffer full: ask
            self._update_interest(conn)

    def _sweep_idle(self, now: float) -> None:
        for conn in list(self._conns):
            if conn.closed or self.subscriptions.is_subscribed(conn):
                continue
            with conn.lock:
                busy = conn.inflight or bool(conn.requests)
            if busy:
                continue
            if now - conn.last_active > self.idle_timeout:
                log_event(
                    _log, logging.DEBUG, "idle_close",
                    idle_s=round(now - conn.last_active, 3),
                )
                self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            if conn.registered_events:
                self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        conn.registered_events = 0
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.discard(conn)
        self.subscriptions.drop_connection(conn)
        # Requests still queued (or replies still unflushed) will never
        # complete: commit their lifecycle records as aborted so REQLOG
        # shows the cut-off instead of silently losing them.
        with conn.lock:
            orphans = [
                record for _item, record in conn.requests
                if record is not None
            ]
            orphans.extend(
                record for _item, record in conn.outbox if record is not None
            )
            conn.requests.clear()
        for record in orphans:
            self._finalize_record(record, "aborted")

    # ------------------------------------------------------------------
    # Outbound bytes (called from dispatch threads and the loop)
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, BrokenPipeError, OSError):
            pass

    def _send_bytes(
        self, conn: _Connection, data: bytes,
        close_after: bool = False, push: bool = False,
        record: Optional[RequestRecord] = None,
    ) -> Optional[bool]:
        """Queue bytes on the connection's outbox.

        Returns ``True`` when queued, ``False`` when the connection is
        already closed, and ``None`` when ``push=True`` and queueing
        would overflow ``push_backlog`` (the stalled-subscriber
        signal).  Never blocks, and does not wake the loop: the caller
        calls :meth:`_kick`.  ``record`` rides the outbox with the
        bytes: the flush path finalizes it when the last byte leaves.
        """
        with conn.lock:
            if conn.closed:
                self._finalize_record(record, "aborted")
                return False
            if push and conn.outbox_bytes + len(data) > self.push_backlog:
                return None
            if record is not None:
                record.mark("outbox")
            conn.outbox.append((data, record))
            conn.outbox_bytes += len(data)
            if close_after:
                conn.close_after_flush = True
        return True

    def _kick(self, conn: _Connection) -> None:
        """Have the loop flush ``conn`` — unless this *is* the loop,
        whose own pass flushes what it queued."""
        if threading.get_ident() != self._loop_ident:
            with self._control_lock:
                self._dirty.add(conn)
            self._wake()

    def _request_close(self, conn: _Connection) -> None:
        with self._control_lock:
            self._to_close.add(conn)
        self._wake()

    # ------------------------------------------------------------------
    # Request pipeline (dispatch threads)
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        conn: _Connection,
        raw: bytes,
        record: Optional[RequestRecord] = None,
    ) -> None:
        with conn.lock:
            conn.requests.append((raw, record))
            if conn.inflight:
                return
            conn.inflight = True
            raw, record = conn.requests.popleft()
        self._executor.submit(self._process, conn, raw, record)

    def _request_done(self, conn: _Connection) -> None:
        with conn.lock:
            if conn.requests:
                raw, record = conn.requests.popleft()
                self._executor.submit(self._process, conn, raw, record)
                return
            conn.inflight = False
            drained_after_eof = conn.eof
        if drained_after_eof:
            with conn.lock:
                conn.gone = True
            self._request_close(conn)

    def _process(
        self,
        conn: _Connection,
        raw: bytes,
        record: Optional[RequestRecord] = None,
    ) -> None:
        """Serve one queued request line and queue its reply."""
        try:
            if record is not None:
                # Time between frame completion and this thread picking
                # the request up — FIFO wait plus executor scheduling.
                record.mark("queue")
            close_after = False
            if raw in (_OVERSIZED, _OVERSIZED_CLOSE):
                wire = OVERSIZED_WIRE
                close_after = raw is _OVERSIZED_CLOSE
            elif raw.startswith(b"GET "):
                wire = self._respond_http(raw, record)
                close_after = True
            else:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    return  # empty keep-alive line: no reply, no record
                try:
                    wire = self._respond(line, record, conn)
                except ClientDisconnected:
                    self._finalize_record(record, "disconnected")
                    self._request_close(conn)
                    return
            self._send_bytes(conn, wire, close_after=close_after, record=record)
        except Exception:
            # A dispatch crash must never leak the connection's FIFO
            # slot; drop the connection instead of wedging it.
            self._finalize_record(record, "error")
            self._request_close(conn)
        finally:
            # Free the FIFO slot *before* the loop can send the reply:
            # a client that answers at once must find nothing in flight,
            # or its next cache hit takes the dispatch path again.
            self._request_done(conn)
            self._kick(conn)

    # ------------------------------------------------------------------
    # Budgeted evaluation
    # ------------------------------------------------------------------
    def _budget_limits(self) -> Optional[Dict[str, Any]]:
        """The budget template's limits, as Budget(**kwargs) keys, with
        the server timeout folded in as a belt-and-braces deadline."""
        limits: Dict[str, Any] = {}
        if self.budget is not None:
            limits = {
                "max_tuples": self.budget.max_tuples,
                "max_live": self.budget.max_live,
                "max_rounds": self.budget.max_rounds,
                "timeout": self.budget.timeout,
                "max_memory_bytes": self.budget.max_memory_bytes,
            }
        if self.timeout is not None and (
            limits.get("timeout") is None or limits["timeout"] > self.timeout
        ):
            limits["timeout"] = self.timeout
        return {k: v for k, v in limits.items() if v is not None} or None

    def _local_budget(self, conn: Optional[_Connection]) -> Budget:
        """A per-request budget for in-process (no-pool) evaluation.

        The server timeout becomes the budget deadline (there is no
        wait loop to abandon the evaluation from), and the budget is
        parked on the connection so the loop cancels it on EOF.
        """
        if self.budget is not None:
            budget = self.budget.fork()
        else:
            budget = Budget()
        if self.timeout is not None and (
            budget.timeout is None or budget.timeout > self.timeout
        ):
            budget.timeout = self.timeout
            budget.deadline = budget.started_at + self.timeout
        budget.request_id = current_id()
        if conn is not None:
            with conn.lock:
                gone = conn.gone
                conn.budget = budget
            if gone:
                # The EOF beat the evaluation here, so the loop found
                # no budget to cancel: same cancel, same log event.
                _cancel_for_peer(budget, "client disconnected")
        return budget

    def _clear_budget(self, conn: Optional[_Connection]) -> None:
        if conn is not None:
            with conn.lock:
                conn.budget = None

    def _peer_gone_probe(self, conn: Optional[_Connection]):
        if conn is None:
            return None
        return lambda: conn.gone

    def _translate_local_budget(
        self, exc: BudgetExceeded, conn: Optional[_Connection]
    ) -> None:
        """In-process fallback: map a cancelled/deadline blowout onto
        the surface the worker pool gives (disconnect / Timeout)."""
        if exc.reason == "cancelled" and "client disconnected" in str(exc):
            self.session.metrics.record_disconnect()
            raise ClientDisconnected("client disconnected mid-request")
        if (
            exc.reason == "deadline"
            and self.budget is None
            and self.timeout is not None
        ):
            # The deadline was purely the server timeout we injected;
            # the pooled path renders that as Timeout without a budget
            # envelope.
            raise FutureTimeoutError()

    def _pool_execute(
        self,
        verb: str,
        source: str,
        conn: Optional[_Connection],
    ) -> Dict[str, Any]:
        """Dispatch to a worker, translating transport-level failures."""
        for attempt in (0, 1):
            try:
                payload = self.pool.execute(
                    verb,
                    source,
                    max_depth=self.max_depth,
                    limits=self._budget_limits(),
                    timeout=self.timeout,
                    peer_gone=self._peer_gone_probe(conn),
                )
                # For pooled verbs the worker round-trip *is* the
                # evaluation; stamping eval here (idempotent) lets the
                # trace merge below include the span.
                mark_stage("eval")
                # Worker-side slow-query forensics arrive as an
                # envelope sidecar; fold them into the parent's ring
                # (merging this request's stage spans into the chrome
                # trace) before the payload becomes a client reply.
                sidecar = payload.pop("slowlog", None)
                if sidecar:
                    self.session.adopt_slowlog(sidecar, current_record())
                return payload
            except ClientGone:
                self.session.metrics.record_disconnect()
                raise ClientDisconnected("client disconnected mid-request")
            except BudgetExceeded as exc:
                # The worker recorded the blowout in its own forked
                # metrics; replicate the session-level accounting the
                # in-process path gets from QuerySession.
                self.session.metrics.record_budget_exceeded()
                self.session.metrics.record_verb(
                    "QUERY", exc.elapsed or 0.0
                )
                raise
            except WorkerDied:
                if attempt == 1:
                    raise
        raise AssertionError("unreachable")

    def _record_pooled(self, verb: str, payload: Dict[str, Any]) -> None:
        """The worker recorded this request in its own forked metrics;
        replicate the session-level accounting the in-process path
        gets from QuerySession."""
        metrics = self.session.metrics
        if verb == "PLAN":
            metrics.record_plan(payload["cached"])
            metrics.record_verb("PLAN", payload["elapsed"])
            return
        if verb == "EXPLAIN":
            seen = payload["report"]
            self.session.remember_trace(seen)
            elapsed = float(seen.get("elapsed_ms") or 0.0) / 1e3
        else:
            seen = payload
            elapsed = payload["elapsed"]
        counters = seen.get("counters")
        metrics.record_query(
            seen.get("strategy", "unknown"),
            elapsed,
            plan_cached=bool(seen.get("plan_cached")),
            result_cached=False,  # workers are cold: they see misses only
            counters=Counters(**counters) if counters else None,
        )
        metrics.record_verb("QUERY", elapsed)

    def _evaluate(
        self, verb: str, source: str, conn: Optional[_Connection]
    ) -> Dict[str, Any]:
        if verb == "QUERY":  # hits are the parent's, in both modes
            payload = self.session.cached_answer(source)
            if payload is not None:
                return payload
        # Span profiling carries process-local span objects; it always
        # runs in-process (still off-loop, on a dispatch thread).
        if self.pool is not None and verb != "PROFILE":
            payload = self._pool_execute(verb, source, conn)
            self._record_pooled(verb, payload)
            if verb == "QUERY":
                self.session.adopt(source, payload)
            return payload
        budget = self._local_budget(conn)
        try:
            return _serve_one(
                self.session,
                verb,
                {"source": source, "max_depth": self.max_depth},
                budget,
            )
        except BudgetExceeded as exc:
            self._translate_local_budget(exc, conn)
            raise
        finally:
            self._clear_budget(conn)

    # ------------------------------------------------------------------
    # Delta push channel
    # ------------------------------------------------------------------
    def _push(self, sub: _Subscription, wire: bytes) -> None:
        """Queue ``wire`` on the subscriber's outbox, within the
        backlog; a stalled subscriber is detected by backlog growth."""
        conn = sub.connection
        queued = self._send_bytes(conn, wire, push=True)
        if queued:
            self._kick(conn)
        elif queued is None and self._drop_subscriber(sub):
            self._request_close(conn)
