"""Push-channel backpressure: stalled subscribers must not stall anyone.

Covers the event loop's per-connection outbox cap.  The load-bearing
property in every case: a subscriber that stops consuming is *dropped*
(and counted in ``repro_push_dropped_total``) while healthy subscribers
keep receiving DELTAs promptly.
"""

import json
import socket
import time

from repro.engine.database import Database
from repro.service import AsyncQueryServer, QuerySession


def _database():
    db = Database()
    db.load_source("parent(seed0, seed1).")
    return db


def _subscribe(address, timeout=10):
    sock = socket.create_connection(address, timeout=timeout)
    f = sock.makefile("rw", encoding="utf-8")
    f.write("SUBSCRIBE parent/2\n")
    f.flush()
    reply = json.loads(f.readline())
    assert reply["ok"]
    return sock, f


def _await_metric(read, minimum=1, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if read() >= minimum:
            return True
        time.sleep(0.05)
    return read() >= minimum


class TestEventLoopBacklogOverflow:
    def test_overflowing_outbox_drops_subscriber(self):
        with AsyncQueryServer(
            QuerySession(_database()), workers=0, push_backlog=100
        ) as srv:
            sock, _ = _subscribe(srv.address)
            try:
                # Wire size > cap: first push overflows the outbox
                # accounting and drops the subscriber — no kernel
                # buffers involved, fully deterministic.
                srv.session.add_fact("parent", ("big0", "v" * 256))
                assert _await_metric(
                    lambda: srv.session.metrics.push_dropped
                )
                assert srv.subscriptions.count() == 0
                assert srv.session.metrics.disconnects >= 1
                # The counter reaches the Prometheus page.
                assert "repro_push_dropped_total" in srv.session.metrics_text()
                # Later mutations survive having no subscribers left.
                srv.session.add_fact("parent", ("big1", "w"))
            finally:
                sock.close()

    def test_stalled_clogged_pipe_drops_healthy_unaffected(self):
        count = 150
        with AsyncQueryServer(
            QuerySession(_database()), workers=0, push_backlog=4096
        ) as srv:
            stalled_sock, _ = _subscribe(srv.address)
            healthy_sock, healthy_file = _subscribe(srv.address)
            try:
                stalled_sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 2048
                )
                for sub in list(srv.subscriptions._by_id.values()):
                    if sub.connection.sock.getpeername() == (
                        stalled_sock.getsockname()
                    ):
                        sub.connection.sock.setsockopt(
                            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                        )
                healthy_sock.settimeout(30)
                for i in range(count):
                    srv.session.add_fact("parent", (f"e{i}", "z" * 256))
                    # Pace the burst so the loop can drain the healthy
                    # outbox; the stalled pipe stays clogged regardless.
                    time.sleep(0.002)
                seen = 0
                while seen < count:
                    delta = json.loads(healthy_file.readline())
                    assert delta["verb"] == "DELTA"
                    seen += 1
                assert _await_metric(
                    lambda: srv.session.metrics.push_dropped
                )
                # Only the staller was dropped.
                assert srv.subscriptions.count() == 1
            finally:
                stalled_sock.close()
                healthy_sock.close()
