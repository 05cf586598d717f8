"""AsyncQueryServer: event loop, protocol parity, readiness semantics.

Runs mostly with ``workers=0`` (in-process evaluation) so protocol
behaviour is isolated from the multiprocessing dispatch, which has its
own suite in ``test_workers.py``.  Cases that must hold in both
evaluation modes live in ``test_protocol_conformance.py``.
"""

import json
import socket
import threading
import time

import pytest

from repro.engine.database import Database
from repro.service import AsyncQueryServer, QuerySession, eventloop

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


def _database():
    db = Database()
    db.load_source(SOURCE)
    return db


@pytest.fixture
def server():
    with AsyncQueryServer(QuerySession(_database()), workers=0) as srv:
        yield srv


class Client:
    def __init__(self, server, timeout=10):
        self.sock = socket.create_connection(server.address, timeout=timeout)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def send(self, line):
        self.file.write(line + "\n")
        self.file.flush()

    def read(self):
        return json.loads(self.file.readline())

    def request(self, line):
        self.send(line)
        return self.read()

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


class TestProtocol:
    def test_all_observability_verbs(self, client):
        assert client.request("PLAN sg(ann, Y)")["ok"]
        assert client.request("STATS")["ok"]
        assert client.request("HEALTH")["ok"]
        assert client.request("METRICS")["ok"]
        assert client.request("SLOWLOG")["ok"]
        assert client.request("EXPLAIN sg(ann, Y)")["ok"]
        assert client.request("TRACE")["ok"]
        assert client.request("PROFILE sg(ann, Y)")["ok"]

    def test_retract(self, client):
        client.request("FACT parent(eve, dan).")
        reply = client.request("RETRACT parent(eve, dan).")
        assert reply["ok"] and reply["removed"]

    def test_empty_lines_ignored(self, client):
        client.send("")
        client.send("")
        assert client.request("STATS")["ok"]

    def test_pipelined_requests_reply_in_order(self, client):
        for i in range(5):
            client.send("QUERY sg(ann, Y)" if i % 2 else "STATS")
        verbs = [client.read()["verb"] for _ in range(5)]
        assert verbs == ["STATS", "QUERY", "STATS", "QUERY", "STATS"]

    def test_requests_across_connections_run_concurrently(self, server):
        # One connection's FIFO never blocks another connection.
        clients = [Client(server) for _ in range(8)]
        try:
            for c in clients:
                c.send("QUERY sg(ann, Y)")
            replies = [c.read() for c in clients]
            assert all(r["ok"] for r in replies)
        finally:
            for c in clients:
                c.close()


class TestHttp:
    def test_healthz(self, server):
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        sock.close()
        body = data.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body)["status"] == "ok"


class TestBoundedFrames:
    def test_drain_is_bounded(self, server):
        sock = socket.create_connection(server.address, timeout=10)
        # Stream far past MAX_DRAIN_BYTES without a newline, then the
        # newline: one error envelope, then the server closes.
        chunk = b"y" * 65536
        try:
            for _ in range(12):  # 768 KiB > MAX_DRAIN_BYTES
                sock.sendall(chunk)
            sock.sendall(b"\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # server already gave up on us: equally acceptable
        sock.settimeout(10)
        data = b""
        try:
            while True:
                got = sock.recv(65536)
                if not got:
                    break
                data += got
        except (ConnectionResetError, socket.timeout):
            pass
        sock.close()
        if data:
            reply = json.loads(data.decode().splitlines()[0])
            assert reply["error"]["type"] == "ProtocolError"


class TestDisconnect:
    def test_eof_cancels_inflight_request(self):
        import repro.workloads as w

        db = Database()
        db.load_source(
            "path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y)."
        )
        for row in w.random_digraph(120, 600, seed=1).rows():
            db.add_fact("edge", row)
        with AsyncQueryServer(QuerySession(db), workers=0) as srv:
            sock = socket.create_connection(srv.address, timeout=10)
            sock.sendall(b"QUERY path(X, Y)\n")
            time.sleep(0.1)  # let the evaluation start
            sock.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if srv.session.metrics.disconnects >= 1:
                    break
                time.sleep(0.05)
            assert srv.session.metrics.disconnects >= 1

    def test_disconnect_between_requests_is_quiet(self, server):
        c = Client(server)
        assert c.request("STATS")["ok"]
        c.close()
        time.sleep(0.2)
        # The reaped connection must not count as an error.
        assert server.session.metrics.errors == 0


class TestIdleSweep:
    def test_silent_connection_is_closed(self):
        with AsyncQueryServer(
            QuerySession(_database()), workers=0, idle_timeout=0.3
        ) as srv:
            sock = socket.create_connection(srv.address, timeout=10)
            sock.settimeout(5)
            assert sock.recv(4096) == b""  # server closed on us
            sock.close()

    def test_subscribed_connection_is_exempt(self):
        with AsyncQueryServer(
            QuerySession(_database()), workers=0, idle_timeout=0.3
        ) as srv:
            c = Client(srv)
            try:
                assert c.request("SUBSCRIBE parent/2")["ok"]
                time.sleep(1.0)  # several sweep periods
                srv.session.add_fact("parent", ("zz", "qq"))
                delta = c.read()  # still connected: the DELTA arrives
                assert delta["verb"] == "DELTA"
            finally:
                c.close()


class TestSubscribe:
    def test_delta_pushed_on_fact(self, server, client):
        sub = client.request("SUBSCRIBE parent/2")
        assert sub["ok"]
        other = Client(server)
        try:
            other.request("FACT parent(eve, dan).")
            delta = client.read()
            assert delta["verb"] == "DELTA"
            assert delta["adds"] == [["eve", "dan"]]
            assert delta["subscription"] == sub["subscription"]
        finally:
            other.close()

    def test_unsubscribe_stops_pushes(self, server, client):
        sub = client.request("SUBSCRIBE parent/2")
        assert client.request(f"UNSUBSCRIBE {sub['subscription']}")["removed"]
        server.session.add_fact("parent", ("x1", "y1"))
        time.sleep(0.2)
        assert client.request("STATS")["verb"] == "STATS"  # no DELTA queued


class TestManyIdleConnections:
    def test_hundreds_of_idle_connections_stay_cheap(self, server):
        # The event loop holds every idle connection without a thread;
        # the full thousands-scale run lives in benchmarks/bench_async.
        conns = []
        try:
            for _ in range(300):
                conns.append(
                    socket.create_connection(server.address, timeout=10)
                )
            probe = Client(server)
            try:
                t0 = time.perf_counter()
                assert probe.request("QUERY sg(ann, Y)")["ok"]
                assert time.perf_counter() - t0 < 5.0
            finally:
                probe.close()
            assert threading.active_count() < 50
        finally:
            for sock in conns:
                sock.close()


class TestUptimeMonotonic:
    def test_uptime_ignores_wall_clock_jumps(self, server, monkeypatch):
        first = server.session.health()["uptime_s"]
        # An NTP step back in wall-clock time must not produce negative
        # or shrinking uptime: uptime is monotonic-clock based.
        monkeypatch.setattr(time, "time", lambda: 0.0)
        second = server.session.health()["uptime_s"]
        assert second >= first >= 0.0


class TestFailedStartup:
    def test_pool_failure_unregisters_listener_and_frees_port(
        self, monkeypatch
    ):
        def cannot_fork(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(eventloop, "WorkerPool", cannot_fork)
        session = QuerySession(_database())
        listeners = list(session.database._mutation_listeners)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(OSError, match="fork"):
            AsyncQueryServer(session, port=port, workers=1)
        assert session.database._mutation_listeners == listeners
        # The half-built server's listening socket was closed too.
        AsyncQueryServer(session, port=port, workers=0).shutdown()
