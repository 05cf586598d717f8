"""The cache-hit path: answered on the event loop, from the one cache.

A hit is decided in the serving process and — when the connection has
nothing queued and the session lock is free — answered right on the
loop thread, every reply of one readable pass in one ``send``.  These
cases pin the path's guarantees (never blocks, per-connection FIFO,
bounded per pass) and that it stays *one* code path with the dispatch
threads': admission, lifecycle records and the capture tap all see it.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.engine.database import Database
from repro.observe import STAGES, load_archive, replay_archive
from repro.service import AsyncQueryServer, QuerySession, eventloop
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.workers import fork_available

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). parent(eve, fay).
sibling(carol, dan). sibling(dan, carol).
"""

HIT = "QUERY sg(ann, Y)"

#: Evaluation modes every semantic case must hold in.
MODES = [0] + ([1, 2] if fork_available() else [])


def _session(**options):
    db = Database()
    db.load_source(SOURCE)
    return QuerySession(db, **options)


class Client:
    def __init__(self, server, timeout=10):
        self.sock = socket.create_connection(server.address, timeout=timeout)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def send(self, *lines):
        """One socket write of every line."""
        self.sock.sendall("".join(line + "\n" for line in lines).encode())

    def read(self):
        return json.loads(self.file.readline())

    def request(self, line):
        self.send(line)
        return self.read()

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def connect():
    """``connect(session, **options)`` → (server, client), torn down
    with the test."""
    opened = []

    def _connect(session, **options):
        server = AsyncQueryServer(session, **options).start()
        client = Client(server)
        opened.append((server, client))
        return server, client

    yield _connect
    for server, client in opened:
        client.close()
        server.shutdown()


class TestInlineHits:
    @pytest.mark.parametrize("workers", MODES)
    def test_pipelined_mix_answered_in_request_order(self, connect, workers):
        _, client = connect(_session(), workers=workers)
        assert not client.request(HIT)["result_cached"]
        burst = [
            "QUERY sg(bob, Y)", HIT, HIT, "QUERY sg(eve, Y)", HIT,
        ]
        client.send(*burst)
        replies = [client.read() for _ in burst]
        assert ["QUERY " + r["query"] for r in replies] == burst
        assert [r["result_cached"] for r in replies] == [
            False, True, True, False, True,
        ]

    def test_burst_past_the_inline_cap_stays_in_order(self, connect, monkeypatch):
        monkeypatch.setattr(eventloop, "_INLINE_PER_PASS", 4)
        server, client = connect(_session(), workers=0)
        client.request(HIT)
        client.request("QUERY sg(bob, Y)")
        inline = []
        answer_inline = server._answer_inline
        monkeypatch.setattr(
            server, "_answer_inline",
            lambda *args: inline.append(answer_inline(*args)) or inline[-1],
        )
        burst = [HIT, "QUERY sg(bob, Y)"] * 10
        client.send(*burst)
        replies = [client.read() for _ in burst]
        assert ["QUERY " + r["query"] for r in replies] == burst
        assert all(r["result_cached"] for r in replies)
        # One pass answers four on the loop; the rest take the FIFO.
        assert inline[:4] == [True] * 4
        assert sum(inline) < len(burst)

    def test_contended_lock_defers_the_hit_and_the_loop_keeps_serving(
        self, connect
    ):
        server, client = connect(_session(), workers=0)
        client.request(HIT)
        other = Client(server, timeout=10)
        try:
            with server.session._lock:
                client.send(HIT)
                # The loop did not wait for the lock: it accepts and
                # answers a second connection (an oversized line needs
                # no session lock) while the hit is parked on a
                # dispatch thread.
                other.send("x" * (MAX_LINE_BYTES + 1))
                assert other.read()["error"]["type"] == "ProtocolError"
                client.sock.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    client.sock.recv(1, socket.MSG_PEEK)
                client.sock.settimeout(10)
            reply = client.read()
            assert reply["ok"] and reply["result_cached"]
        finally:
            other.close()

    @pytest.mark.parametrize("ivm", [False, True])
    @pytest.mark.parametrize("workers", MODES)
    def test_fact_between_identical_queries(self, connect, workers, ivm):
        _, client = connect(_session(ivm=ivm), workers=workers)
        first = client.request(HIT)
        assert client.request(HIT)["result_cached"]
        assert client.request("FACT parent(gil, dan).")["added"]
        second = client.request(HIT)
        # Only an in-process IVM session can repair the entry in place
        # (it has the plan and rows); an adopted entry is evicted.
        assert second["result_cached"] == (ivm and workers == 0)
        assert second["count"] == first["count"] + 1
        assert ["ann", "gil"] in second["answers"]
        third = client.request(HIT)
        assert third["result_cached"] and third["answers"] == second["answers"]

    @pytest.mark.parametrize("ivm", [False, True])
    @pytest.mark.parametrize("workers", MODES)
    def test_fact_outside_the_closure_keeps_the_answer(
        self, connect, workers, ivm
    ):
        """With views or without, a cached (at workers >= 1,
        worker-adopted) answer survives a write its closure never reads;
        one that it does read evicts it, or repairs it in place."""
        db = Database()
        db.load_source(
            "anc(X, Y) :- par(X, Y).\n"
            "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
            "par(a, b). par(b, c). e(p, q).\n"
        )
        _, client = connect(QuerySession(db, ivm=ivm), workers=workers)
        assert client.request("QUERY anc(a, Y)")["count"] == 2
        assert client.request("FACT e(q, r).")["added"]
        kept = client.request("QUERY anc(a, Y)")
        assert kept["result_cached"] and kept["count"] == 2
        assert client.request("FACT par(c, d).")["added"]
        evicted = client.request("QUERY anc(a, Y)")
        assert evicted["result_cached"] == (ivm and workers == 0)
        assert evicted["count"] == 3

    @pytest.mark.parametrize("workers", MODES)
    def test_hit_after_a_fact_outside_the_closure_stays_on_the_loop(
        self, connect, monkeypatch, workers
    ):
        """The first cached QUERY after a write its closure never reads
        is answered on the loop thread, not parked on a dispatch
        thread until something else reconciles the caches."""
        db = Database()
        db.load_source(
            "anc(X, Y) :- par(X, Y).\n"
            "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
            "par(a, b). par(b, c). e(p, q).\n"
        )
        server, client = connect(QuerySession(db), workers=workers)
        assert client.request("QUERY anc(a, Y)")["count"] == 2
        assert client.request("FACT e(q, r).")["added"]
        inline = []
        answer_inline = server._answer_inline
        monkeypatch.setattr(
            server, "_answer_inline",
            lambda *args: inline.append(answer_inline(*args)) or inline[-1],
        )
        kept = client.request("QUERY anc(a, Y)")
        assert kept["result_cached"] and kept["count"] == 2
        assert inline == [True]

    @pytest.mark.parametrize(
        "write, ivm",
        [("FACT f(X) :- e(X, Y).", False), ("FACT e(q, r).", True)],
        ids=["rule", "ivm-fact"],
    )
    @pytest.mark.parametrize("workers", MODES)
    def test_costly_reconciliation_stays_off_the_loop(
        self, connect, monkeypatch, workers, write, ivm
    ):
        """A rule change (re-normalizing the planner, re-pinning views)
        or a write to an IVM session (repairing entries) is reconciled
        on a dispatch thread, never by the loop's hit probe."""
        db = Database()
        db.load_source(
            "anc(X, Y) :- par(X, Y).\n"
            "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
            "par(a, b). par(b, c). e(p, q).\n"
        )
        session = QuerySession(db, ivm=ivm)
        server, client = connect(session, workers=workers)
        assert client.request("QUERY anc(a, Y)")["count"] == 2
        assert client.request(write)["added"]
        on_loop = []
        syncs_on_loop = []
        answer_inline = server._answer_inline
        sync = session._sync

        def inline(*args):
            on_loop.append(True)
            try:
                return answer_inline(*args)
            finally:
                on_loop.pop()

        def recording_sync():
            if db.version != session._seen_version:
                syncs_on_loop.append(bool(on_loop))
            sync()

        monkeypatch.setattr(server, "_answer_inline", inline)
        monkeypatch.setattr(session, "_sync", recording_sync)
        answer = client.request("QUERY anc(a, Y)")
        assert answer["count"] == 2
        assert syncs_on_loop == [False]

    @pytest.mark.parametrize("workers", MODES)
    def test_reqlog_record_of_an_inline_hit(self, connect, workers):
        server, client = connect(_session(), workers=workers)
        client.request(HIT)
        assert client.request(HIT)["result_cached"]
        # The record commits as the last byte leaves, which the client
        # may beat by a few microseconds.
        deadline = time.monotonic() + 5
        while len(server.session.reqlog()) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        record = server.session.reqlog(1)[0]
        assert record["verb"] == "QUERY" and record["status"] == "ok"
        assert record["pooled"] is False
        assert list(record["stages_ms"]) == [
            stage for stage in STAGES if stage != "worker"
        ]
        assert list(record["marks_ms"]) == list(record["stages_ms"])

    def test_saturated_admission_still_sheds_a_hit(self, connect):
        server, client = connect(_session(), workers=0, max_pending=1)
        client.request(HIT)
        assert server.admission.try_acquire("QUERY")
        try:
            shed = client.request(HIT)
        finally:
            server.admission.release("QUERY")
        assert shed["error"]["type"] == "Overloaded"
        assert shed["retry_after"] == server.retry_after
        assert client.request(HIT)["result_cached"]

    def test_inline_hits_are_captured_and_replay_matches(
        self, connect, tmp_path
    ):
        path = str(tmp_path / "hits.jsonl")
        _, client = connect(_session(), workers=0)
        assert client.request(f"RECORD START {path}")["ok"]
        client.request(HIT)
        client.send(HIT, HIT, HIT)
        assert all(client.read()["result_cached"] for _ in range(3))
        assert client.request("RECORD STOP")["requests"] == 4
        _header, entries = load_archive(path)
        assert [entry["line"] for entry in entries] == [HIT] * 4
        report = replay_archive(path, pacing="max")
        assert report["ok"] and report["parity"]["matched"] == 4


class TestBurst:
    def test_nodelay_set_and_a_burst_beats_the_delayed_ack(self, connect):
        server, client = connect(_session(), workers=0)
        client.request(HIT)
        (conn,) = server._conns
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            client.send(*[HIT] * 32)
            replies = [client.read() for _ in range(32)]
            best = min(best, time.perf_counter() - start)
            assert all(r["result_cached"] for r in replies)
        # Nagle against a delayed ACK strands the burst for ~40 ms.
        assert best < 0.025


class TestStress:
    def test_hits_and_writes_from_many_connections(self, connect):
        """Loop-thread hits race dispatch-thread misses and writes for
        the one cache: every reply must be an answer that was true at
        some version, in request order, and no lookup may go uncounted."""
        server, writer = connect(_session(), workers=0)
        legal = {
            json.dumps(writer.request(HIT)["answers"]),
        }
        writer.request("FACT parent(gil, dan).")
        legal.add(json.dumps(writer.request(HIT)["answers"]))
        before = server.session.stats()["result_cache"]
        readers = [Client(server) for _ in range(4)]
        failures = []
        stop = time.monotonic() + 1.0
        sent = [0] * len(readers)

        def read_loop(index, reader):
            try:
                while time.monotonic() < stop:
                    reader.send(*[HIT] * 8)
                    sent[index] += 8
                    for _ in range(8):
                        reply = reader.read()
                        if json.dumps(reply["answers"]) not in legal:
                            failures.append(reply)
            except Exception as exc:  # surfaced below, not lost
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=read_loop, args=(i, r))
                for i, r in enumerate(readers)
            ]
            for thread in threads:
                thread.start()
            while time.monotonic() < stop:
                writer.request("RETRACT parent(gil, dan).")
                writer.request("FACT parent(gil, dan).")
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.close()
        assert not failures, failures[:3]
        after = server.session.stats()["result_cache"]
        lookups = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert lookups == sum(sent)
