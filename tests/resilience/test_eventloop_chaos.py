"""Chaos against the event loop and the worker dispatch.

The socket storm of ``test_chaos.py`` (which layers relation faults on
top, in-process only) with the same contract — no wedge, no malformed
reply, observability stays alive — run in-process and (where fork is
available) on the multiprocessing evaluator pool.
"""

import json
import socket
import threading
import time

import pytest

from repro.engine.database import Database
from repro.resilience import Budget, ChaosSchedule
from repro.resilience.chaos import ChaosClient
from repro.service import AsyncQueryServer, QuerySession
from repro.service.workers import fork_available

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""

LINES = [
    "QUERY sg(ann, Y)",
    "STATS",
    "QUERY sg(bob, Y)",
    "HEALTH",
    "QUERY sg(nobody, Y)",
    "PLAN sg(ann, Y)",
]


def _database():
    db = Database()
    db.load_source(SOURCE)
    return db


def _scrape(address, path):
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        return sock.makefile("rb").read()


class TestEventLoopSocketChaos:
    def test_storm_of_faulty_clients_inprocess(self):
        self._storm(workers=0)

    @pytest.mark.skipif(
        not fork_available(), reason="worker pool needs fork"
    )
    def test_storm_of_faulty_clients_worker_pool(self):
        self._storm(workers=2)

    def _storm(self, workers):
        schedule = ChaosSchedule(
            seed=5, rates={"error": 0.12, "delay": 0.08, "drop": 0.10}
        )
        with AsyncQueryServer(
            QuerySession(_database()),
            workers=workers,
            budget=Budget(max_tuples=10_000),
            timeout=5.0,
        ) as srv:
            client = ChaosClient(*srv.address, schedule=schedule)
            for wave in range(4):
                for line in LINES * 3:
                    outcome, reply = client.request(line)
                    if outcome == "drop":
                        assert reply is None
                        continue
                    # Garbage, truncation and clean frames alike must
                    # come back as one well-formed JSON envelope.
                    assert reply, (outcome, line)
                    envelope = json.loads(reply)
                    assert isinstance(envelope, dict)
                    assert "ok" in envelope
                    if not envelope["ok"]:
                        assert envelope["error"]["type"]
                # The observability surface never degrades mid-storm.
                health = _scrape(srv.address, "/healthz")
                assert health.startswith(b"HTTP/1.0 200"), wave
                metrics = _scrape(srv.address, "/metrics")
                assert metrics.startswith(b"HTTP/1.0 200"), wave
                assert b"repro_queries_total" in metrics

            # After the storm: a clean client gets clean answers.
            clean = srv.handle_line("QUERY sg(ann, Y)")
            assert clean["ok"] and clean["answers"]

        snap = schedule.snapshot()
        assert snap["injected"] >= 15, snap


class TestEventLoopOverload:
    def test_saturation_sheds_instead_of_wedging(self):
        class SlowSession(QuerySession):
            def execute(self, query_source, max_depth=None, budget=None):
                time.sleep(0.03)
                return super().execute(query_source, max_depth, budget)

        session = SlowSession(_database())
        replies = []
        replies_lock = threading.Lock()

        def hammer(srv, count):
            for _ in range(count):
                reply = srv.handle_line("QUERY sg(ann, Y)")
                with replies_lock:
                    replies.append(reply)

        with AsyncQueryServer(
            session, workers=0, max_pending=2, dispatch_threads=2
        ) as srv:
            threads = [
                threading.Thread(target=hammer, args=(srv, 10))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

            assert len(replies) == 80
            shed = [r for r in replies if not r["ok"]]
            served = [r for r in replies if r["ok"]]
            assert served, "saturation must not starve everyone"
            assert shed, "8 hammers against max_pending=2 must shed"
            assert all(r["error"]["type"] == "Overloaded" for r in shed)
            assert all(r["retry_after"] > 0 for r in shed)
            assert session.metrics.rejected == len(shed)
            # Cheap verbs keep working while QUERY is shed.
            assert srv.handle_line("HEALTH")["ok"]
            body = srv.handle_line("METRICS")["body"]
            assert "repro_rejected_total" in body
