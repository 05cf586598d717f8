"""E8 — the serving layer: cached vs cold query latency, throughput.

The service claim: a warm repeated query through a
:class:`~repro.service.QuerySession` skips planning and evaluation
entirely (plan + result cache hits), so repeat latency must sit far
below the cold path the CLI used to take per query — a fresh
:class:`~repro.core.planner.Planner` that re-rectifies and
re-classifies the whole rule base before evaluating.  The acceptance
bar is a >= 5x gap; in practice it is orders of magnitude.  The second
table measures end-to-end server throughput (requests/sec) over one
TCP connection.
"""

import json
import socket
import time

import pytest

from repro.core.planner import Planner
from repro.engine.database import Database
from repro.service import AsyncQueryServer, QuerySession
from repro.workloads import (
    SCSG,
    SG,
    TRAVEL,
    FamilyConfig,
    FlightConfig,
    family_database,
    flight_database,
)

from .harness import print_table, run_once

WORKLOADS = {
    "sg": (
        lambda: family_database(
            FamilyConfig(levels=5, width=12, countries=3, seed=11), program=SG
        ),
        "sg(p0_0, Y)",
    ),
    "scsg": (
        lambda: family_database(
            FamilyConfig(levels=5, width=12, countries=3, seed=11), program=SCSG
        ),
        "scsg(p0_0, Y)",
    ),
    "travel": (
        lambda: flight_database(
            FlightConfig(airports=8, extra_flights=0, seed=5), program=TRAVEL
        ),
        "travel(L, city0, DT, city7, AT, F)",
    ),
}


def _time(fn, repeat):
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def _cold_query(db, query):
    """The pre-service CLI path: fresh Planner per query."""
    return Planner(db).answer_rows(query)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", ["cold", "warm"])
def test_query_latency(benchmark, name, mode):
    build, query = WORKLOADS[name]
    db = build()
    if mode == "cold":
        run_once(benchmark, lambda: _cold_query(db, query))
    else:
        session = QuerySession(db)
        session.answer_rows(query)  # fill both caches
        run_once(benchmark, lambda: session.answer_rows(query))


def test_cached_vs_cold_table(benchmark):
    def build():
        rows = []
        for name in sorted(WORKLOADS):
            builder, query = WORKLOADS[name]
            db = builder()
            session = QuerySession(db)
            expected = _cold_query(db, query)
            assert session.answer_rows(query) == expected
            cold = _time(lambda: _cold_query(db, query), repeat=5)
            warm = _time(lambda: session.answer_rows(query), repeat=50)
            speedup = cold / warm if warm else float("inf")
            # The acceptance bar: cached repeats >= 5x faster than the
            # cold per-query Planner path.
            assert speedup >= 5.0, f"{name}: only {speedup:.1f}x"
            snap = session.metrics.snapshot()
            rows.append(
                [
                    name,
                    f"{cold * 1e3:.3f}",
                    f"{warm * 1e3:.3f}",
                    f"{speedup:.0f}x",
                    snap["result_cache"]["hits"],
                ]
            )
        print_table(
            "service: cold per-query Planner vs warm QuerySession",
            ["workload", "cold ms", "warm ms", "speedup", "cache hits"],
            rows,
        )
        return rows

    run_once(benchmark, build)


def test_server_throughput(benchmark):
    def build():
        db = Database()
        db.load_source(
            """
            sg(X, Y) :- sibling(X, Y).
            sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
            parent(ann, carol). parent(bob, dan). sibling(carol, dan).
            """
        )
        rows = []
        with AsyncQueryServer(QuerySession(db), workers=0) as server:
            sock = socket.create_connection(server.address, timeout=10)
            io = sock.makefile("rw", encoding="utf-8")

            def request(line):
                io.write(line + "\n")
                io.flush()
                return json.loads(io.readline())

            request("QUERY sg(ann, Y)")  # warm the caches
            for batch in (100, 500):
                start = time.perf_counter()
                for _ in range(batch):
                    reply = request("QUERY sg(ann, Y)")
                    assert reply["ok"]
                elapsed = time.perf_counter() - start
                rows.append(
                    [batch, f"{elapsed * 1e3:.1f}", f"{batch / elapsed:.0f}"]
                )
            io.close()
            sock.close()
        print_table(
            "service: warm QUERY throughput over one TCP connection",
            ["requests", "total ms", "req/s"],
            rows,
        )
        return rows

    run_once(benchmark, build)
