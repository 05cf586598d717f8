"""SLOWLOG parity: in-process and pooled serving must retain
*schema-identical* slow-query entries.

A dashboards/tooling contract: wherever the query was evaluated,
an entry has the same keys — only ``origin`` says where it was
evaluated ("inline" vs "worker") and ``request_id`` correlates it with
the flight recorder.
"""

import json
import socket

import pytest

from repro.engine.database import Database
from repro.service import AsyncQueryServer, QuerySession
from repro.service.workers import fork_available

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


def build_db():
    db = Database()
    db.load_source(SOURCE)
    return db


def query_once(server):
    with socket.create_connection(server.address, timeout=10) as sock:
        file = sock.makefile("rw", encoding="utf-8")
        file.write("QUERY sg(ann, Y)\n")
        file.flush()
        reply = json.loads(file.readline())
        assert reply["ok"], reply
        file.write("SLOWLOG\n")
        file.flush()
        return json.loads(file.readline())


#: Evaluation modes every entry-level contract is checked in.
WORKER_MODES = (0, 1) if fork_available() else (0,)


def async_entry(workers):
    session = QuerySession(build_db(), slow_query_ms=0.0)
    with AsyncQueryServer(session, workers=workers) as server:
        reply = query_once(server)
    (entry,) = reply["entries"]
    return entry


class TestSlowlogParity:
    @pytest.mark.skipif(
        not fork_available(), reason="worker pool needs fork"
    )
    def test_pooled_entry_schema_matches_inline(self):
        inline = async_entry(workers=0)
        pooled = async_entry(workers=1)
        assert set(pooled.keys()) == set(inline.keys())
        assert inline["origin"] == "inline"
        assert pooled["origin"] == "worker"

    def test_entries_carry_request_correlation(self):
        for workers in WORKER_MODES:
            # Served over a socket with the recorder on, the id is set.
            assert async_entry(workers)["request_id"].startswith("req-")

    def test_entries_survive_strict_json_on_both_fronts(self):
        for workers in WORKER_MODES:
            json.dumps(async_entry(workers), allow_nan=False)
