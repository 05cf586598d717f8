"""The line protocol over a socket: envelopes, timeout/depth budgets.

Cases that must hold in both evaluation modes (query/cache/fact round
trips, unknown verbs, oversized lines, the /metrics scrape) live in
``test_protocol_conformance.py``, which runs them in-process and on
forked workers.
"""

import json
import socket
import time

import pytest

from repro.engine.database import Database
from repro.service import QuerySession
from repro.workloads import FamilyConfig, family_database, SG

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


@pytest.fixture
def server(serve):
    db = Database()
    db.load_source(SOURCE)
    return serve(QuerySession(db))


class Client:
    def __init__(self, server):
        self.sock = socket.create_connection(server.address, timeout=10)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def request(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


class TestProtocol:
    def test_query_accepts_prolog_dressing(self, client):
        reply = client.request("QUERY ?- sg(ann, Y).")
        assert reply["ok"] and reply["count"] == 1

    def test_plan(self, client):
        reply = client.request("PLAN sg(ann, Y)")
        assert reply["ok"] and reply["verb"] == "PLAN"
        assert "strategy:" in reply["plan"]
        assert reply["recursion_class"] == "linear"

    def test_rule_through_fact_verb(self, client):
        reply = client.request("FACT sg(X, Y) :- parent(X, Y).")
        assert reply["ok"] and reply["kind"] == "rule"
        assert reply["idb_version"] > 0
        after = client.request("QUERY sg(ann, Y)")
        assert ["ann", "carol"] in after["answers"]

    def test_stats(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("STATS")
        assert reply["ok"] and reply["verb"] == "STATS"
        stats = reply["stats"]
        assert stats["queries"] >= 1
        assert "plan_cache" in stats and "latency" in stats
        assert stats["database"]["rules"] == 2

    def test_multiple_requests_per_connection(self, client):
        for _ in range(5):
            assert client.request("QUERY sg(ann, Y)")["ok"]


class TestObservability:
    def test_explain_verb(self, client):
        reply = client.request("EXPLAIN sg(ann, Y)")
        assert reply["ok"] and reply["verb"] == "EXPLAIN"
        trace = reply["trace"]
        assert trace["query"] == "sg(ann, Y)"
        assert trace["answers"] == 1
        assert trace["strategy"] == "counting"
        assert trace["expansion"], "EXPLAIN must report expansion ratios"
        assert "split_check" in trace
        assert trace["counters"]["derived_tuples"] > 0

    def test_explain_fixpoint_strategy_reports_rounds(self, client):
        # The free query routes to magic sets, a fixpoint strategy.
        reply = client.request("EXPLAIN sg(X, Y)")
        trace = reply["trace"]
        assert trace["strategy"] == "magic_sets"
        assert trace["rounds"], "EXPLAIN must report fixpoint rounds"
        assert all(
            set(row) == {"round", "delta"} for row in trace["rounds"]
        )

    def test_explain_bypasses_result_cache(self, client):
        client.request("QUERY sg(ann, Y)")  # warm the result cache
        reply = client.request("EXPLAIN sg(ann, Y)")
        # A cache hit would have produced an empty trace.
        assert reply["trace"]["expansion"]

    def test_trace_without_argument_replays_last(self, client):
        first = client.request("TRACE")
        assert not first["ok"] and first["error"]["type"] == "NoTrace"
        client.request("EXPLAIN sg(ann, Y)")
        reply = client.request("TRACE")
        assert reply["ok"] and reply["verb"] == "TRACE"
        assert reply["trace"]["query"] == "sg(ann, Y)"

    def test_trace_with_argument_is_explain(self, client):
        reply = client.request("TRACE sg(ann, Y)")
        assert reply["ok"] and reply["verb"] == "TRACE"
        assert reply["trace"]["expansion"]

    def test_explain_missing_argument(self, client):
        assert not client.request("EXPLAIN")["ok"]

    def test_explain_counts_toward_metrics(self, server, client):
        client.request("EXPLAIN sg(ann, Y)")
        reply = client.request("STATS")
        assert reply["stats"]["queries"] >= 1
        assert reply["stats"]["evaluated_latency_histogram"]["count"] >= 1

    def test_metrics_verb(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("METRICS")
        assert reply["ok"] and reply["verb"] == "METRICS"
        assert reply["content_type"].startswith("text/plain")
        body = reply["body"]
        assert "# TYPE repro_queries_total counter" in body
        assert "repro_queries_total 1" in body
        assert 'quantile="0.99"' in body
        assert 'le="+Inf"' in body


class TestErrorEnvelopes:
    def test_unknown_predicate(self, client):
        reply = client.request("QUERY nosuch(X)")
        assert not reply["ok"]
        assert reply["error"]["type"] == "PlanningError"

    def test_missing_argument(self, client):
        assert not client.request("QUERY")["ok"]
        assert not client.request("PLAN")["ok"]
        assert not client.request("FACT")["ok"]

    def test_errors_counted(self, server, client):
        client.request("QUERY nosuch(X)")
        assert server.session.metrics.errors == 1


class TestBudgets:
    def test_depth_budget_returns_envelope(self, serve):
        db = family_database(
            FamilyConfig(levels=6, width=8, countries=2, seed=1), program=SG
        )
        client = Client(serve(QuerySession(db), max_depth=1))
        try:
            reply = client.request("QUERY sg(p0_0, Y)")
            # Depth 1 cannot cover a 6-level family: either an error
            # envelope or a strategy that ignores the budget — but
            # never a dead connection.
            assert reply["verb"] == "QUERY"
            assert client.request("STATS")["ok"]
        finally:
            client.close()

    def test_timeout_returns_envelope(self, serve):
        # Deterministic: a session whose evaluation outlasts any budget
        # by construction (real workloads race the clock and flake).
        class SlowSession(QuerySession):
            def execute(self, query_source, max_depth=None, budget=None):
                time.sleep(0.25)
                return super().execute(query_source, max_depth, budget)

        db = Database()
        db.load_source(SOURCE)
        srv = serve(SlowSession(db), timeout=0.05)
        client = Client(srv)
        try:
            reply = client.request("QUERY sg(ann, Y)")
            assert not reply["ok"]
            assert reply["error"]["type"] == "Timeout"
            assert srv.session.metrics.timeouts == 1
            assert client.request("STATS")["ok"]
        finally:
            client.close()
