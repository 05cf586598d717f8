"""Slow-query forensics: session slowlog/health/profile, server verbs.

A session with ``slow_query_ms`` set profiles every evaluated query
and retains offenders — with their full span profile and Chrome trace
— in a bounded ring.  The server exposes the ring over the PROFILE /
SLOWLOG / HEALTH verbs and the ``/healthz`` / ``/slowlog`` HTTP
routes, and the metrics page grows per-verb latency series plus a
slow-query counter.
"""

import json
import socket

import pytest

from repro.engine.database import Database
from repro.service import QuerySession

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


def build_db():
    db = Database()
    db.load_source(SOURCE)
    return db


def eager_session(**kwargs):
    """A session whose threshold (0ms) trips on every evaluated query."""
    return QuerySession(build_db(), slow_query_ms=0.0, **kwargs)


class TestSlowlogCapture:
    def test_evaluated_query_trips_threshold(self):
        session = eager_session()
        session.execute("sg(ann, Y)")
        (entry,) = session.slowlog()
        assert entry["query"] == "sg(ann, Y)"
        assert entry["threshold_ms"] == 0.0
        assert entry["elapsed_ms"] >= 0.0
        assert entry["answers"] == 1
        assert entry["counters"]["derived_tuples"] > 0
        assert session.metrics.slow_queries == 1

    def test_entry_carries_profile_and_trace(self):
        session = eager_session()
        session.execute("sg(ann, Y)")
        (entry,) = session.slowlog()
        profile = entry["profile"]
        assert profile["spans"] > 0
        assert profile["rows"] and 0.0 < profile["coverage"] <= 1.0
        trace = entry["chrome_trace"]
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        # The whole entry must survive strict JSON (the /slowlog body).
        json.dumps(entry, allow_nan=False)

    def test_view_backed_read_profiles_the_view_build(self):
        """The first read of an IVM session builds the view; that build
        used to run outside any span, so the entry's profile claimed
        full coverage of the ~1/8 of the request it had seen."""
        from repro.workloads import SG, FamilyConfig, family_database

        config = FamilyConfig(
            levels=4, width=8, parents_per_child=2, countries=2, seed=7
        )
        session = QuerySession(
            family_database(config, program=SG), ivm=True, slow_query_ms=0.0
        )
        assert session.execute("sg(p0_2, Y)").via_view
        (entry,) = session.slowlog()
        names = {(r["cat"], r["name"]) for r in entry["profile"]["rows"]}
        assert ("stage", "ivm_refresh") in names
        assert entry["profile"]["wall_ms"] >= 0.5 * entry["elapsed_ms"]

    def test_cache_hit_never_logged(self):
        session = eager_session()
        session.execute("sg(ann, Y)")
        session.execute("sg(ann, Y)")  # result-cache hit: not evaluated
        assert len(session.slowlog()) == 1
        assert session.metrics.slow_queries == 1

    def test_fast_query_under_threshold_not_logged(self):
        session = QuerySession(build_db(), slow_query_ms=60_000.0)
        session.execute("sg(ann, Y)")
        assert session.slowlog() == []
        assert session.metrics.slow_queries == 0

    def test_disabled_by_default(self):
        session = QuerySession(build_db())
        session.execute("sg(ann, Y)")
        assert session.slow_query_ms is None
        assert session.slowlog() == []

    def test_ring_is_bounded_most_recent_first(self):
        session = eager_session(slowlog_size=2)
        for name in ("ann", "bob", "carol"):
            session.execute(f"sg({name}, Y)")
        entries = session.slowlog()
        assert [e["query"] for e in entries] == [
            "sg(carol, Y)", "sg(bob, Y)",
        ]
        assert session.metrics.slow_queries == 3  # counter keeps counting

    def test_clear_returns_dropped_count(self):
        session = eager_session()
        session.execute("sg(ann, Y)")
        session.execute("sg(bob, Y)")
        assert session.clear_slowlog() == 2
        assert session.slowlog() == []
        assert session.clear_slowlog() == 0


class TestHealth:
    def test_health_summary_fields(self):
        session = eager_session()
        session.execute("sg(ann, Y)")
        health = session.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert health["queries"] == 1
        assert health["slow_queries"] == 1 and health["slowlog"] == 1
        assert health["slow_query_ms"] == 0.0
        assert health["caches"]["result_cache"] == 1
        assert health["database"]["rules"] == 2
        json.dumps(health, allow_nan=False)


class TestSessionProfile:
    def test_profile_report_fields(self):
        session = QuerySession(build_db())
        report = session.profile("sg(ann, Y)")
        assert report["query"] == "sg(ann, Y)"
        assert report["strategy"]
        assert report["answers"] == 1
        assert report["rows"] and report["spans"] > 0
        assert report["elapsed_ms"] > 0.0
        assert "chrome_trace" not in report

    def test_include_trace_embeds_chrome_json(self):
        session = QuerySession(build_db())
        report = session.profile("sg(ann, Y)", include_trace=True)
        trace = report["chrome_trace"]
        assert trace["displayTimeUnit"] == "ms"
        json.dumps(report, allow_nan=False)

    def test_last_profile_retained(self):
        session = QuerySession(build_db())
        assert session.last_profile is None
        report = session.profile("sg(ann, Y)")
        assert session.last_profile is report

    def test_profile_bypasses_result_cache_but_fills_it(self):
        session = QuerySession(build_db())
        session.execute("sg(ann, Y)")
        report = session.profile("sg(ann, Y)")
        assert report["spans"] > 0  # a cache hit would have no spans
        assert session.execute("sg(ann, Y)").result_cached


class TestVerbLatency:
    def test_verbs_recorded_under_their_labels(self):
        session = QuerySession(build_db())
        session.execute("sg(ann, Y)")
        session.plan("sg(bob, Y)")
        session.add_fact("parent", ("eve", "dan"))
        verb_latency = session.metrics.snapshot()["verb_latency"]
        assert verb_latency["QUERY"]["count"] == 1
        assert verb_latency["PLAN"]["count"] == 1
        assert verb_latency["FACT"]["count"] == 1

    def test_prometheus_exports_labelled_family(self):
        session = eager_session()
        session.execute("sg(ann, Y)")
        session.plan("sg(bob, Y)")
        text = session.metrics_text()
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'repro_request_latency_seconds_bucket{verb="QUERY",le=' in text
        assert 'repro_request_latency_seconds_count{verb="PLAN"}' in text
        assert 'repro_request_latency_quantile_seconds{verb="QUERY",quantile="0.99"}' in text
        assert "# TYPE repro_slow_queries_total counter" in text
        assert "repro_slow_queries_total 1" in text

    def test_family_samples_are_contiguous(self):
        """All samples of the labelled family sit under one header —
        the exposition-format contract scrapers enforce."""
        session = QuerySession(build_db())
        session.execute("sg(ann, Y)")
        session.plan("sg(bob, Y)")
        lines = session.metrics_text().splitlines()
        type_lines = [
            l for l in lines
            if l.startswith("# TYPE repro_request_latency_seconds ")
        ]
        assert len(type_lines) == 1
        samples = [
            i for i, l in enumerate(lines)
            if l.startswith("repro_request_latency_seconds")
        ]
        assert samples == list(range(samples[0], samples[-1] + 1))


@pytest.fixture
def server(serve):
    return serve(QuerySession(build_db(), slow_query_ms=0.0))


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


def http_get(server, path):
    sock = socket.create_connection(server.address, timeout=10)
    try:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return head, body


class TestServerVerbs:
    def test_profile_verb(self, client):
        reply = client.request("PROFILE sg(ann, Y)")
        assert reply["ok"] and reply["verb"] == "PROFILE"
        profile = reply["profile"]
        assert profile["query"] == "sg(ann, Y)"
        assert profile["answers"] == 1
        assert profile["rows"] and profile["spans"] > 0

    def test_profile_missing_argument(self, client):
        reply = client.request("PROFILE")
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError"

    def test_slowlog_verb_round_trip(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("SLOWLOG")
        assert reply["ok"] and reply["verb"] == "SLOWLOG"
        assert reply["threshold_ms"] == 0.0
        assert [e["query"] for e in reply["entries"]] == ["sg(ann, Y)"]
        assert reply["entries"][0]["profile"]["spans"] > 0

    def test_slowlog_clear(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("SLOWLOG CLEAR")
        assert reply["ok"] and reply["cleared"] == 1
        assert client.request("SLOWLOG")["entries"] == []

    def test_health_verb(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("HEALTH")
        assert reply["ok"] and reply["verb"] == "HEALTH"
        health = reply["health"]
        assert health["status"] == "ok" and health["queries"] == 1

    def test_http_healthz(self, server, client):
        client.request("QUERY sg(ann, Y)")
        head, body = http_get(server, "/healthz")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"application/json" in head
        health = json.loads(body)
        assert health["status"] == "ok" and health["slowlog"] == 1

    def test_http_slowlog(self, server, client):
        client.request("QUERY sg(ann, Y)")
        head, body = http_get(server, "/slowlog")
        assert head.startswith(b"HTTP/1.0 200 OK")
        entries = json.loads(body)
        assert entries[0]["query"] == "sg(ann, Y)"
        assert entries[0]["chrome_trace"]["traceEvents"]

    def test_http_unknown_route_is_404(self, server):
        head, body = http_get(server, "/nosuch")
        assert head.startswith(b"HTTP/1.0 404")
        assert b"/healthz" in body
