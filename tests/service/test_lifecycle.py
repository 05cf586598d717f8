"""Request lifecycle telemetry: the flight recorder end to end.

Covers the RequestRecord/FlightRecorder primitives, the REQLOG verb
and ``GET /reqlog`` route on both front ends, the per-stage latency
histograms, worker-pool health degradation, and the acceptance path:
a slow pooled query lands in the *parent's* SLOWLOG carrying the
worker's span profile, and its Chrome trace holds both event-loop
stage spans and worker evaluation spans correlated by one request id.
"""

import json
import socket
import time

import pytest

from repro.engine.database import Database
from repro.observe import (
    STAGES,
    FlightRecorder,
    activate,
    chrome_stage_events,
    current_id,
    mark_stage,
    merge_worker_trace,
)
from repro.observe.lifecycle import RequestRecord
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


class Client:
    def __init__(self, server, timeout=10):
        self.sock = socket.create_connection(server.address, timeout=timeout)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def request(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self):
        self.file.close()
        self.sock.close()


def http_get(server, path):
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.decode(), body


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestRequestRecord:
    def test_marks_are_idempotent_and_ordered(self):
        record = RequestRecord("req-x-1")
        record.mark("read")
        first = record.marks["read"]
        record.mark("read")
        assert record.marks["read"] == first
        record.mark("eval")
        durations = record.stage_durations_ns()
        assert set(durations) == {"read", "eval"}
        assert all(ns >= 0 for ns in durations.values())

    def test_as_dict_is_json_safe(self):
        record = RequestRecord("req-x-2", client="127.0.0.1:1")
        record.verb = "QUERY"
        record.detail = "QUERY sg(ann, Y)"
        for stage in STAGES:
            record.mark(stage)
        record.finish("ok")
        rendered = record.as_dict()
        json.dumps(rendered, allow_nan=False)
        assert rendered["id"] == "req-x-2"
        assert rendered["status"] == "ok"
        assert rendered["pooled"] is True
        assert set(rendered["stages_ms"]) == set(STAGES)
        assert rendered["total_ms"] >= 0.0

    def test_finish_is_first_writer_wins(self):
        record = RequestRecord("req-x-3")
        record.finish("ok")
        record.finish("aborted")
        assert record.status == "ok"


class TestFlightRecorder:
    def test_ring_is_bounded_most_recent_first(self):
        recorder = FlightRecorder(size=3)
        for _ in range(5):
            record = recorder.begin()
            record.mark("read")
            record.finish("ok")
            recorder.commit(record)
        records = recorder.records()
        assert len(records) == 3
        ids = [r["id"] for r in records]
        assert ids == sorted(ids, key=lambda i: -int(i.rsplit("-", 1)[1]))

    def test_size_zero_disables(self):
        recorder = FlightRecorder(size=0)
        assert not recorder.enabled
        assert recorder.begin() is None
        recorder.commit(None)  # must not raise
        assert recorder.records() == []

    def test_commit_is_idempotent(self):
        recorder = FlightRecorder(size=8)
        record = recorder.begin()
        record.finish("ok")
        recorder.commit(record)
        recorder.commit(record)
        assert len(recorder) == 1

    def test_ids_are_unique(self):
        recorder = FlightRecorder(size=16)
        ids = {recorder.begin().id for _ in range(10)}
        assert len(ids) == 10

    def test_commit_feeds_stage_histograms(self):
        session = QuerySession(build_db())
        record = session.lifecycle.begin()
        record.mark("read")
        record.mark("eval")
        record.finish("ok")
        session.lifecycle.commit(record, session.metrics)
        stages = session.metrics.snapshot()["stage_latency"]
        assert stages["read"]["count"] == 1
        assert stages["eval"]["count"] == 1


class TestActiveRecordContext:
    def test_noop_without_record(self):
        assert current_id() is None
        mark_stage("eval")  # must not raise
        with activate(None):
            assert current_id() is None

    def test_activate_installs_and_restores(self):
        record = RequestRecord("req-ctx-1")
        with activate(record):
            assert current_id() == "req-ctx-1"
            mark_stage("parse")
        assert current_id() is None
        assert "parse" in record.marks

    def test_activation_nests(self):
        outer = RequestRecord("req-ctx-outer")
        inner = RequestRecord("req-ctx-inner")
        with activate(outer):
            with activate(inner):
                assert current_id() == "req-ctx-inner"
            assert current_id() == "req-ctx-outer"


class TestChromeTraceMerge:
    def test_stage_events_relative_to_start(self):
        record = RequestRecord("req-tr-1")
        record.verb = "QUERY"
        record.mark("read")
        record.mark("eval")
        events = chrome_stage_events(record)
        assert [e["name"] for e in events] == ["read", "eval"]
        assert all(e["pid"] == 2 and e["ph"] == "X" for e in events)
        assert all(e["args"]["request_id"] == "req-tr-1" for e in events)
        assert events[0]["ts"] == 0.0

    def test_merge_shifts_worker_events_onto_parent_timeline(self):
        record = RequestRecord("req-tr-2")
        record.mark("read")
        record.mark("eval")
        # A worker trace whose profiler started 1ms after the frame.
        trace = {
            "traceEvents": [
                {"name": "rule", "ph": "X", "ts": 0.0, "dur": 5.0,
                 "pid": 1, "tid": 0},
                {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "worker"}},
            ],
            "otherData": {"started_at": record.created_wall + 0.001},
        }
        merged = merge_worker_trace(trace, record)
        events = merged["traceEvents"]
        worker_span = next(e for e in events if e["name"] == "rule")
        # abs tolerance: created_wall is epoch-scale, so adding 1ms
        # loses a few ns to float rounding.
        assert worker_span["ts"] == pytest.approx(1000.0, abs=1.0)
        assert worker_span["args"]["request_id"] == "req-tr-2"
        # Meta events keep ts-free; parent stage spans arrive as pid 2.
        assert any(
            e["ph"] == "M" and e["pid"] == 2
            and e["args"]["name"] == "repro event loop"
            for e in events
        )
        lifecycle = [e for e in events if e.get("cat") == "lifecycle"]
        assert {e["name"] for e in lifecycle} == {"read", "eval"}
        assert all(
            e.get("args", {}).get("request_id") == "req-tr-2" for e in events
        )
        assert merged["otherData"]["request_id"] == "req-tr-2"


# ----------------------------------------------------------------------
# REQLOG over the wire
# ----------------------------------------------------------------------
class TestAsyncReqlog:
    @pytest.fixture
    def server(self, serve):
        return serve(QuerySession(build_db()))

    @pytest.fixture
    def client(self, server):
        c = Client(server)
        yield c
        c.close()

    def test_reqlog_records_the_request(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("REQLOG")
        assert reply["ok"] and reply["verb"] == "REQLOG"
        query_records = [
            r for r in reply["records"] if r["verb"] == "QUERY"
        ]
        assert query_records, reply["records"]
        record = query_records[0]
        assert record["status"] == "ok"
        assert record["detail"] == "QUERY sg(ann, Y)"
        assert record["id"].startswith("req-")
        assert record["origin"] == "async"
        assert not record["pooled"]
        for stage in ("read", "queue", "parse", "admission", "eval",
                      "serialize", "outbox", "flush"):
            assert stage in record["stages_ms"], record

    def test_reqlog_limit_and_clear(self, client):
        for _ in range(3):
            client.request("STATS")
        limited = client.request("REQLOG 1")
        assert len(limited["records"]) == 1
        cleared = client.request("REQLOG CLEAR")
        assert cleared["ok"] and cleared["cleared"] >= 3
        assert client.request("REQLOG 99")["records"] != []  # the CLEAR itself

    def test_reqlog_rejects_garbage_limit(self, client):
        reply = client.request("REQLOG soon")
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError"

    def test_http_reqlog_route(self, server):
        Client(server).request("QUERY sg(ann, Y)")
        head, body = http_get(server, "/reqlog")
        assert "200 OK" in head
        records = json.loads(body)
        assert any(r["verb"] == "QUERY" for r in records)

    def test_http_404_advertises_reqlog(self, server):
        head, body = http_get(server, "/nope")
        assert "404" in head
        assert b"/reqlog" in body

    def test_stage_latency_metrics_exported(self, server):
        Client(server).request("QUERY sg(ann, Y)")
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            _, body = http_get(server, "/metrics")
            if b'repro_stage_latency_seconds_bucket{stage="eval"' in body:
                break
            time.sleep(0.05)
        text = body.decode()
        assert 'repro_stage_latency_seconds_bucket{stage="eval"' in text
        assert "repro_eventloop_lag_seconds" in text
        assert "repro_connections" in text
        assert "repro_outbox_bytes" in text

    def test_disabled_recorder_serves_empty_reqlog(self, serve):
        client = Client(serve(QuerySession(build_db(), reqlog_size=0)))
        assert client.request("QUERY sg(ann, Y)")["ok"]
        reply = client.request("REQLOG")
        assert reply["ok"] and reply["records"] == []
        client.close()


# ----------------------------------------------------------------------
# Worker-pool health degradation (satellite 1)
# ----------------------------------------------------------------------
class TestWorkerHealth:
    def test_dead_workers_degrade_health(self):
        session = QuerySession(build_db())
        session.metrics.worker_provider = lambda: {
            "size": 4, "alive": 2, "recent_restarts": 0,
            "last_restart_age_s": 1.0, "restarts": 2,
        }
        health = session.health()
        assert health["status"] == "degraded"
        assert "2/4 workers dead" in health["degraded_reason"]

    def test_respawn_storm_degrades_health(self):
        session = QuerySession(build_db())
        session.metrics.worker_provider = lambda: {
            "size": 4, "alive": 4, "recent_restarts": 5,
            "last_restart_age_s": 0.2, "restarts": 5,
        }
        health = session.health()
        assert health["status"] == "degraded"
        assert "respawns" in health["degraded_reason"]

    def test_healthy_pool_stays_ok(self):
        session = QuerySession(build_db())
        session.metrics.worker_provider = lambda: {
            "size": 4, "alive": 4, "recent_restarts": 0,
            "last_restart_age_s": None, "restarts": 0,
        }
        health = session.health()
        assert health["status"] == "ok"
        assert "degraded_reason" not in health

    @pytest.mark.skipif(
        not fork_available(), reason="worker pool needs fork"
    )
    def test_live_pool_snapshot_feeds_healthz(self):
        session = QuerySession(build_db())
        with AsyncQueryServer(session, workers=1) as srv:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                workers = session.health().get("workers")
                if workers and workers.get("alive") == 1:
                    break
                time.sleep(0.05)
            assert workers["size"] == 1
            assert workers["alive"] == 1
            _, body = http_get(srv, "/healthz")
            payload = json.loads(body)
            assert payload["workers"]["alive"] == 1


# ----------------------------------------------------------------------
# The acceptance path: pooled slow query, one request id end to end
# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(), reason="worker pool needs fork")
class TestPooledSlowlogCorrelation:
    def test_pooled_slow_query_lands_in_parent_slowlog(self):
        session = QuerySession(build_db(), slow_query_ms=0.0)
        with AsyncQueryServer(session, workers=1) as srv:
            client = Client(srv)
            reply = client.request("QUERY sg(ann, Y)")
            assert reply["ok"] and reply["count"] == 1
            reqlog = client.request("REQLOG")["records"]
            client.close()

        # The worker evaluated it, yet the *parent* session's slowlog
        # holds the entry — with the worker's span profile attached.
        entries = [e for e in session.slowlog() if e["origin"] == "worker"]
        assert entries, session.slowlog()
        entry = entries[0]
        assert entry["query"] == "sg(ann, Y)"
        assert entry["profile"]["spans"] > 0
        json.dumps(entry, allow_nan=False)

        # One request id correlates REQLOG, the slowlog entry and every
        # event of the merged Chrome trace.
        request_id = entry["request_id"]
        assert request_id and request_id.startswith("req-")
        record = next(r for r in reqlog if r["id"] == request_id)
        assert record["verb"] == "QUERY"
        assert record["pooled"] is True
        assert "worker" in record["stages_ms"]

        events = entry["chrome_trace"]["traceEvents"]
        lifecycle = [e for e in events if e.get("cat") == "lifecycle"]
        worker_spans = [
            e for e in events
            if e.get("ph") == "X" and e.get("cat") != "lifecycle"
        ]
        assert lifecycle and worker_spans
        assert all(e["pid"] == 2 for e in lifecycle)
        assert {e["name"] for e in lifecycle} >= {"read", "worker", "eval"}
        assert all(
            e.get("args", {}).get("request_id") == request_id
            for e in events
        )

    def test_worker_wait_histogram_populates(self):
        session = QuerySession(build_db())
        with AsyncQueryServer(session, workers=1) as srv:
            client = Client(srv)
            client.request("QUERY sg(ann, Y)")
            client.close()
        snap = session.metrics.snapshot()
        assert snap["worker_wait_histogram"]["count"] >= 1
        text = session.metrics_text()
        assert "repro_worker_acquire_wait_seconds_bucket" in text
        assert "repro_workers_alive" in text
