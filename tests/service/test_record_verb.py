"""The RECORD verb (capture control)."""

import json
import socket

import pytest

from repro.engine.database import Database
from repro.observe import load_archive
from repro.service import AsyncQueryServer, QuerySession

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


def _session():
    db = Database()
    db.load_source(SOURCE)
    return QuerySession(db)


@pytest.fixture
def server(serve):
    return serve(_session())


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


class TestRecordVerb:
    def test_status_when_idle(self, client):
        reply = client.request("RECORD STATUS")
        assert reply["ok"] is True
        assert reply["verb"] == "RECORD"
        assert reply["recording"] is False
        assert reply["requests"] == 0

    def test_bare_record_is_status(self, client):
        reply = client.request("RECORD")
        assert reply["ok"] is True
        assert reply["recording"] is False

    def test_start_stop_cycle_writes_archive(self, client, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        started = client.request(f"RECORD START {path}")
        assert started["ok"] is True
        assert started["recording"] is True
        assert started["path"] == path
        assert started["snapshot_facts"] > 0

        client.request("QUERY sg(ann, Y)")
        client.request("STATS")
        status = client.request("RECORD STATUS")
        assert status["recording"] is True

        stopped = client.request("RECORD STOP")
        assert stopped["ok"] is True
        assert stopped["recording"] is False
        # RECORD control traffic itself is never captured.
        assert stopped["requests"] == 2
        assert stopped["errors"] == 0

        header, entries = load_archive(path)
        assert header["snapshot"]["rules"]
        assert [e["verb"] for e in entries] == ["QUERY", "STATS"]

    def test_start_without_path_is_protocol_error(self, client):
        reply = client.request("RECORD START")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ProtocolError"

    def test_start_while_recording_is_capture_error(self, client, tmp_path):
        client.request(f"RECORD START {tmp_path / 'one.jsonl'}")
        reply = client.request(f"RECORD START {tmp_path / 'two.jsonl'}")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "CaptureError"
        # The original capture is still running.
        assert client.request("RECORD STATUS")["recording"] is True
        client.request("RECORD STOP")

    def test_start_unwritable_path_is_capture_error(self, client):
        reply = client.request("RECORD START /nonexistent-dir/cap.jsonl")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "CaptureError"
        assert client.request("RECORD STATUS")["recording"] is False

    def test_stop_without_capture_is_capture_error(self, client):
        reply = client.request("RECORD STOP")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "CaptureError"

    def test_unknown_action_is_protocol_error(self, client):
        reply = client.request("RECORD REWIND")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ProtocolError"
        assert "REWIND" in reply["error"]["message"]

    def test_unknown_verb_message_mentions_record(self, client):
        reply = client.request("NOPE")
        assert reply["ok"] is False
        assert "RECORD" in reply["error"]["message"]


class TestShutdownStopsCapture:
    def test_server_shutdown_finalizes_archive(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        session = _session()
        with AsyncQueryServer(session, workers=0) as srv:
            client = Client(srv)
            client.request(f"RECORD START {path}")
            client.request("QUERY sg(ann, Y)")
            client.close()
            # No RECORD STOP: shutdown must finalize the archive.
        assert session.capture.active is False
        header, entries = load_archive(path)
        assert header["version"] == 1
        assert [e["verb"] for e in entries] == ["QUERY"]
