"""Flight-recorder commits when a client disconnects mid-reply.

A vanished peer takes an unusual exit through the server (EOF event ->
budget cancel -> ClientDisconnected -> finalize).  These
tests pin the observability contract on that path: the lifecycle ring
commits a ``status="disconnected"`` record, the ring stays usable for
follow-up traffic, the disconnect counter moves, and the JSON log
stream carries a ``cancel`` event joinable on ``request_id``.
"""

import json
import socket
import threading
import time

from repro.engine.database import Database
from repro.service import QuerySession

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


class StallingSession(QuerySession):
    """First QUERY blocks until released; later ones run normally."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self._stalled_once = False
        self._stall_lock = threading.Lock()

    def execute(self, query_source, max_depth=None, budget=None):
        with self._stall_lock:
            stall = not self._stalled_once
            self._stalled_once = True
        if stall:
            # Held until the test has seen the loop cancel this
            # request's budget; the evaluation below then aborts at
            # its first checkpoint.
            self.release.wait(timeout=10.0)
        return super().execute(query_source, max_depth, budget)


def _request(address, line):
    with socket.create_connection(address, timeout=10) as sock:
        file = sock.makefile("rw", encoding="utf-8")
        file.write(line + "\n")
        file.flush()
        return json.loads(file.readline())


def _wait_for(predicate, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    return None


def _vanish_mid_query(server, session, log_stream, line):
    """Send ``line`` (which stalls in evaluation), hang up without
    reading, and release the evaluation once the loop has cancelled it."""
    sock = socket.create_connection(server.address, timeout=10)
    sock.sendall(line)
    sock.close()
    try:
        assert _wait_for(lambda: '"cancel"' in log_stream.getvalue())
    finally:
        session.release.set()


def test_mid_reply_disconnect_commits_to_ring(serve, log_stream):
    db = Database()
    db.load_source(SOURCE)
    session = StallingSession(db)
    server = serve(session)
    disconnects_before = session.metrics.snapshot()["disconnects"]
    _vanish_mid_query(server, session, log_stream, b"QUERY sg(ann, Y)\n")
    committed = _wait_for(
        lambda: [
            r for r in session.reqlog()
            if r["status"] == "disconnected"
        ]
    )
    assert committed, (
        f"no disconnected record committed; ring={session.reqlog()}"
    )
    (record,) = committed
    assert record["verb"] == "QUERY"
    assert record["id"]

    # The counter moved.
    assert (
        session.metrics.snapshot()["disconnects"] > disconnects_before
    )

    # The ring is not corrupted: follow-up traffic serves and
    # commits normally alongside the disconnected record.
    reply = _request(server.address, "QUERY sg(ann, Y)")
    assert reply["ok"] is True
    ok_records = _wait_for(
        lambda: [
            r for r in session.reqlog()
            if r["status"] == "ok" and r["verb"] == "QUERY"
        ]
    )
    assert ok_records
    assert any(r["status"] == "disconnected" for r in session.reqlog())

    # The JSON log stream carries a cancel event that joins against
    # the ring record on request_id.
    events = [
        json.loads(line)
        for line in log_stream.getvalue().splitlines()
        if line.strip()
    ]
    cancels = [e for e in events if e["event"] == "cancel"]
    assert cancels, f"no cancel event logged; events={events}"
    assert any(
        e.get("reason") == "client disconnected"
        and e.get("request_id") == record["id"]
        for e in cancels
    ), f"cancel events do not correlate: {cancels} vs {record['id']}"


def test_disconnected_records_are_capturable_without_corruption(
    serve, log_stream, tmp_path
):
    """Capture stays coherent when requests die mid-flight around it."""
    from repro.observe import load_archive

    db = Database()
    db.load_source(SOURCE)
    session = StallingSession(db)
    session._stalled_once = True  # no stall for the control requests
    server = serve(session)
    path = str(tmp_path / "cap.jsonl")
    assert _request(server.address, f"RECORD START {path}")["ok"]

    # A request whose client vanishes mid-flight dies before the
    # capture tap; the archive must stay parseable around it.
    session._stalled_once = False
    _vanish_mid_query(server, session, log_stream, b"QUERY sg(bob, Y)\n")
    assert _wait_for(
        lambda: any(
            r["status"] == "disconnected" for r in session.reqlog()
        )
    )

    assert _request(server.address, "QUERY sg(ann, Y)")["ok"]
    stopped = _request(server.address, "RECORD STOP")
    assert stopped["ok"], stopped

    header, entries = load_archive(path)
    assert header["version"] == 1
    # The surviving request is always there; every line parsed.
    assert any(e["line"] == "QUERY sg(ann, Y)" for e in entries)
    for entry in entries:
        assert entry["digest"]["sha256"]
