"""One conformance suite over the protocol core, run in both evaluation modes.

``repro.service.protocol.ProtocolCore`` defines the line protocol once;
``AsyncQueryServer`` (a selector loop) moves the bytes and evaluates
heavy verbs in-process or on forked workers.  This suite drives one
scripted session through each mode over real sockets and requires the
reply digests (``observe.capture.digest_reply``: bit-exact for
successful QUERY/PLAN/FACT/RETRACT, structural otherwise) to equal
``threaded_transcript.golden.json`` — what the deleted thread-per-
connection server answered to the same two sessions at its last
commit (fd1796e), kept as data so the two loop modes are held to
an independent reference rather than only to each other.  No digest in
it depends on the hash seed (regenerated under four) or, as far as the
one interpreter available (3.11) can show, on the Python version, so
every line is pinned exactly.
"""

import ast
import functools
import importlib
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.engine.database import Database
from repro.observe import digest_reply
from repro.resilience import Budget
from repro.service import AsyncQueryServer, QuerySession
from repro.service.protocol import MAX_LINE_BYTES, ProtocolCore
from repro.service.workers import fork_available
from repro.workloads import (
    SCSG,
    SG,
    TRAVEL,
    FamilyConfig,
    FlightConfig,
    family_database,
    flight_database,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("threaded_transcript.golden.json").read_text()
)

FRONT_ENDS = {
    "loop-inprocess": functools.partial(AsyncQueryServer, workers=0),
    "loop-forked": functools.partial(AsyncQueryServer, workers=1),
}

front_ends = pytest.mark.parametrize(
    "front_end",
    [
        "loop-inprocess",
        pytest.param(
            "loop-forked",
            marks=pytest.mark.skipif(
                not fork_available(), reason="needs the fork start method"
            ),
        ),
    ],
)

TRAVEL_QUERY = "travel(L, city0, DT, city3, AT, F)"


def paper_database() -> Database:
    """The paper's three recursions over one small population."""
    database = family_database(
        FamilyConfig(levels=4, width=8, seed=7), program=SG + SCSG + TRAVEL
    )
    flights = flight_database(FlightConfig(airports=6, extra_flights=0, seed=3))
    for row in flights.relation("flight", 6).rows():
        database.add_fact("flight", row)
    return database


class ProbeSession(QuerySession):
    """A session whose breaker existence probe can be made to fail."""

    probe_fails = False

    def exists(self, query_source, budget=None):
        if self.probe_fails:
            raise RuntimeError("probe over budget")
        return super().exists(query_source, budget=budget)


class Client:
    def __init__(self, server):
        self.sock = socket.create_connection(server.address, timeout=20)
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


def http_get(server, path):
    with socket.create_connection(server.address, timeout=20) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.decode("ascii"), body


class Transcript:
    """What a scripted session saw, reduced to comparable digests."""

    def __init__(self, front_end):
        self.front_end = front_end
        self.entries = []
        self.verbs = set()

    def reply(self, line, reply, expect=True, label=None):
        """Record one reply; ``expect`` is True or an error type."""
        where = f"[{self.front_end}] {line[:60]!r} -> {str(reply)[:300]}"
        if expect is True:
            assert reply["ok"] is True, where
        else:
            assert reply["ok"] is False, where
            assert reply["error"]["type"] == expect, where
        verb = line.split(" ", 1)[0].upper()
        self.verbs.add(reply["verb"])
        entry = {"line": label or line[:60], "digest": digest_reply(verb, reply)}
        if expect == "ProtocolError":
            # Structural digests ignore messages; client-facing usage
            # errors must agree word for word too.
            entry["message"] = reply["error"]["message"]
        self.entries.append(entry)
        return reply

    def exact(self, label, value):
        self.entries.append({"line": label, "exact": value})


# ----------------------------------------------------------------------
# The scripted sessions
# ----------------------------------------------------------------------
def protocol_session(front_end, tmp_path) -> Transcript:
    """All 15 verbs on sg/scsg/travel, every usage error, HTTP."""
    seen = Transcript(front_end)
    session = QuerySession(paper_database())
    archive = str(tmp_path / f"{front_end}.jsonl")
    with FRONT_ENDS[front_end](session) as server:
        client = Client(server)
        other = Client(server)
        try:
            def ask(line, expect=True, via=client, label=None):
                return seen.reply(line, via.request(line), expect, label)

            ask("TRACE", "NoTrace")
            assert ask("QUERY sg(p0_0, Y)")["count"] == 2
            ask("QUERY scsg(p0_0, Y)")
            assert ask(f"QUERY {TRAVEL_QUERY}")["count"] == 1
            assert ask("query ?- sg(p0_0, Y).")["query"] == "sg(p0_0, Y)"
            ask("PLAN sg(p0_0, Y)")
            ask("PLAN scsg(p0_0, Y)")
            ask(f"PLAN {TRAVEL_QUERY}")

            assert ask("FACT sibling(p0_0, p0_2)")["added"] is True
            assert ask("FACT sibling(p0_0, p0_2)")["added"] is False
            assert ask("QUERY sg(p0_0, Y)")["count"] == 3
            assert ask("RETRACT sibling(p0_0, p0_2)")["removed"] is True
            assert ask("RETRACT sibling(p0_0, p0_2)")["removed"] is False
            assert ask("QUERY sg(p0_0, Y)")["count"] == 2
            ask("RETRACT sg(X, Y) :- sibling(X, Y)", "ProtocolError")
            assert ask("FACT flies(X) :- flight(X, A, B, C, D, E)")[
                "kind"
            ] == "rule"

            explained = ask("EXPLAIN sg(p0_0, Y)")["trace"]
            assert explained["strategy"] == "counting"
            assert explained["expansion"]
            assert ask("EXPLAIN scsg(p0_0, Y)")["trace"]["rounds"]
            assert ask("TRACE")["trace"]["query"] == "scsg(p0_0, Y)"
            assert ask(f"TRACE {TRAVEL_QUERY}")["verb"] == "TRACE"
            assert ask("PROFILE sg(p0_0, Y)")["profile"]["rows"]

            stats = ask("STATS")["stats"]
            assert stats["queries"] >= 6 and "plan_cache" in stats
            assert ask("HEALTH")["health"]["status"] == "ok"
            assert "repro_queries_total" in ask("METRICS")["body"]
            assert ask("SLOWLOG")["entries"] == []
            assert ask("SLOWLOG CLEAR")["cleared"] == 0
            records = ask("REQLOG 2")["records"]
            assert len(records) == 2
            assert {r["origin"] for r in records} == {server.ORIGIN}
            ask("REQLOG xyz", "ProtocolError")
            assert ask("REQLOG CLEAR")["cleared"] > 0

            assert ask("RECORD")["recording"] is False
            ask("RECORD STOP", "CaptureError")
            ask("RECORD START", "ProtocolError")
            ask("RECORD BOGUS", "ProtocolError")
            started = ask(f"RECORD START {archive}", label="RECORD START <path>")
            assert started["recording"] is True
            ask("QUERY sg(p0_1, Y)")
            assert ask("RECORD STATUS")["recording"] is True
            assert ask("RECORD STOP")["requests"] == 1

            # SUBSCRIBE: a second connection mutates, this one is pushed.
            sub = ask("SUBSCRIBE sibling/2")
            ask("FACT sibling(p0_0, p0_3)", via=other)
            delta = client.read()
            assert delta["verb"] == "DELTA"
            assert delta["subscription"] == sub["subscription"]
            assert delta["adds"] == [["p0_0", "p0_3"]] and delta["dels"] == []
            seen.exact("DELTA add", delta)
            ask("RETRACT sibling(p0_0, p0_3)", via=other)
            delta = client.read()
            assert delta["dels"] == [["p0_0", "p0_3"]] and delta["adds"] == []
            seen.exact("DELTA del", delta)
            ask("SUBSCRIBE sg(X, Y)", "Unsubscribable")  # derived, no IVM
            ask("SUBSCRIBE sg/x", "ProtocolError")
            ask("UNSUBSCRIBE abc", "ProtocolError")
            assert ask("UNSUBSCRIBE 99")["removed"] == []
            assert ask("UNSUBSCRIBE")["removed"] == [sub["subscription"]]
            assert ask("UNSUBSCRIBE")["removed"] == []

            # The empty-argument error of every verb that needs one.
            for verb in (
                "QUERY", "PLAN", "FACT", "RETRACT", "SUBSCRIBE", "EXPLAIN",
                "PROFILE",
            ):
                ask(verb, "ProtocolError")
            unknown = ask("FROB x", "ProtocolError")
            assert unknown["verb"] == "FROB"
            ask("QUERY sg(p0_0,", "ParseError")
            ask("QUERY nosuch(X)", "PlanningError")
            ask("PLAN nosuch(X)", "PlanningError")
            ask("EXPLAIN nosuch(X)", "PlanningError")
            ask("FACT foo(", "ParseError")

            # One oversized line, exactly one envelope, still in sync.
            oversized = ask("QUERY " + "x" * (MAX_LINE_BYTES + 4096),
                            "ProtocolError")
            assert oversized["verb"] == "?"
            assert str(MAX_LINE_BYTES) in oversized["error"]["message"]
            assert ask("QUERY sg(p0_0, Y)")["count"] == 2
        finally:
            client.close()
            other.close()

        for path, status, content_type in (
            ("/metrics", "200 OK", "text/plain; version=0.0.4"),
            ("/healthz", "200 OK", "application/json"),
            ("/slowlog", "200 OK", "application/json"),
            ("/reqlog", "200 OK", "application/json"),
            ("/nope?x=1", "404 Not Found", "text/plain"),
        ):
            head, body = http_get(server, path)
            lines = head.split("\r\n")
            assert lines[0] == f"HTTP/1.0 {status}", (front_end, path, head)
            assert f"Content-Type: {content_type}" in head
            assert f"Content-Length: {len(body)}" in lines
            if content_type == "application/json":
                json.loads(body)
            seen.exact(f"GET {path}", lines[:2] + lines[3:])
        seen.exact("GET /nope body", body.decode())
    return seen


def resilience_session(front_end, tmp_path) -> Transcript:
    """A budget blowout, the three breaker rungs, and Overloaded."""
    seen = Transcript(front_end)
    session = ProbeSession(paper_database())
    server = FRONT_ENDS[front_end](
        session, max_pending=1, breaker_threshold=1, breaker_cooldown=60.0
    )
    with server:
        client = Client(server)
        try:
            def ask(line, expect=True):
                return seen.reply(line, client.request(line), expect)

            # Warm the serving session's result cache, then tighten the
            # budget so the same plan shape blows: rung one answers the
            # cached query from the stale rows.
            warm = session.execute("scsg(p0_0, Y)")
            server.budget = Budget(max_tuples=10)
            blown = ask("QUERY scsg(p0_1, Y)", "BudgetExceeded")
            assert blown["budget"]["reason"] == "tuples"
            assert blown["retry_after"] == server.retry_after
            cached = ask("QUERY scsg(p0_0, Y)")
            assert cached["degraded"] == "cached"
            assert cached["count"] == len(warm.rows)

            # Nothing cached for this shape: rung two probes existence.
            ask("QUERY sg(X, Y)", "BudgetExceeded")
            probed = ask("QUERY sg(X, Y)")
            assert probed["degraded"] == "existence"
            assert probed["exists"] is True and probed["answers"] == []

            # Even the probe fails: rung three refuses with a retry hint.
            session.probe_fails = True
            refused = ask("QUERY sg(X, Y)", "CircuitOpen")
            assert 0 < refused["retry_after"] <= 60.0

            # Other shapes are untouched by the open circuits.
            healthy = ask("QUERY sg(p0_1, Y)")
            assert "degraded" not in healthy

            breaker = ask("STATS")["stats"]["breaker"]
            assert breaker["open"] == 2 and breaker["trips"] == 2
            assert session.metrics.budget_exceeded == 2

            # Saturate admission: heavy verbs are shed, the rest served.
            assert server.admission.try_acquire("QUERY")
            try:
                shed = ask("QUERY sg(p0_1, Y)", "Overloaded")
                assert shed["retry_after"] == server.retry_after
                ask("PLAN sg(p0_1, Y)", "Overloaded")
                ask("HEALTH")
                ask("FACT sibling(p0_0, p0_2)")
            finally:
                server.admission.release("QUERY")
            ask("QUERY sg(p0_1, Y)")
            assert session.metrics.rejected_by_verb == {"QUERY": 1, "PLAN": 1}
        finally:
            client.close()
    return seen


SESSIONS = {"protocol": protocol_session, "resilience": resilience_session}


@pytest.fixture(scope="module")
def transcript(tmp_path_factory):
    """``transcript(script, front_end)``, each session run once."""
    return functools.lru_cache(maxsize=None)(
        lambda script, front_end: SESSIONS[script](
            front_end, tmp_path_factory.mktemp(front_end)
        )
    )


@front_ends
@pytest.mark.parametrize("script", sorted(SESSIONS))
def test_scripted_session_digests_match_on_every_front_end(
    script, front_end, transcript
):
    seen = transcript(script, front_end).entries
    expected = GOLDEN[script]
    assert [e["line"] for e in seen] == [e["line"] for e in expected]
    for got, want in zip(seen, expected):
        assert got == want, (
            f"{front_end} diverges from the threaded transcript "
            f"on {got['line']!r}"
        )


def test_protocol_session_exercises_every_verb(transcript):
    assert transcript("protocol", "loop-inprocess").verbs - {
        "?", "FROB"
    } == set(ProtocolCore.VERBS)


# ----------------------------------------------------------------------
# Cases test_server.py and test_eventloop.py used to hold twice
# ----------------------------------------------------------------------
SMALL = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""


@pytest.fixture
def server(front_end):
    database = Database()
    database.load_source(SMALL)
    with FRONT_ENDS[front_end](QuerySession(database)) as srv:
        yield srv


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


@front_ends
class TestSharedCases:
    def test_query(self, client):
        reply = client.request("QUERY sg(ann, Y)")
        assert reply["ok"] and reply["verb"] == "QUERY"
        assert reply["answers"] == [["ann", "bob"]]
        assert reply["count"] == 1
        assert reply["strategy"]
        assert not reply["result_cached"]

    def test_repeat_query_is_cached(self, client):
        client.request("QUERY sg(ann, Y)")
        reply = client.request("QUERY sg(ann, Y)")
        assert reply["result_cached"] and reply["plan_cached"]

    def test_fact_then_query(self, client):
        before = client.request("QUERY sg(ann, Y)")
        # eve becomes another parent of dan, so sg(ann, eve) now holds.
        reply = client.request("FACT parent(eve, dan).")
        assert reply["ok"] and reply["kind"] == "fact" and reply["added"]
        after = client.request("QUERY sg(ann, Y)")
        assert not after["result_cached"]
        assert after["count"] == before["count"] + 1
        assert ["ann", "eve"] in after["answers"]

    def test_unknown_verb(self, client):
        reply = client.request("EXPLODE now")
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError"

    def test_parse_error_keeps_connection(self, client):
        reply = client.request("QUERY sg(ann,")
        assert not reply["ok"]
        assert "message" in reply["error"]
        assert client.request("QUERY sg(ann, Y)")["ok"]
        assert client.request("STATS")["ok"]

    def test_oversized_line_single_envelope(self, client):
        # One request line must yield exactly one reply, even when the
        # line exceeds the 64 KiB cap and arrives in chunks — the tail
        # must not be parsed as a second request.
        reply = client.request("QUERY " + "x" * (80 * 1024))
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError"
        assert "over" in reply["error"]["message"]
        assert "65536" in reply["error"]["message"]
        follow_up = client.request("QUERY sg(ann, Y)")
        assert follow_up["ok"] and follow_up["count"] == 1
        assert client.request("STATS")["ok"]

    def test_http_get_metrics_scrape(self, server, client):
        client.request("QUERY sg(ann, Y)")
        head, body = http_get(server, "/metrics")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain; version=0.0.4" in head
        assert b"repro_queries_total 1" in body
        assert f"Content-Length: {len(body)}" in head.split("\r\n")


# ----------------------------------------------------------------------
# Drift the core removed
# ----------------------------------------------------------------------
def _wait_for(predicate, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    return predicate()


@front_ends
def test_client_typos_are_usage_errors_not_server_errors(server, client):
    """A malformed id/arity used to leak ``int()``'s ValueError as the
    envelope type and bump the server's ``errors`` counter."""
    for line, needle in (
        ("UNSUBSCRIBE abc", "integer subscription id"),
        ("SUBSCRIBE sg/x", "integer arity"),
    ):
        reply = client.request(line)
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError", reply
        assert needle in reply["error"]["message"]
    assert server.session.metrics.errors == 0


@front_ends
def test_overflow_drop_emits_push_drop_event(front_end, log_stream):
    database = Database()
    database.load_source(SMALL)
    session = QuerySession(database)
    with FRONT_ENDS[front_end](session, push_backlog=64) as srv:
        client = Client(srv)
        try:
            sub = client.request("SUBSCRIBE parent/2")
            assert sub["ok"]
            # One DELTA line already exceeds the 64-byte backlog.
            session.add_fact("parent", ("x" * 100, "y"))
            assert _wait_for(lambda: session.metrics.push_dropped == 1)
            assert srv.subscriptions.count() == 0
            assert client.file.readline() == ""  # hung up on
        finally:
            client.close()
    events = [
        json.loads(line)
        for line in log_stream.getvalue().splitlines()
        if line.strip()
    ]
    drops = [e for e in events if e["event"] == "push_drop"]
    assert len(drops) == 1, events
    assert drops[0]["subscription"] == sub["subscription"]
    assert drops[0]["predicate"] == "parent/2"


# ----------------------------------------------------------------------
# One definition: the verb list and the handlers
# ----------------------------------------------------------------------
EXPECTED_VERBS = [
    "QUERY", "PLAN", "FACT", "RETRACT", "SUBSCRIBE", "UNSUBSCRIBE", "STATS",
    "EXPLAIN", "TRACE", "METRICS", "PROFILE", "SLOWLOG", "REQLOG", "HEALTH",
    "RECORD",
]


def test_verb_table_is_the_documented_fifteen():
    assert list(ProtocolCore.VERBS) == EXPECTED_VERBS
    for handler in ProtocolCore.VERBS.values():
        assert callable(getattr(ProtocolCore, handler))


def test_unknown_verb_message_lists_exactly_the_verb_table():
    (entry,) = [e for e in GOLDEN["protocol"] if e["line"] == "FROB x"]
    assert entry["message"] == (
        "unknown verb 'FROB'; expected "
        + ", ".join(EXPECTED_VERBS[:-1]) + " or " + EXPECTED_VERBS[-1]
    )


def test_serve_banner_lists_exactly_the_verb_table(tmp_path):
    program = tmp_path / "program.pl"
    program.write_text(SMALL)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", str(program), "--serve",
         "--port", "0", "--workers", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    try:
        banner = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    # Scripts and the benchmark ledger parse the port from field 4 of
    # this first stdout line; it must stay byte-identical.
    port = banner.split()[3].rsplit(":", 1)[1]
    assert banner == (
        f"repro serving on 127.0.0.1:{port} "
        f"(verbs: {', '.join(EXPECTED_VERBS)}; one JSON reply per line)\n"
    )


def test_docs_verb_table_lists_exactly_the_verb_table():
    text = (ROOT / "docs" / "service.md").read_text()
    table = text[text.index("| request | reply payload |"):]
    documented = set()
    for row in table.splitlines()[2:]:
        if not row.startswith("|"):
            break
        request_cell = row.split("|")[1]
        for example in re.findall(r"`([^`]+)`", request_cell):
            documented.add(example.split()[0])
    assert documented == set(ProtocolCore.VERBS)
    # docs/api.md lists the verbs once more, on the server's row.
    (row,) = [
        line
        for line in (ROOT / "docs" / "api.md").read_text().splitlines()
        if line.startswith("| `AsyncQueryServer(")
    ]
    assert set(re.findall(r"`([A-Z]+)`", row.split("|")[2])) == set(
        ProtocolCore.VERBS
    )


def test_protocol_is_defined_in_exactly_one_module():
    """The AST guard: no verb handler, ``handle_line``,
    ``_degraded_reply`` or ``_strip`` may be defined twice under
    ``src/repro/service/`` — a second copy is how the front ends
    drifted apart."""
    guarded = re.compile(r"^(_do_\w+|handle_line|_degraded_reply|_strip)$")
    defined = {}
    for path in sorted((ROOT / "src" / "repro" / "service").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and guarded.match(node.name):
                defined.setdefault(node.name, set()).add(path.name)
    assert {"handle_line", "_degraded_reply", "_strip"} <= set(defined)
    assert {f"_do_{verb.lower()}" for verb in ProtocolCore.VERBS} <= set(defined)
    duplicated = {
        name: sorted(modules)
        for name, modules in defined.items()
        if len(modules) > 1
    }
    assert not duplicated, duplicated


def test_the_event_loop_is_the_only_transport():
    """The other half of the AST guard: exactly one class under
    ``src/repro/service/`` subclasses ``ProtocolCore``, nothing under
    ``src/`` imports ``socketserver``, and the threaded module is gone
    rather than aliased."""
    transports = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None))
                == "ProtocolCore"
                for base in node.bases
            ):
                transports.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
                assert "socketserver" not in imported, path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "socketserver", path
    assert transports == ["eventloop.py:AsyncQueryServer"]
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service.server")
