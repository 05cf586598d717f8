"""Server-side resource governance: budgets, shedding, breaker,
cancellation on timeout and client disconnect."""

import json
import socket
import threading
import time

import pytest

from repro.engine.database import Database
from repro.resilience import Budget
from repro.service import QuerySession
from repro.workloads import FamilyConfig, family_database

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""

#: One country: the scsg weak linkage is the full cross product.
BLOWUP = FamilyConfig(
    levels=5, width=16, countries=1, parents_per_child=2, seed=0
)


def simple_session():
    db = Database()
    db.load_source(SOURCE)
    return QuerySession(db)


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


class TestBudgetEnvelope:
    def test_blowout_returns_structured_envelope(self, serve):
        session = QuerySession(family_database(BLOWUP))
        srv = serve(
            session, budget=Budget(max_tuples=100),
            breaker_threshold=None,
        )
        reply = srv.handle_line("QUERY scsg(X, Y)")
        assert not reply["ok"]
        assert reply["error"]["type"] == "BudgetExceeded"
        assert reply["budget"]["reason"] == "tuples"
        assert reply["budget"]["counters"]["derived_tuples"] == 101
        assert reply["retry_after"] > 0
        assert session.metrics.budget_exceeded == 1

    def test_session_survives_blowout(self, serve):
        session = QuerySession(family_database(BLOWUP))
        srv = serve(
            session, budget=Budget(max_tuples=100),
            breaker_threshold=None,
        )
        srv.handle_line("QUERY scsg(X, Y)")
        assert srv.handle_line("STATS")["ok"]
        assert srv.handle_line("HEALTH")["ok"]


class TestAdmissionControl:
    def test_overloaded_envelope_when_saturated(self, serve):
        release = threading.Event()
        entered = threading.Event()

        class SlowSession(QuerySession):
            def execute(self, query_source, max_depth=None, budget=None):
                entered.set()
                release.wait(timeout=10)
                return super().execute(query_source, max_depth, budget)

        db = Database()
        db.load_source(SOURCE)
        session = SlowSession(db)
        srv = serve(session, max_pending=1)
        stuck = threading.Thread(
            target=srv.handle_line, args=("QUERY sg(ann, Y)",)
        )
        stuck.start()
        try:
            assert entered.wait(timeout=5)
            reply = srv.handle_line("QUERY sg(bob, Y)")
            assert not reply["ok"]
            assert reply["error"]["type"] == "Overloaded"
            assert reply["retry_after"] > 0
            assert session.metrics.rejected == 1
            assert session.metrics.rejected_by_verb == {"QUERY": 1}
            # Observability verbs are never shed.
            assert srv.handle_line("HEALTH")["ok"]
            assert srv.handle_line("STATS")["ok"]
        finally:
            release.set()
            stuck.join(timeout=10)

    def test_admission_disabled_with_none(self, serve):
        srv = serve(simple_session(), max_pending=None)
        assert srv.admission is None
        assert srv.handle_line("QUERY sg(ann, Y)")["ok"]


class TestCircuitBreaker:
    def _blowup_server(self, serve):
        session = QuerySession(family_database(BLOWUP))
        return serve(
            session, budget=Budget(max_tuples=100),
            breaker_threshold=1, breaker_cooldown=60.0,
        )

    def test_open_circuit_serves_degraded_answer(self, serve):
        srv = self._blowup_server(serve)
        first = srv.handle_line("QUERY scsg(X, Y)")
        assert first["error"]["type"] == "BudgetExceeded"
        # The breaker is now open for this shape: no full
        # evaluation happens; the reply is degraded (existence
        # probe succeeds here — sibling pairs are witnesses) or a
        # CircuitOpen envelope, never another full blowout.
        second = srv.handle_line("QUERY scsg(X, Y)")
        if second["ok"]:
            assert second["degraded"] == "existence"
            assert second["exists"] is True
            assert second["answers"] == []
        else:
            assert second["error"]["type"] == "CircuitOpen"
            assert second["retry_after"] > 0

    def test_open_circuit_serves_stale_cached_rows(self, serve):
        session = QuerySession(family_database(BLOWUP))
        srv = serve(session, breaker_threshold=1, breaker_cooldown=60.0)
        # Warm the result cache without any budget.
        warm = srv.handle_line("QUERY scsg(p0_0, Y)")
        assert warm["ok"]
        # Now make the same shape blow up.
        srv.budget = Budget(max_tuples=10)
        blown = srv.handle_line("QUERY scsg(p0_1, Y)")
        assert blown["error"]["type"] == "BudgetExceeded"
        degraded = srv.handle_line("QUERY scsg(p0_0, Y)")
        assert degraded["ok"]
        assert degraded["degraded"] == "cached"
        assert degraded["answers"] == warm["answers"]

    def test_healthy_shapes_unaffected(self, serve):
        srv = self._blowup_server(serve)
        srv.handle_line("QUERY scsg(X, Y)")  # trips the breaker
        # A different adornment is a different plan key: the bound
        # query (~161 derived tuples) fits a modest budget and must
        # be served fully, not degraded.
        srv.budget = Budget(max_tuples=200)
        reply = srv.handle_line("QUERY scsg(p0_0, Y)")
        assert reply["ok"] and "degraded" not in reply
        assert reply["answers"]

    def test_breaker_state_in_stats_and_metrics(self, serve):
        srv = self._blowup_server(serve)
        srv.handle_line("QUERY scsg(X, Y)")
        stats = srv.handle_line("STATS")["stats"]
        assert stats["breaker"]["open"] == 1
        assert stats["breaker"]["trips"] == 1
        body = srv.handle_line("METRICS")["body"]
        assert 'repro_breaker_keys{state="open"} 1' in body
        assert "repro_breaker_trips_total 1" in body
        assert "repro_budget_exceeded_total 1" in body


class TestTimeoutCancellation:
    def test_timeout_cancels_the_worker(self, serve):
        # Without cancellation the abandoned worker would grind through
        # the whole cross product while holding the session lock; with
        # it, the worker aborts at its next cooperative checkpoint —
        # observable as a recorded budget_exceeded from the worker side.
        session = QuerySession(family_database(
            FamilyConfig(levels=6, width=40, countries=1,
                         parents_per_child=2, seed=0)
        ))
        srv = serve(session, timeout=0.1, breaker_threshold=None)
        reply = srv.handle_line("QUERY scsg(X, Y)")
        assert not reply["ok"]
        assert reply["error"]["type"] == "Timeout"
        # The abandoned worker must unwind via BudgetExceeded
        # (cancelled or deadline) instead of running to fixpoint.
        deadline = time.time() + 5
        while session.metrics.budget_exceeded == 0 and time.time() < deadline:
            time.sleep(0.02)
        assert session.metrics.budget_exceeded >= 1
        # And the session lock came back: later queries serve fine
        # (unbudgeted — this one is about lock recovery, not speed).
        srv.timeout = None
        assert srv.handle_line("QUERY parent(p0_0, Y)")["ok"]


class TestClientDisconnect:
    def test_disconnect_cancels_and_records(self, serve):
        release = threading.Event()

        class SlowSession(QuerySession):
            def execute(self, query_source, max_depth=None, budget=None):
                release.wait(timeout=10)
                return super().execute(query_source, max_depth, budget)

        db = Database()
        db.load_source(SOURCE)
        session = SlowSession(db)
        srv = serve(session)
        sock = socket.create_connection(srv.address, timeout=10)
        sock.sendall(b"QUERY sg(ann, Y)\n")
        time.sleep(0.2)  # let the evaluation start waiting
        sock.close()
        time.sleep(0.2)  # let the loop see the EOF and cancel the budget
        release.set()
        deadline = time.time() + 5
        while session.metrics.disconnects == 0 and time.time() < deadline:
            time.sleep(0.05)
        assert session.metrics.disconnects == 1
        # The server must stay serviceable throughout.
        assert srv.handle_line("HEALTH")["ok"]


class TestIdleTimeout:
    def test_silent_connection_is_closed(self, serve):
        srv = serve(simple_session(), idle_timeout=0.2)
        sock = socket.create_connection(srv.address, timeout=10)
        reader = sock.makefile("rb")
        # Say nothing; the server hangs up after the idle timeout.
        assert reader.readline() == b""
        sock.close()
        # A talkative client is unaffected.
        client = Client(srv)
        try:
            assert client.request("QUERY sg(ann, Y)")["ok"]
        finally:
            client.close()


class TestBoundedFrames:
    def test_oversized_line_gets_error_envelope(self, serve):
        srv = serve(simple_session())
        sock = socket.create_connection(srv.address, timeout=10)
        sock.sendall(b"QUERY " + b"x" * (80 * 1024) + b"\n")
        reply = json.loads(sock.makefile("rb").readline())
        assert not reply["ok"]
        assert reply["error"]["type"] == "ProtocolError"
        sock.close()

    def test_drain_is_bounded(self, serve):
        from repro.service.protocol import MAX_DRAIN_BYTES

        srv = serve(simple_session())
        sock = socket.create_connection(srv.address, timeout=10)
        # Stream well past the drain ceiling in one frame; the
        # server hangs up instead of reading it all (an envelope is
        # attempted first, but closing with unread data may RST it
        # away — the contract is bounded reads + survival).
        try:
            sock.sendall(
                b"QUERY " + b"y" * (MAX_DRAIN_BYTES + 128 * 1024) + b"\n"
            )
            reader = sock.makefile("rb")
            first = reader.readline()
            if first:
                reply = json.loads(first)
                assert reply["error"]["type"] == "ProtocolError"
            assert reader.readline() == b""  # connection closed
        except ConnectionError:
            pass  # RST on teardown is acceptable; survival is not
        finally:
            sock.close()
        # The server survives for well-behaved clients.
        client = Client(srv)
        try:
            assert client.request("QUERY sg(ann, Y)")["ok"]
        finally:
            client.close()
