"""Fault-injection verification of graceful degradation.

Three layers of seeded chaos — relation accesses inside the join
pipeline, socket-level client faults, and thread-pool overload — with
one contract: the process never wedges, never emits a malformed reply,
and the observability surface stays scrapeable throughout.  The
schedules are deterministic (seeded), so a failure here replays.
"""

import json
import socket
import threading
import time

from repro.core.planner import Planner
from repro.engine.database import Database
from repro.resilience import Budget, ChaosSchedule
from repro.resilience.chaos import ChaosClient, ChaosError, ChaosRelation, chaos_relations
from repro.service import QuerySession
from repro.workloads import FamilyConfig, family_database

SMALL = FamilyConfig(levels=3, width=4, countries=2, parents_per_child=2, seed=0)

QUERIES = ["scsg(p0_0, Y)", "parent(p0_0, Y)", "scsg(X, Y)"]

SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol). parent(bob, dan). sibling(carol, dan).
"""

#: Exceptions an injected fault may legitimately surface as.  Anything
#: else escaping an evaluation under chaos is a robustness bug.
INJECTED = (ChaosError, ConnectionResetError)


def _baseline(database, source):
    planner = Planner(database)
    relation, _ = planner.execute(planner.plan(source))
    return relation.rows()


def _run_relation_chaos(database, schedule, rounds):
    """Evaluate the query mix under chaos; return per-call outcomes."""
    outcomes = []
    with chaos_relations(database, schedule):
        for index in range(rounds):
            source = QUERIES[index % len(QUERIES)]
            try:
                planner = Planner(database)
                relation, _ = planner.execute(planner.plan(source))
                outcomes.append(("ok", source, relation.rows()))
            except INJECTED as exc:
                outcomes.append(("fault", source, type(exc).__name__))
    return outcomes


class TestRelationChaos:
    #: Delays are survivable (a 0.5ms sleep mid-join), so they run hot;
    #: errors and drops abort the query, so they stay rare enough that
    #: a healthy fraction of queries still completes.
    RATES = {"delay": 0.15, "error": 0.012, "drop": 0.006}

    def test_faults_surface_cleanly_and_state_recovers(self):
        database = family_database(SMALL)
        before = {source: _baseline(database, source) for source in QUERIES}

        schedule = ChaosSchedule(seed=7, rates=self.RATES)
        outcomes = _run_relation_chaos(database, schedule, rounds=40)

        snap = schedule.snapshot()
        assert snap["injected"] >= 30, snap
        # Both hard fault kinds actually fired and unwound cleanly.
        kinds = {kind for status, _, kind in outcomes if status == "fault"}
        assert "ChaosError" in kinds
        assert any(status == "ok" for status, _, _ in outcomes)

        # The context manager restored the real relations...
        assert not any(
            isinstance(rel, ChaosRelation) for rel in database.relations.values()
        )
        # ...and no amount of mid-join unwinding corrupted them: the
        # same queries produce the same rows as before the storm.
        for source in QUERIES:
            assert _baseline(database, source) == before[source], source

    def test_chaos_is_deterministic(self):
        first = _run_relation_chaos(
            family_database(SMALL), ChaosSchedule(seed=11, rates=self.RATES), 12
        )
        second = _run_relation_chaos(
            family_database(SMALL), ChaosSchedule(seed=11, rates=self.RATES), 12
        )
        assert first == second
        # A different seed lands faults elsewhere.
        third = _run_relation_chaos(
            family_database(SMALL), ChaosSchedule(seed=12, rates=self.RATES), 12
        )
        assert [o[:2] for o in third] != [o[:2] for o in first] or third != first


class TestSocketChaos:
    LINES = [
        "QUERY sg(ann, Y)",
        "STATS",
        "QUERY sg(bob, Y)",
        "HEALTH",
        "QUERY sg(nobody, Y)",
    ]

    def _scrape(self, address, path):
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
            return sock.makefile("rb").read()

    def test_storm_of_faulty_clients(self, serve):
        db = Database()
        db.load_source(SOURCE)
        session = QuerySession(db)
        relation_schedule = ChaosSchedule(
            seed=3, rates={"error": 0.002, "delay": 0.002}
        )
        socket_schedule = ChaosSchedule(
            seed=5, rates={"error": 0.12, "delay": 0.08, "drop": 0.10}
        )
        srv = serve(session, budget=Budget(max_tuples=10_000), timeout=5.0)
        client = ChaosClient(*srv.address, schedule=socket_schedule)
        with chaos_relations(db, relation_schedule):
            for wave in range(4):
                for line in self.LINES * 3:
                    outcome, reply = client.request(line)
                    if outcome == "drop":
                        assert reply is None
                        continue
                    # Garbage, oversized and clean frames alike must
                    # come back as one well-formed JSON envelope.
                    assert reply, (outcome, line)
                    envelope = json.loads(reply)
                    assert isinstance(envelope, dict)
                    assert "ok" in envelope
                    if not envelope["ok"]:
                        assert envelope["error"]["type"]
                # The observability surface never degrades.
                health = self._scrape(srv.address, "/healthz")
                assert health.startswith(b"HTTP/1.0 200"), wave
                metrics = self._scrape(srv.address, "/metrics")
                assert metrics.startswith(b"HTTP/1.0 200"), wave
                assert b"repro_queries_total" in metrics

        # After the storm: a clean client gets clean answers.
        clean = srv.handle_line("QUERY sg(ann, Y)")
        assert clean["ok"] and clean["answers"]

        total = (
            socket_schedule.snapshot()["injected"]
            + relation_schedule.snapshot()["injected"]
        )
        assert total >= 15, (socket_schedule.snapshot(), relation_schedule.snapshot())
        # Every fault kind exercised at the socket layer.
        assert set(socket_schedule.snapshot()["by_kind"]) == {
            "error", "delay", "drop"
        }


class TestOverloadChaos:
    def test_saturation_sheds_instead_of_wedging(self, serve):
        release = threading.Event()

        class SlowSession(QuerySession):
            def execute(self, query_source, max_depth=None, budget=None):
                time.sleep(0.03)
                return super().execute(query_source, max_depth, budget)

        db = Database()
        db.load_source(SOURCE)
        session = SlowSession(db)
        replies = []
        replies_lock = threading.Lock()

        def hammer(srv, count):
            for _ in range(count):
                reply = srv.handle_line("QUERY sg(ann, Y)")
                with replies_lock:
                    replies.append(reply)

        srv = serve(session, max_pending=2, dispatch_threads=2)
        threads = [
            threading.Thread(target=hammer, args=(srv, 10))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        release.set()

        assert len(replies) == 80
        shed = [r for r in replies if not r["ok"]]
        served = [r for r in replies if r["ok"]]
        assert served, "saturation must not starve everyone"
        assert shed, "8 hammers against max_pending=2 must shed"
        assert all(r["error"]["type"] == "Overloaded" for r in shed)
        assert all(r["retry_after"] > 0 for r in shed)
        assert session.metrics.rejected == len(shed)
        # Shedding is visible to operators, and cheap verbs still work.
        assert srv.handle_line("HEALTH")["ok"]
        body = srv.handle_line("METRICS")["body"]
        assert "repro_rejected_total" in body


class TestFaultBudgetFloor:
    def test_at_least_one_hundred_faults_injected_overall(self, serve):
        """The acceptance floor: the suite's schedules, replayed here
        end to end, inject >= 100 faults across relations and sockets."""
        relation_schedule = ChaosSchedule(
            seed=7, rates=TestRelationChaos.RATES
        )
        _run_relation_chaos(family_database(SMALL), relation_schedule, 40)

        db = Database()
        db.load_source(SOURCE)
        socket_schedule = ChaosSchedule(
            seed=5, rates={"error": 0.12, "delay": 0.08, "drop": 0.10}
        )
        srv = serve(QuerySession(db))
        client = ChaosClient(*srv.address, schedule=socket_schedule)
        for _ in range(60):
            client.request("QUERY sg(ann, Y)")

        total = (
            relation_schedule.snapshot()["injected"]
            + socket_schedule.snapshot()["injected"]
        )
        assert total >= 100, (
            relation_schedule.snapshot(),
            socket_schedule.snapshot(),
        )
