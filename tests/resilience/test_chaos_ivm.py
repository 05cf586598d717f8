"""Chaos on the IVM paths: faults mid-maintenance and mid-push.

Two contracts under seeded fault injection:

* **maintenance**: a fault anywhere inside a maintenance run may fail
  that run, but the failure is contained — the view goes dirty, the
  next use recomputes, and the session's answers always end up equal
  to a from-scratch fixpoint over the final database;
* **push channel**: subscribers that stall or slam their connection
  shut mid-DELTA never wedge the server; surviving subscribers keep
  receiving well-formed envelopes and the server stays serviceable.
"""

import time

from repro.datalog.literals import Predicate
from repro.engine.database import Database
from repro.engine.seminaive import SemiNaiveEvaluator
from repro.resilience import ChaosError, ChaosSchedule, ChaosSubscriber
from repro.resilience.chaos import chaos_relations
from repro.service import QuerySession

SOURCE = """
edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n1, n3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""

#: Exceptions an injected fault may legitimately surface as from a
#: mutation call while relations are wrapped.
INJECTED = (ChaosError, ConnectionResetError)

MUTATIONS = [
    ("add", "edge", ("n4", "n5")),
    ("retract", "edge", ("n1", "n2")),
    ("add", "edge", ("n5", "n1")),
    ("retract", "edge", ("n2", "n3")),
    ("add", "edge", ("n2", "n3")),
    ("retract", "edge", ("n1", "n3")),
    ("add", "edge", ("n1", "n2")),
]


def fresh_tc(db: Database):
    result = SemiNaiveEvaluator(db).evaluate()
    return {
        tuple(str(v) for v in row) for row in result.relation("tc", 2)
    }


class TestMaintenanceChaos:
    RATES = {"delay": 0.1, "error": 0.03}

    def run_storm(self, seed: int) -> int:
        db = Database()
        db.load_source(SOURCE)
        session = QuerySession(db, ivm=True)
        session.execute("tc(X, Y)")  # materialize the view
        schedule = ChaosSchedule(seed=seed, rates=self.RATES)
        faults = 0
        with chaos_relations(db, schedule):
            for op, name, row in MUTATIONS:
                try:
                    if op == "add":
                        session.add_fact(name, row)
                    else:
                        session.retract_fact(name, row)
                except INJECTED:
                    faults += 1
        # Chaos off: the session must answer exactly the from-scratch
        # fixpoint over whatever EDB state the storm left behind.
        rows = {
            tuple(map(str, row))
            for row in session.execute("tc(X, Y)").rows
        }
        assert rows == fresh_tc(db)
        return faults

    def test_state_recovers_across_seeds(self):
        total_faults = 0
        for seed in range(6):
            total_faults += self.run_storm(seed) or 0
        # The schedule must actually have bitten at least once, or this
        # test exercises nothing.
        assert total_faults > 0

    def test_failed_maintenance_marks_dirty_not_wrong(self):
        db = Database()
        db.load_source(SOURCE)
        session = QuerySession(db, ivm=True)
        session.execute("tc(X, Y)")
        fix = session.views.fixpoints[Predicate("tc", 2)]
        # A hot error rate guarantees the maintenance path faults.
        schedule = ChaosSchedule(seed=3, rates={"error": 0.5})
        with chaos_relations(db, schedule):
            for op, name, row in MUTATIONS[:4]:
                try:
                    if op == "add":
                        session.add_fact(name, row)
                    else:
                        session.retract_fact(name, row)
                except INJECTED:
                    pass
        assert fix.failures > 0 or fix.dirty or fix.maintenance_runs
        rows = {
            tuple(map(str, row))
            for row in session.execute("tc(X, Y)").rows
        }
        assert rows == fresh_tc(db)


class TestPushChaos:
    def test_misbehaving_subscribers_never_wedge_the_server(self, serve):
        db = Database()
        db.load_source(SOURCE)
        session = QuerySession(db, ivm=True)
        server = serve(session)
        host, port = server.address
        schedule = ChaosSchedule(
            seed=11, rates={"drop": 0.25, "delay": 0.2}
        )
        subscribers = [
            ChaosSubscriber(host, port, schedule) for _ in range(4)
        ]
        for sub in subscribers:
            reply = sub.subscribe("tc/2")
            assert reply and reply["ok"]
        for index, (op, name, row) in enumerate(MUTATIONS):
            if op == "add":
                session.add_fact(name, row)
            else:
                session.retract_fact(name, row)
            for sub in subscribers:
                outcome, delta = sub.read_delta()
                if outcome in ("drop", "closed"):
                    continue
                # Every delivered line is a well-formed envelope.
                assert delta["ok"] and delta["verb"] == "DELTA"
                assert delta["predicate"] == "tc/2"
                assert isinstance(delta["adds"], list)
                assert isinstance(delta["dels"], list)
        # The server survived: a fresh client gets clean service
        # and the dropped subscriptions were reaped.
        probe = ChaosSubscriber(host, port, ChaosSchedule(seed=0))
        stats = probe.request("STATS")
        assert stats["ok"]
        rows = probe.request("QUERY tc(X, Y)")
        assert rows["ok"]
        expected = fresh_tc(db)
        assert {tuple(r) for r in rows["answers"]} == expected
        deadline = time.monotonic() + 5
        while (
            server.subscriptions.count() > stats["stats"]["subscribers"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        for sub in subscribers:
            sub.close()
        probe.close()
