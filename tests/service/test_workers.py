"""WorkerPool: forked evaluation, parity with in-process, lifecycle.

The parity tests are the acceptance gate for the multiprocessing
dispatch: answers, engine counters and budget-exceeded envelopes must
be bit-identical to in-process evaluation on the paper's workloads
(sg, scsg, travel) — modulo wall-clock fields, which can never match.
"""

import os
import signal
import time

import pytest

from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.engine.database import Database
from repro.resilience import Budget, BudgetExceeded
from repro.service import AsyncQueryServer, QuerySession
from repro.service.workers import WorkerPool, fork_available
from repro.workloads import (
    SG,
    FamilyConfig,
    FlightConfig,
    family_database,
    flight_database,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool needs the fork start method"
)

CONFIG = FamilyConfig(levels=4, width=6, countries=2, seed=3)

#: (database builder, queries) per workload.
WORKLOADS = [
    (
        lambda: family_database(CONFIG, program=SG),
        ["sg(p0_0, Y)", "sg(X, Y)"],
    ),
    (
        lambda: family_database(CONFIG),
        ["scsg(p0_0, Y)"],
    ),
    (
        lambda: flight_database(
            FlightConfig(airports=7, extra_flights=6, seed=5)
        ),
        ["travel(L, city0, DT, city5, AT, F), F =< 600"],
    ),
]

#: Envelope fields that legitimately differ across processes/runs.
_VOLATILE = {"elapsed_ms"}


def _scrub(reply):
    reply = dict(reply)
    for field in _VOLATILE:
        reply.pop(field, None)
    if isinstance(reply.get("budget"), dict):
        reply["budget"] = {
            k: v for k, v in reply["budget"].items() if k != "elapsed_s"
        }
        # The blowout message embeds no timing, but scrub defensively
        # anyway if a future format adds one.
    if isinstance(reply.get("trace"), dict):
        # Wall-clock-derived report fields (and the span profile, which
        # is nothing but timings) can never match across processes.
        reply["trace"] = {
            k: v
            for k, v in reply["trace"].items()
            if k not in ("elapsed_ms", "tuples_per_sec")
        }
        profile = reply["trace"].pop("profile", None)
        if profile is not None:
            reply["trace"]["profile_present"] = True
    return reply


class TestParity:
    @pytest.mark.parametrize("build, queries", WORKLOADS)
    def test_query_envelopes_bit_identical(self, build, queries):
        with AsyncQueryServer(QuerySession(build()), workers=0) as inprocess:
            with AsyncQueryServer(QuerySession(build()), workers=2) as pooled:
                for source in queries:
                    expect = _scrub(inprocess.handle_line(f"QUERY {source}"))
                    got = _scrub(pooled.handle_line(f"QUERY {source}"))
                    assert got == expect, source

    @pytest.mark.parametrize("build, queries", WORKLOADS)
    def test_explain_counters_bit_identical(self, build, queries):
        with AsyncQueryServer(QuerySession(build()), workers=0) as inprocess:
            with AsyncQueryServer(QuerySession(build()), workers=1) as pooled:
                for source in queries:
                    expect = _scrub(inprocess.handle_line(f"EXPLAIN {source}"))
                    got = _scrub(pooled.handle_line(f"EXPLAIN {source}"))
                    assert (
                        got["trace"]["counters"]
                        == expect["trace"]["counters"]
                    ), source
                    assert got == expect, source

    def test_budget_envelopes_bit_identical(self):
        build = WORKLOADS[0][0]
        budget = Budget(max_tuples=10)
        with AsyncQueryServer(
            QuerySession(build()), workers=0, budget=budget,
            breaker_threshold=None,
        ) as inprocess:
            with AsyncQueryServer(
                QuerySession(build()), workers=1, budget=budget,
                breaker_threshold=None,
            ) as pooled:
                expect = _scrub(inprocess.handle_line("QUERY sg(X, Y)"))
                got = _scrub(pooled.handle_line("QUERY sg(X, Y)"))
                assert not expect["ok"]
                assert expect["error"]["type"] == "BudgetExceeded"
                assert got == expect
                # The blowout is accounted in the *parent* session's
                # metrics even though it tripped inside a worker.
                assert (
                    pooled.session.metrics.snapshot()["budget_exceeded"]
                    == inprocess.session.metrics.snapshot()["budget_exceeded"]
                    == 1
                )

    def test_plan_parity(self):
        build = WORKLOADS[1][0]
        with AsyncQueryServer(QuerySession(build()), workers=0) as inprocess:
            with AsyncQueryServer(QuerySession(build()), workers=1) as pooled:
                expect = inprocess.handle_line("PLAN scsg(p0_0, Y)")
                got = pooled.handle_line("PLAN scsg(p0_0, Y)")
                assert got == expect

    def test_metrics_recorded_for_worker_queries(self):
        build = WORKLOADS[0][0]
        with AsyncQueryServer(QuerySession(build()), workers=1) as pooled:
            pooled.handle_line("QUERY sg(p0_0, Y)")
            metrics = pooled.session.metrics
            assert metrics.queries == 1
            snap = metrics.snapshot()
            assert snap["engine"]  # counters crossed the pipe
            assert snap["workers"]["dispatches"] == 1


class TestOneCache:
    """The answer cache is the serving process's, whatever evaluates."""

    @pytest.mark.parametrize("build, queries", WORKLOADS)
    def test_hit_ratio_independent_of_workers(self, build, queries):
        probes = queries + [queries[0].replace("p0_0", "p0_1")]
        schedule = [probes[i % len(probes)] for i in (0, 1, 0, 0, 2, 1, 0, 2, 1)]
        seen = {}
        for workers in (0, 1, 2):
            with AsyncQueryServer(QuerySession(build()), workers=workers) as server:
                replies = [server.handle_line(f"QUERY {q}") for q in schedule]
                stats = server.handle_line("STATS")["stats"]
            counts = {k: stats["result_cache"][k] for k in ("hits", "misses")}
            assert counts["misses"] == len(set(schedule))
            assert counts["hits"] == len(schedule) - counts["misses"]
            if workers:
                # A hit never dispatches.
                assert stats["workers"]["dispatches"] == counts["misses"]
            seen[workers] = (
                counts,
                [(r["answers"], r["result_cached"]) for r in replies],
            )
        assert seen[0] == seen[1] == seen[2]

    def test_stale_snapshot_answer_is_returned_but_not_adopted(self):
        session = QuerySession(family_database(CONFIG, program=SG))
        query = "sg(p0_0, Y)"
        with AsyncQueryServer(session, workers=1) as server:
            # Evaluated on the snapshot forked before the write ...
            stale = server.pool.execute("QUERY", query)
            assert session.add_fact("sibling", ("p1_1", "p1_4"))
            assert stale["version"] != session.database.version
            # ... so it reaches its client and nowhere else.
            session.adopt(query, stale)
            assert session.cache_sizes()["result_cache"] == 0
            fresh = server.handle_line(f"QUERY {query}")
            assert not fresh["result_cached"]
            assert fresh["answers"] != stale["answers"]
            again = server.handle_line(f"QUERY {query}")
            assert again["result_cached"] and again["answers"] == fresh["answers"]
            assert server.pool.snapshot()["dispatches"] == 2


class TestPool:
    @pytest.fixture
    def session(self):
        return QuerySession(family_database(CONFIG, program=SG))

    def test_execute_round_trip(self, session):
        with WorkerPool(session, size=2) as pool:
            payload = pool.execute("QUERY", "sg(X, Y)")
            assert payload["count"] >= 1
            assert payload["strategy"]
            assert pool.snapshot()["dispatches"] == 1

    def test_workers_are_cold_evaluators(self, session):
        with WorkerPool(session, size=2) as pool:
            first = pool.execute("QUERY", "sg(p0_0, Y)")
            second = pool.execute("QUERY", "sg(p0_0, Y)")
            # No worker-side answer cache: the parent owns the only one.
            assert not first["result_cached"]
            assert not second["result_cached"]
            assert first["version"] == session.database.version

    def test_mutation_refreshes_snapshot(self, session):
        with WorkerPool(session, size=1) as pool:
            before = pool.execute("QUERY", "sg(p0_0, Y)")
            # A new parent of an existing child creates new sg pairs.
            session.add_fact("parent", ("zz_new", "p1_0"))
            after = pool.execute("QUERY", "sg(p0_0, Y)")
            assert pool.snapshot()["refreshes"] == 1
            assert after["count"] != before["count"] or not after[
                "result_cached"
            ]

    def test_killed_worker_is_respawned(self, session):
        with WorkerPool(session, size=1) as pool:
            pool.execute("QUERY", "sg(p0_0, Y)")
            victim = pool._workers[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            with pytest.raises(Exception):
                # This dispatch (or the next) observes the death; the
                # pool replaces the corpse either way.
                pool.execute("QUERY", "sg(p0_1, Y)")
                pool.execute("QUERY", "sg(p0_2, Y)")
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                snap = pool.snapshot()
                if snap["restarts"] >= 1 and snap["workers"] >= 1:
                    break
                time.sleep(0.05)
            assert pool.snapshot()["restarts"] >= 1
            # And the respawned worker serves again.
            assert pool.execute("QUERY", "sg(X, Y)")["count"] >= 1

    def test_timeout_cancels_and_pool_survives(self):
        # A full transitive closure over a dense digraph: reliably
        # slower than the 50ms deadline, so the dispatch must abandon
        # and remotely cancel the worker.
        from repro.workloads import random_digraph

        db = Database()
        db.load_source(
            "path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y)."
        )
        for row in random_digraph(120, 600, seed=1).rows():
            db.add_fact("edge", row)
        session = QuerySession(db)
        with WorkerPool(session, size=1, kill_grace=2.0) as pool:
            with pytest.raises(FutureTimeoutError):
                pool.execute("QUERY", "path(X, Y)", timeout=0.05)
            # The cancelled worker either aborts cooperatively (and is
            # reused) or is killed; the pool serves the next request.
            payload = pool.execute("QUERY", "path(n0, Y)", timeout=30)
            assert payload["count"] >= 0

    def test_budget_exceeded_crosses_the_pipe(self, session):
        with WorkerPool(session, size=1) as pool:
            with pytest.raises(BudgetExceeded) as info:
                pool.execute("QUERY", "sg(X, Y)", limits={"max_tuples": 5})
            assert info.value.reason == "tuples"
            assert info.value.counters is not None

    def test_remote_error_carries_type(self, session):
        from repro.service.workers import RemoteEvaluationError

        with WorkerPool(session, size=1) as pool:
            with pytest.raises(RemoteEvaluationError) as info:
                pool.execute("QUERY", "nosuch(X)")
            assert info.value.exc_type
