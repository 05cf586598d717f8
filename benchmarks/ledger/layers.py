"""The per-layer budget (``--trace 1``).

Spans are recorded by the harness only, around calls into each
package's public functions: name, start, end, parent and slot.  They
stay in memory and are written as Chrome-trace JSON when the run ends.
End-to-end numbers never come from this mode; ``trace.overhead_ratio``
says what the span bookkeeping costs on the client pass.

Every timing is a floor, as in the end-to-end mode.  A layer's
self-time is its span's floor minus the floors of the spans it
contains; where a layer can only be seen from outside (the wire, the
worker hop) it is the difference of two round-trip floors.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.planner import Planner, plan_cache_key
from repro.datalog.parser import parse_program, parse_query
from repro.engine.database import Database
from repro.engine.seminaive import SemiNaiveEvaluator
from repro.persist import PersistenceManager, recover_database
from repro.persist.wal import WriteAheadLog
from repro.resilience import Budget
from repro.service import QuerySession

from . import oracle, spec
from .estimator import Floors, percentile
from .fixtures import Inputs, Slot
from .lanes import (
    BURST, ReadLane, Result, _fresh_dir, _write, durable_flags, replay,
)
from .serving import WORK, Server, child_env

WAL_ONLY_RECORDS = 20_000
#: Spans kept for the Chrome trace; floors are kept for every call.
MAX_SPANS = 40_000


class Tracer:
    """Runs calls under spans and keeps each (name, slot)'s floor."""

    def __init__(self) -> None:
        self.events: List[Optional[tuple]] = []
        self.floors = Floors()
        self._stack: List[int] = []

    def call(self, name: str, slot, fn: Callable, *args, **kwargs):
        index = len(self.events) if len(self.events) < MAX_SPANS else -1
        if index >= 0:
            self.events.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if index >= 0:
                self.events[index] = (name, start, end, parent, slot)
            self.floors.add((name, slot), end - start)

    def floor_by_slot(self, name: str) -> Dict[object, float]:
        return {slot: self.floors.floor((n, slot))
                for n, slot in self.floors.slots() if n == name}

    def mean(self, name: str) -> float:
        values = list(self.floor_by_slot(name).values())
        return statistics.fmean(values) if values else float("nan")

    def chrome(self) -> Dict[str, object]:
        origin = min((e[1] for e in self.events if e), default=0.0)
        return {"traceEvents": [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": index, "parent": parent, "slot": str(slot)}}
            for index, (name, start, end, parent, slot)
            in enumerate(e for e in self.events if e)
        ]}


def _repeat(budget_s: float, at_least: int, fn: Callable[[], None]) -> int:
    start = time.perf_counter()
    rounds = 0
    while rounds < at_least or time.perf_counter() - start < budget_s:
        fn()
        rounds += 1
    return rounds


def _mutation(slot: Slot) -> Tuple[str, Tuple[str, ...]]:
    name, args = slot.text.rstrip(")").split("(", 1)
    return name, tuple(a.strip() for a in args.split(","))


# ----------------------------------------------------------------------
# datalog / analysis / core / engine: the in-process query pass
# ----------------------------------------------------------------------
@dataclass
class Served:
    """The lane a client sees: serve-hot/-cold's own schedule, else the
    durable lane (main on serve-rw, side lane on paper-batch)."""

    schedule: Sequence[Slot]
    text: str
    durable: bool

    @classmethod
    def of(cls, inputs: Inputs) -> "Served":
        if inputs.schedule is not None:
            return cls(inputs.schedule, inputs.serving.text, False)
        return cls(inputs.durable.round, inputs.durable.text, True)


def _engine_pass(tracer: Tracer, inputs: Inputs, served: Served,
                 budget_s: float) -> Dict[str, float]:
    if inputs.workload == "paper-batch":
        items = [(s.name, s.build(), s.query, s.force) for s in inputs.paper]
        text = inputs.oneshot[0]
    else:
        text = served.text
        database = Database()
        database.load_source(text)
        queries = dict.fromkeys(
            s.text for s in served.schedule if s.verb == "QUERY")
        items = [(q, database, q, None) for q in queries]

    # One representative query per plan shape and database: the planner
    # analyses a predicate lazily on its first plan, so "compile" is the
    # constructor plus those first plans, and core.plan is the warm call.
    shapes: Dict[int, Dict[object, list]] = {}
    for _, database, query, _ in items:
        goals = parse_query(query)
        shapes.setdefault(id(database), {}).setdefault(
            plan_cache_key(goals[0], goals[1:]), goals)

    def compile_planner(database: Database) -> Planner:
        planner = Planner(database)
        for goals in shapes[id(database)].values():
            planner.plan(goals)
        return planner

    counts: Dict[str, float] = {f"core.strategy_mix.{s}": 0 for s in spec.STRATEGIES}
    counts.update({"core.split_decisions": 0, "engine.tuples_derived": 0,
                   "engine.total_work": 0, "engine.peak_intermediate": 0,
                   "engine.rounds": 0})
    answers = 0
    first = True
    # A server keeps one planner for life, so its plan and execute calls
    # run warm; the paper lane makes a fresh Planner per slot and pays
    # the first-use costs every time.  Each twin does as its lane does.
    fresh_per_round = inputs.workload == "paper-batch"
    planners: Dict[int, Planner] = {}

    def one_round() -> None:
        nonlocal first, answers
        tracer.call("datalog.parse_program", 0, parse_program, text)
        compiled: Dict[int, Planner] = {}
        for key, database, query, force in items:
            if id(database) not in compiled:
                compiled[id(database)] = tracer.call(
                    "analysis.compile", id(database), compile_planner, database)
                if fresh_per_round:
                    planners[id(database)] = compiled[id(database)]
                else:
                    planners.setdefault(id(database), compiled[id(database)])
            planner = planners[id(database)]
            goals = tracer.call("datalog.parse_query", key, parse_query, query)
            plan = tracer.call("core.plan", key, planner.plan, goals)
            if force:
                plan.strategy = force
            rows, counters = tracer.call("core.execute", key, planner.execute, plan)
            if first:
                counts[f"core.strategy_mix.{plan.strategy}"] += 1
                decision = plan.split_decision
                counts["core.split_decisions"] += bool(decision and decision.is_split)
                counts["engine.tuples_derived"] += counters.derived_tuples
                counts["engine.total_work"] += counters.total_work
                counts["engine.rounds"] += counters.iterations
                counts["engine.peak_intermediate"] = max(
                    counts["engine.peak_intermediate"], counters.peak_intermediate)
                answers += len(rows)
        first = False

    _repeat(budget_s, 3, one_round)
    counts["engine.work_per_answer"] = counts["engine.total_work"] / max(answers, 1)
    # The same queries, in the same order, through a QuerySession: a miss
    # (caches cleared, so it plans), then the plan and execute calls it
    # contains on the session's own planner, then a hit.  Interleaved so
    # that all three floors see the same warmth of planner and CPU caches.
    sessions: Dict[int, QuerySession] = {}

    def session_round() -> None:
        if fresh_per_round or not sessions:
            for _, database, _, _ in items:
                sessions[id(database)] = QuerySession(
                    database, result_cache_size=len(items))
        for session in sessions.values():
            session.clear_caches()
        for key, database, query, force in items:
            if force:
                continue
            session = sessions[id(database)]
            tracer.call("service.session_miss", key, session.execute, query)
            plan = tracer.call("service.session_miss.plan", key,
                               session.planner.plan, parse_query(query))
            tracer.call("service.session_miss.execute", key,
                        session.planner.execute, plan)
            tracer.call("service.session_hit", key, session.execute, query)

    _repeat(budget_s / 3, 3, session_round)
    miss = tracer.floor_by_slot("service.session_miss")
    plan = tracer.floor_by_slot("service.session_miss.plan")
    execute = tracer.floor_by_slot("service.session_miss.execute")
    counts.update({
        "datalog.parse_query_us": tracer.mean("datalog.parse_query") * 1e6,
        "datalog.parse_program_ms": tracer.mean("datalog.parse_program") * 1e3,
        "analysis.compile_ms": tracer.mean("analysis.compile") * 1e3,
        "core.plan_us": tracer.mean("core.plan") * 1e6,
        "core.execute_ms": tracer.mean("core.execute") * 1e3,
        "service.session_hit_us": tracer.mean("service.session_hit") * 1e6,
        "service.session_miss_us": statistics.fmean(
            miss[k] - plan[k] - execute[k] for k in miss) * 1e6,
    })
    return counts


# ----------------------------------------------------------------------
# engine / ivm / persist: mutations on the durable lane's EDB
# ----------------------------------------------------------------------
def _mutation_pass(tracer: Tracer, inputs: Inputs) -> Dict[str, float]:
    fixture = inputs.durable
    facts = [_mutation(s) for s in fixture.round if s.verb == "FACT"]
    affected = [s.text for prev, s in zip(fixture.round, fixture.round[1:])
                if prev.verb == "FACT"]
    queries = list(dict.fromkeys(s.text for s in fixture.round if s.verb == "QUERY"))

    plain = Database()
    plain.load_source(fixture.text)
    session = QuerySession(Database(), ivm=True)
    session.load_source(fixture.text)
    viewed = session.database
    for query in queries:
        session.execute(query)  # registers and materializes every view
    delta_rows = 0
    first = True

    def changed() -> int:
        report = session.views.last_report
        return sum(len(a) + len(d) for a, d in report.derived.values())

    def one_round() -> None:
        nonlocal first, delta_rows
        tracer.call("engine.fixpoint", 0, SemiNaiveEvaluator(plain).evaluate)
        tracer.call("ivm.build", 0, session.views.rebuild)
        for index, (name, values) in enumerate(facts):
            tracer.call("engine.add_fact", index, plain.add_fact, name, values)
            tracer.call("ivm.insert", index, viewed.add_fact, name, values)
            delta_rows += changed() if first else 0
            tracer.call("ivm.repair", index, session.execute, affected[index])
        for index, (name, values) in enumerate(facts):
            tracer.call("engine.retract_fact", index, plain.retract_fact, name, values)
            tracer.call("ivm.retract", index, viewed.retract_fact, name, values)
            delta_rows += changed() if first else 0
        first = False

    _repeat(0.0, 3, one_round)
    add = tracer.floor_by_slot("engine.add_fact")
    retract = tracer.floor_by_slot("engine.retract_fact")
    insert = tracer.floor_by_slot("ivm.insert")
    unlink = tracer.floor_by_slot("ivm.retract")
    out = {
        "engine.add_fact_us": tracer.mean("engine.add_fact") * 1e6,
        "engine.fixpoint_ms": tracer.mean("engine.fixpoint") * 1e3,
        "ivm.build_ms": tracer.mean("ivm.build") * 1e3,
        "ivm.insert_ms": statistics.fmean(insert[i] - add[i] for i in add) * 1e3,
        "ivm.retract_ms": statistics.fmean(unlink[i] - retract[i] for i in add) * 1e3,
        "ivm.repair_ms": tracer.mean("ivm.repair") * 1e3,
        "ivm.delta_rows": delta_rows,
    }
    out.update(_persist_pass(tracer, inputs))
    return out


def _persist_pass(tracer: Tracer, inputs: Inputs) -> Dict[str, float]:
    fixture = inputs.durable
    # WriteAheadLog.append, in batches (one append is too short to time).
    wal = WriteAheadLog(str(_fresh_dir("layers.wal")), fsync="interval")
    payload = {"op": "fact", "name": "parent", "row": ["p0_00", "p1_00"]}

    def batch() -> None:
        for _ in range(100):
            wal.append(payload)

    for _ in range(20):
        tracer.call("persist.append_x100", 0, batch)
    wal.close()

    # PersistenceManager.checkpoint on the lane's EDB; the files it
    # leaves give the storage counts.
    store = _fresh_dir("layers.store")
    manager = PersistenceManager.open(str(store), snapshot_every=10**9)
    manager.database.load_source(fixture.text)
    for mutation in (s for s in fixture.round[:fixture.kill_at] if s.verb != "QUERY"):
        name, values = _mutation(mutation)
        (manager.database.add_fact if mutation.verb == "FACT"
         else manager.database.retract_fact)(name, values)
    wal_stats = manager.wal.stats()
    for _ in range(3):
        tracer.call("persist.checkpoint", 0, manager.checkpoint)
    snapshot_bytes = max(p.stat().st_size for p in (store / "snapshots").iterdir())
    manager.close()

    # recover_database on a WAL-only store (no covering snapshot).
    records = 1000 if inputs.scale.smoke else WAL_ONLY_RECORDS
    store = _fresh_dir("layers.walonly")
    manager = PersistenceManager.open(
        str(store), snapshot_every=10**9, checkpoint_on_close=False)
    for index in range(records):
        manager.database.add_fact("edge", (index, index + 1))
    manager.close()
    for _ in range(2):
        _, info = tracer.call("persist.recover", 0, recover_database, str(store))
        if info.last_lsn != records:
            raise RuntimeError(f"recovered {info.last_lsn} of {records} records")
    recover = tracer.floors.floor(("persist.recover", 0))
    return {
        "persist.append_us": tracer.floors.floor(("persist.append_x100", 0)) / 100 * 1e6,
        "persist.checkpoint_ms": tracer.floors.floor(("persist.checkpoint", 0)) * 1e3,
        "persist.recover_ms": recover * 1e3,
        "persist.replay_records_per_s": records / recover,
        "persist.bytes_per_record": wal_stats["bytes"] / wal_stats["records"],
        "persist.snapshot_bytes": snapshot_bytes,
    }


# ----------------------------------------------------------------------
# service: what only shows from outside the process
# ----------------------------------------------------------------------
VARIANTS = {
    "workers1": ("--workers", "1"),
    "workers0": ("--workers", "0"),
    "threaded": ("--threaded",),
    "noreqlog": ("--workers", "1", "--reqlog-size", "0"),
}


def _wire_pass(tracer: Tracer, program, sample: Sequence[Slot],
               budget_s: float) -> Dict[str, float]:
    """Round-trip floors per (server variant, query) on cache hits.

    The sample comes from the workload's own schedule, so reply sizes
    (and with them serialization and pipe transfer) are the workload's.
    """
    servers = {name: Server(program, flags) for name, flags in VARIANTS.items()}
    session = QuerySession(_parsed(program))
    try:
        for slot in sample:  # evaluate once; everything after is a hit
            session.execute(slot.text)
            for server in servers.values():
                server.request(slot.line)

        def one_round() -> None:
            for index, slot in enumerate(sample):
                tracer.call("service.session_hit_one", index, session.execute, slot.text)
                for name, server in servers.items():
                    for _ in range(3):
                        seconds, envelope = server.request(slot.line)
                        tracer.floors.record((name, index), seconds,
                                             oracle.reply_ok(envelope, slot))
            burst = [sample[i % len(sample)] for i in range(BURST)]
            seconds, replies = servers["workers1"].burst([s.line for s in burst])
            tracer.floors.record(("burst", 0), seconds, all(
                oracle.reply_ok(r, s) for r, s in zip(replies, burst)))

        _repeat(budget_s, 6, one_round)
    finally:
        for server in servers.values():
            server.kill()

    def mean(name: str) -> float:
        return statistics.fmean(tracer.floor_by_slot(name).values())

    hit = mean("service.session_hit_one")
    serial = mean("workers1")
    return {
        "service.wire_us": (mean("workers0") - hit) * 1e6,
        "service.worker_hop_us": (serial - mean("workers0")) * 1e6,
        "service.threaded_wire_us": (mean("threaded") - hit) * 1e6,
        "service.pipe_gap_us": (tracer.floors.floor(("burst", 0)) / BURST - serial) * 1e6,
        "observe.reqlog_tax_us": (serial - mean("noreqlog")) * 1e6,
    }


def _parsed(program) -> Database:
    database = Database()
    database.load_source(program.read_text())
    return database


def _import_ms() -> float:
    def start(code: str) -> float:
        begun = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        return time.perf_counter() - begun

    bare = min(start("pass") for _ in range(3))
    return (min(start("import repro") for _ in range(3)) - bare) * 1e3


# ----------------------------------------------------------------------
# The client pass, traced and untraced, and its in-process twin
# ----------------------------------------------------------------------
def _client_pass(tracer: Tracer, inputs: Inputs, served: Served, program,
                 budget_s: float, layer: Dict[str, float]
                 ) -> Tuple[Dict[str, float], Floors]:
    schedule, durable = served.schedule, served.durable
    flags = (durable_flags(_fresh_dir("layers.served"), inputs.durable.writes)
             if durable else ReadLane.flags)
    untraced, traced = Floors(), Floors()
    server = Server(program, flags)
    try:
        replay(server, schedule, Floors())  # warm-up
        server.reply_bytes = 0
        replay(server, schedule, untraced)
        reply_bytes = server.reply_bytes

        def one_round() -> None:
            for index, slot in enumerate(schedule):
                start = time.perf_counter()  # outside the span: its cost counts
                _, envelope = tracer.call("client.request", index,
                                          server.request, slot.line)
                traced.record(index, time.perf_counter() - start,
                              oracle.reply_ok(envelope, slot))
            replay(server, schedule, untraced)

        _repeat(budget_s, 2, one_round)
        after = server.stats()
    finally:
        server.kill()

    # The same schedule through an in-process session built like the
    # server's: what is left of the client floor is wire + worker hop.
    if durable:
        manager = PersistenceManager.open(
            str(_fresh_dir("layers.inproc")), fsync="interval",
            snapshot_every=inputs.durable.writes)
        manager.database.load_source(served.text)
        manager.checkpoint()
        session = QuerySession(manager.database, ivm=True)
        session.attach_persistence(manager)
    else:
        manager = None
        session = QuerySession(_parsed(program))
    failed = 0

    def inproc_round() -> None:
        nonlocal failed
        for index, slot in enumerate(schedule):
            if slot.verb == "QUERY":
                # A worker evaluates every request under a (limitless)
                # budget so that it can be cancelled; so does its twin.
                result = tracer.call("service.session", index, session.execute,
                                     slot.text, None, Budget())
                rows = sorted([str(v) for v in row] for row in result.rows)
                failed += rows != sorted(slot.expected)
            else:
                name, values = _mutation(slot)
                call = session.add_fact if slot.verb == "FACT" else session.retract_fact
                failed += not tracer.call("service.session", index, call, name, values)

    gc.unfreeze()  # a server's collector sees its whole heap; so must the twin's
    try:
        _repeat(budget_s / 2, 3, inproc_round)
    finally:
        gc.freeze()
    if manager is not None:
        manager.close()
    if failed:
        untraced.failures += failed

    inproc = tracer.floor_by_slot("service.session")
    client = sum(untraced.floors())
    pooled = sum(1 for s in schedule if s.verb == "QUERY")
    attributed = (sum(inproc.values())
                  + len(schedule) * layer["service.wire_us"] / 1e6
                  + pooled * layer["service.worker_hop_us"] / 1e6)

    def ratio(cache: str) -> float:
        """Over the server's whole life: the warm-up's misses count."""
        return after[cache]["hits"] / (after[cache]["hits"] + after[cache]["misses"])

    raw = untraced.raw()
    return {
        "service.reply_bytes": reply_bytes,
        "service.result_cache_hit_ratio": ratio("result_cache"),
        "service.plan_cache_hit_ratio": ratio("plan_cache"),
        "service.unattributed_us": (client - attributed) / len(schedule) * 1e6,
        "service.coverage_ratio": attributed / client,
        "trace.overhead_ratio": sum(traced.floors()) / client,
        "host.raw_p50_ms": statistics.median(raw) * 1e3,
        "host.raw_p99_ms": percentile(raw, 99) * 1e3,
        "host.noise_ratio": untraced.noise_ratio(),
    }, untraced


def run_layers(inputs: Inputs, seconds: float) -> Result:
    """Every per-layer metric for one workload, in about ``seconds``."""
    began = time.perf_counter()
    load1 = os.getloadavg()[0]
    tracer = Tracer()
    gc.collect()
    gc.freeze()
    try:
        metrics: Dict[str, float] = {"import.repro_ms": _import_ms()}
        served = Served.of(inputs)
        metrics.update(_engine_pass(tracer, inputs, served, seconds * 0.15))
        metrics.update(_mutation_pass(tracer, inputs))
        program = _write("layers.dl", served.text)
        if served.durable:  # its answers move with the writes; the boundary query does not
            sample = [inputs.durable.hit_query]
        else:
            distinct = list({s.text: s for s in served.schedule}.values())
            sample = distinct[:: max(1, len(distinct) // 32)][:32]
        metrics.update(_wire_pass(tracer, program, sample, seconds * 0.04))
        client, untraced = _client_pass(tracer, inputs, served, program,
                                        seconds * 0.2, metrics)
        metrics.update(client)
    finally:
        Server.kill_all()
        gc.unfreeze()
    metrics["host.nproc"] = os.cpu_count()
    metrics["host.load1"] = load1
    path = WORK / f"trace-{inputs.workload}.json"
    path.write_text(json.dumps(tracer.chrome()))
    metrics["trace.spans"] = len(tracer.events)
    return Result(
        workload=inputs.workload, metrics=metrics,
        attempted=tracer.floors.attempted + untraced.attempted,
        failed=tracer.floors.failures + untraced.failures,
        problems=[], cycles=untraced.rounds(),
        span_s=time.perf_counter() - began,
        diagnostics={"trace_file_bytes": float(path.stat().st_size)},
    )
