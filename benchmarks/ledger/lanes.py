"""The measurement lanes and the four workloads built from them.

A run is a few *epochs* of *cycles*.  Each cycle runs one unit of every
lane the workload carries, and the slow probes (recovery, CLI one-shot)
are spread between cycles, so every lane's samples span the whole run
and a multi-second slow mode of the host cannot cover all of them.
Each epoch starts its servers afresh: the cold start is a set-up
sample, and a floor taken over several processes does not inherit one
process's luck with memory layout.  Every timing is a floor over those
samples.

The driver contract wants every end-to-end metric on every workload.
The workload's *main* lane produces the metrics the README lists as
primary for it; the rest come from two small side lanes every run
carries: a short durable read/write lane and the core of the paper
batch.  Nothing is copied from another metric or left as a constant.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.planner import Planner

from . import fixtures, host, oracle
from .estimator import Floors, percentile
from .fixtures import Inputs, Slot
from .serving import WORK, Server, run_cli

BURST = 32


def _write(name: str, text: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / name
    path.write_text(text)
    return path


def _fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def timed_start(program: Path, flags: Sequence[str], first: Slot,
                into: Floors, key: str) -> Server:
    """Spawn -> banner -> first correct reply, recorded into ``into``."""
    server = Server(program, flags)
    _, envelope = server.request(first.line)
    seconds = time.perf_counter() - server.spawned
    into.record(key, seconds, oracle.reply_ok(envelope, first))
    return server


def replay(server: Server, schedule: Sequence[Slot], floors: Floors) -> None:
    """One closed-loop pass; a bad reply fails its slot for good."""
    for index, slot in enumerate(schedule):
        seconds, envelope = server.request(slot.line)
        floors.record(index, seconds, oracle.reply_ok(envelope, slot))


def durable_flags(data_dir: Path, writes: int) -> List[str]:
    """serve-rw's server: IVM, a WAL, and a checkpoint every ``writes``
    logged mutations (one round's worth)."""
    return ["--workers", "1", "--ivm", "--data-dir", str(data_dir),
            "--fsync", "interval", "--snapshot-every", str(writes)]


def warm_up(server: Server, schedule: Sequence[Slot], floors: Floors) -> None:
    """The first round after a server start: checked, counted, not timed."""
    scratch = Floors()
    replay(server, schedule, scratch)
    floors.count_only(scratch)


# ----------------------------------------------------------------------
# Lanes
# ----------------------------------------------------------------------
class ReadLane:
    """Replays a QUERY schedule on a plain ``--workers 1`` server."""

    flags = ("--workers", "1")

    def __init__(self, tag: str, text: str, first: Slot, schedule: List[Slot],
                 rounds: int):
        self.program = _write(f"{tag}.dl", text)
        self.first = first  # the reply a cold start waits for
        self.schedule = schedule
        self.rounds_per_cycle = rounds
        self.floors = Floors()
        self.starts = Floors()
        self.server: Optional[Server] = None
        self.peak_rss_mb = 0.0
        #: Cache lookups over the timed rounds of every epoch.
        self.lookups = {c: {"hits": 0, "misses": 0}
                        for c in ("result_cache", "plan_cache")}
        self._warm: Dict[str, Dict[str, int]] = {}

    def open(self) -> None:
        self.server = timed_start(self.program, self.flags, self.first,
                                  self.starts, "start")
        warm_up(self.server, self.schedule, self.floors)
        self._warm = _cache_counts(self.server.stats())

    def cycle(self) -> None:
        for _ in range(self.rounds_per_cycle):
            replay(self.server, self.schedule, self.floors)

    def start_probe(self) -> None:
        timed_start(self.program, self.flags, self.first, self.starts, "start").kill()

    def close(self) -> None:
        if self.server is None:
            return
        now = _cache_counts(self.server.stats())
        for cache, counts in self.lookups.items():
            for kind in counts:
                counts[kind] += now[cache][kind] - self._warm[cache][kind]
        self.peak_rss_mb = max(self.peak_rss_mb, self.server.peak_rss_mb())
        self.server.stop()
        self.server = None

    def cache_ratios(self) -> Dict[str, float]:
        """Hit ratios over the timed rounds only (warm-ups subtracted)."""
        return {cache: (c["hits"] / (c["hits"] + c["misses"])
                        if c["hits"] + c["misses"] else float("nan"))
                for cache, c in self.lookups.items()}


def _cache_counts(stats: dict) -> Dict[str, Dict[str, int]]:
    return {c: {k: stats[c][k] for k in ("hits", "misses")}
            for c in ("result_cache", "plan_cache")}


class BurstLane:
    """One socket write of 32 cache-hit QUERYs, 32 replies read back."""

    def __init__(self, slots: Sequence[Slot], server_of: Callable[[], Server]):
        self.slots = [slots[i % len(slots)] for i in range(BURST)]
        self.floors = Floors()
        self._server_of = server_of

    def cycle(self) -> None:
        server = self._server_of()
        # Prime so every burst request is a cache hit even right after
        # a write invalidated or repaired the entry.
        for slot in {id(s): s for s in self.slots}.values():
            server.request(slot.line)
        seconds, replies = server.burst([s.line for s in self.slots])
        self.floors.record("burst", seconds, all(
            oracle.reply_ok(r, s) for r, s in zip(replies, self.slots)))


class DurableLane:
    """FACT+QUERY / RETRACT rounds on a durable IVM server, a SIGKILL,
    and restarts on copies of the killed store."""

    def __init__(self, tag: str, fixture: fixtures.DurableFixture, rounds: int):
        self.tag = tag
        self.fixture = fixture
        self.rounds_per_cycle = rounds
        self.program = _write(f"{tag}.dl", fixture.text)
        self.floors = Floors()
        self.starts = Floors()
        self.recoveries = Floors()
        self.burst = BurstLane([fixture.hit_query], lambda: self.server)
        self.server: Optional[Server] = None
        self.crashed: Optional[Path] = None
        self.disk_bytes = 0
        self.peak_rss_mb = 0.0
        self.problems: List[str] = []
        self._facts_at_boundary: Optional[int] = None
        self._rounds = 0  # on the current server
        self._seed_checkpoints = 0

    def _start(self, data_dir: Path, first: Slot, into: Floors, key: str) -> Server:
        return timed_start(self.program,
                           durable_flags(data_dir, self.fixture.writes),
                           first, into, key)

    def crash(self) -> None:
        """A warm-up round, then SIGKILL three quarters through the next."""
        store = _fresh_dir(f"{self.tag}.crashed")
        victim = self._start(store, self.fixture.hit_query, self.starts, "start")
        warm_up(victim, self.fixture.round, self.floors)
        warm_up(victim, self.fixture.round[:self.fixture.kill_at], self.floors)
        victim.kill()
        self.crashed = store
        self.disk_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, files in os.walk(store) for name in files)

    def open(self) -> None:
        """The server the timed rounds run on, on a fresh store."""
        if self.crashed is None:
            self.crash()
        self.server = self._start(_fresh_dir(f"{self.tag}.store"),
                                  self.fixture.hit_query, self.starts, "start")
        self._seed_checkpoints = (
            self.server.stats()["persist"]["snapshot"]["checkpoints"])
        self._rounds = 0
        self._round(warm_up)

    def _round(self, play=replay) -> None:
        play(self.server, self.fixture.round, self.floors)
        self._rounds += 1
        stats = self.server.stats()
        facts = stats["database"]["facts"]
        if self._facts_at_boundary is None:
            self._facts_at_boundary = facts
        elif facts != self._facts_at_boundary:
            self.problems.append(
                f"{self.tag}: {facts} facts at a round boundary, "
                f"{self._facts_at_boundary} at the first")
        persist = stats["persist"]
        if (persist["snapshot"]["checkpoints"] != self._seed_checkpoints + self._rounds
                or persist["snapshot"]["last_lsn"] != persist["wal"]["last_lsn"]):
            self.problems.append(
                f"{self.tag}: checkpoint did not land on the last write of "
                f"round {self._rounds}: {persist['snapshot']}")

    def cycle(self) -> None:
        for _ in range(self.rounds_per_cycle):
            self._round()
        self.burst.cycle()

    def start_probe(self) -> None:
        self._start(_fresh_dir(f"{self.tag}.probe"), self.fixture.hit_query,
                    self.starts, "start").kill()

    def recovery_probe(self) -> None:
        """Restart on a byte-identical copy of the killed store; the
        first reply must already show the last acknowledged writes, and
        then every query is re-asked."""
        store = _fresh_dir(f"{self.tag}.recover")
        shutil.copytree(self.crashed, store)
        first, *rest = self.fixture.after_kill
        server = self._start(store, first, self.recoveries, "recover")
        check = Floors()
        if self.recoveries.attempted == 1:  # the copies are identical: once
            replay(server, rest, check)
        server.kill()
        self.floors.attempted += check.attempted
        if check.failures:
            self.floors.failures += check.failures
            self.recoveries.fail("recover")

    def close(self) -> None:
        if self.server is not None:
            self.peak_rss_mb = max(self.peak_rss_mb, self.server.peak_rss_mb())
            self.server.stop()
            self.server = None

    # -- metrics -------------------------------------------------------
    def verbs(self, *verbs: str) -> Callable[[int], bool]:
        return lambda index: self.fixture.round[index].verb in verbs

    def checkpoint_slot(self) -> int:
        return len(self.fixture.round) - 1


class PaperLane:
    """In-process ``Planner`` on the paper's queries, a fresh Planner per slot."""

    def __init__(self, slots: List[fixtures.PaperSlot]):
        self.slots = slots
        self.floors = Floors()
        self.starts = Floors()

    def open(self) -> None:
        """Build every Database and compile a Planner over it (timed)."""
        start = time.perf_counter()
        for slot in self.slots:
            slot.database = slot.build()
            Planner(slot.database)
        self.starts.add("start", time.perf_counter() - start)

    start_probe = open

    def cycle(self) -> None:
        for slot in self.slots:
            start = time.perf_counter()
            planner = Planner(slot.database)
            plan = planner.plan(slot.query)
            if slot.force:
                plan.strategy = slot.force
            answers, _ = planner.execute(plan)
            rows = oracle.rows_of(answers)
            seconds = time.perf_counter() - start
            self.floors.record(slot.name, seconds, rows == slot.expected)

    def close(self) -> None:
        pass


class OneShot:
    """``python -m repro scsg.dl -q ...``: import + parse + plan + evaluate."""

    _ROW = re.compile(r"^(\w+)\((.*)\)$")

    def __init__(self, text: str, slot: Slot):
        self.slot = slot
        self.program = _write("scsg.dl", text)
        self.floors = Floors()

    def probe(self) -> None:
        seconds, code, out = run_cli([str(self.program), "-q", self.slot.text])
        rows = sorted(m.group(2).split(", ")
                      for m in map(self._ROW.match, out.splitlines()) if m)
        self.floors.record("oneshot", seconds,
                           code == 0 and rows == self.slot.expected)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Result:
    workload: str
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    cycles: int
    span_s: float
    diagnostics: Dict[str, float]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def self_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def intent_problems(workload: str, ratios: Dict[str, float]) -> List[str]:
    """Is the traffic what the workload says it is?  (Cache hit ratios
    over the timed rounds, from STATS.)"""
    problems = []
    result, plan = ratios["result_cache"], ratios["plan_cache"]
    if workload == "serve-hot" and not result >= 0.99:
        problems.append(f"serve-hot result-cache hit ratio {result:.4f} < 0.99")
    if workload == "serve-cold":
        if result != 0:
            problems.append(f"serve-cold result-cache hit ratio {result:.4f} != 0")
        if not plan >= 0.99:
            problems.append(f"serve-cold plan-cache hit ratio {plan:.4f} < 0.99")
    return problems


def run_workload(inputs: Inputs, seconds: float) -> Result:
    """Measure one workload for about ``seconds`` and return its metrics."""
    name, scale = inputs.workload, inputs.scale
    reads: Optional[ReadLane] = None
    if inputs.schedule is not None:
        reads = ReadLane(name, inputs.serving.text, inputs.serving.first,
                         inputs.schedule,
                         scale.hot_rounds if name == "serve-hot" else 1)
    # As a side lane a round is short: two per cycle, for twice the samples.
    durable = DurableLane("rw", inputs.durable, 1 if name == "serve-rw" else 2)
    paper = PaperLane(inputs.paper)
    oneshot = OneShot(*inputs.oneshot)
    hot_burst = (BurstLane(reads.schedule, lambda: reads.server)
                 if name == "serve-hot" else None)
    lanes = [lane for lane in (reads, hot_burst, durable, paper) if lane]
    opened = [lane for lane in (reads, durable, paper) if lane]
    main = {"serve-rw": durable, "paper-batch": paper}.get(name, reads)
    # The slow probes, kinds interleaved, spread evenly over the window.
    # Every epoch's opening is a cold start too, so those need fewer.
    queue = [p for trio in zip_longest(
        [durable.recovery_probe] * scale.probes, [oneshot.probe] * scale.probes,
        [main.start_probe] * (scale.probes // 2)) for p in trio if p]
    gap = seconds / (len(queue) + 1)
    spent: Dict[str, float] = {}

    def lap(label: str, fn: Callable[[], None]) -> None:
        start = time.perf_counter()
        fn()
        spent[label] = spent.get(label, 0.0) + time.perf_counter() - start

    # Set-up is over: keep the collector away from the fixtures while timing.
    gc.collect()
    gc.freeze()
    began = time.perf_counter()
    began_host = host.snapshot()
    ran = cycles = 0
    try:
        for epoch in range(1, scale.epochs + 1):
            for lane in opened:
                lap("spent.open_s", lane.open)
            in_epoch = 0
            while True:
                for lane in lanes:
                    lap(f"spent.{type(lane).__name__}_s", lane.cycle)
                cycles += 1
                in_epoch += 1
                elapsed = time.perf_counter() - began
                if ran < len(queue) and elapsed >= gap * (ran + 1):
                    lap("spent.probes_s", queue[ran])
                    ran += 1
                if (elapsed >= seconds * epoch / scale.epochs
                        and in_epoch * scale.epochs >= scale.min_cycles):
                    break
            for lane in opened:
                lane.close()
        for probe in queue[ran:]:
            lap("spent.probes_s", probe)
        span = time.perf_counter() - began
        result = _collect(name, main, reads, hot_burst, durable, paper,
                          oneshot, cycles, span)
        result.diagnostics.update(spent)
        result.diagnostics.update(host.since(began_host))
        return result
    finally:
        Server.kill_all()
        gc.unfreeze()


def _read_metrics(floors: Floors, is_query=None) -> Dict[str, float]:
    every = floors.floors()
    queries = floors.floors(is_query)
    return {
        "qps": len(every) / sum(every),
        "query_p50_ms": statistics.median(queries) * 1e3,
        "query_p95_ms": percentile(queries, 95) * 1e3,
    }


def _collect(name, main, reads, hot_burst, durable, paper, oneshot,
             cycles, span) -> Result:
    problems = list(durable.problems)
    nan = float("nan")
    # Throughput and latency: the main schedule (paper-batch has no
    # server of its own, so its figures are the side lane's).
    if reads is not None:
        metrics = _read_metrics(reads.floors)
        served = reads.floors
        problems += intent_problems(name, reads.cache_ratios())
    else:
        metrics = _read_metrics(durable.floors, durable.verbs("QUERY"))
        served = durable.floors
    burst = (hot_burst or durable.burst).floors.floor("burst")
    writes = durable.floors.floors(durable.verbs("FACT", "RETRACT"))
    stall = durable.floors.floor(durable.checkpoint_slot())
    metrics.update({
        "pipe_qps": BURST / burst if burst else nan,
        "write_p50_ms": statistics.median(writes) * 1e3 if writes else nan,
        "ckpt_stall_ms": stall * 1e3 if stall else nan,
        "recovery_s": durable.recoveries.floor("recover") or nan,
        "disk_amp": durable.disk_bytes / durable.fixture.kill_fact_bytes,
        "batch_s": sum(paper.floors.floors()),
        "oneshot_s": oneshot.floors.floor("oneshot") or nan,
        "setup_s": main.starts.floor("start") or nan,
        "peak_rss_mb": self_rss_mb() if main is paper else main.peak_rss_mb,
    })
    every = [f for f in (
        reads and reads.floors, reads and reads.starts,
        hot_burst and hot_burst.floors, durable.floors, durable.starts,
        durable.recoveries, durable.burst.floors, paper.floors, paper.starts,
        oneshot.floors) if f]
    raw = served.raw()
    return Result(
        workload=name, metrics=metrics,
        attempted=sum(f.attempted for f in every),
        failed=sum(f.failures for f in every),
        problems=problems, cycles=cycles, span_s=span,
        diagnostics={
            "host.raw_p50_ms": statistics.median(raw) * 1e3,
            "host.raw_p99_ms": percentile(raw, 99) * 1e3,
            "host.noise_ratio": served.noise_ratio(),
            "rounds": float(served.rounds()),
        })
