"""The metric catalogue: every name the ledger may print.

``BENCHMARK.json`` at the repo root is generated from (and tested
against) this module, so a metric exists in exactly one place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

DEFAULT_SEED = 1992
#: Seconds one contract run measures (``BENCHMARK.json`` run_seconds).
RUN_SECONDS = 28

WORKLOADS: Dict[str, str] = {
    "serve-hot": (
        "256 Zipf slots over 64 cached sg/scsg/travel queries: all time is "
        "in service (wire, dispatch, worker hop, serialize), the engine idles"
    ),
    "serve-cold": (
        "512 distinct sg/scsg/travel probes cycled through a 256-entry result "
        "cache: core and engine dominate, working set is 2x the cache"
    ),
    "serve-rw": (
        "durable IVM server, FACT+QUERY then RETRACT rounds with a "
        "checkpoint on each round's last write, then SIGKILL and recovery"
    ),
    "paper-batch": (
        "in-process Planner on the paper's E1-E9 query set, fresh Planner "
        "per slot: datalog, analysis, core, engine with no service layer"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float]  # end-to-end only
    definition: str
    #: Workloads whose *main* lane produces the metric.  On the others
    #: it comes from the small side lane every run carries (README).
    primary: Tuple[str, ...] = ()

    def entry(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "unit": self.unit,
            "better": self.better,
        }
        if self.bound is not None:
            out["bound"] = self.bound
        return out


_SERVE = ("serve-hot", "serve-cold", "serve-rw")
_ALL = _SERVE + ("paper-batch",)

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25,
           "floor over the run's cold starts: spawn -> banner -> first "
           "correct reply (paper-batch: build every Database in-process)",
           _ALL),
    Metric("qps", "1/s", "higher", 0.25,
           "slots / sum of floor(slot): quiet-host closed-loop throughput "
           "of one pass over the schedule", _SERVE),
    Metric("query_p50_ms", "ms", "lower", 0.25,
           "median over QUERY slots of floor(slot)", _SERVE),
    Metric("query_p95_ms", "ms", "lower", 0.25,
           "95th percentile over QUERY slots of floor(slot)", _SERVE),
    Metric("pipe_qps", "1/s", "higher", 0.10,
           "32 / floor of a 32-request pipelined burst of cache-hit QUERYs "
           "(one socket write, 32 reads)", ("serve-hot",)),
    Metric("write_p50_ms", "ms", "lower", 0.25,
           "median over FACT/RETRACT slots of floor(slot): ack latency "
           "with WAL + IVM", ("serve-rw",)),
    Metric("ckpt_stall_ms", "ms", "lower", 0.25,
           "floor of the write slot that triggers the count-based "
           "checkpoint", ("serve-rw",)),
    Metric("recovery_s", "s", "lower", 0.25,
           "floor over restarts on byte-identical copies of the SIGKILLed "
           "store: spawn -> first correct reply", ("serve-rw",)),
    Metric("disk_amp", "ratio", "lower", 0.01,
           "bytes under --data-dir at kill time / bytes of acknowledged "
           "fact text (exact)", ("serve-rw",)),
    Metric("batch_s", "s", "lower", 0.25,
           "sum of floor(slot) over the paper query set",
           ("paper-batch",)),
    Metric("oneshot_s", "s", "lower", 0.25,
           "floor over CLI invocations `python -m repro scsg.dl -q ...` "
           "(import + parse + plan + evaluate)", ("paper-batch",)),
    Metric("peak_rss_mb", "MB", "lower", 0.05,
           "VmHWM summed over the main server's process tree (the harness "
           "itself on paper-batch)", _ALL),
]

STRATEGIES = (
    "semi_naive", "magic_sets", "chain_split_magic_sets", "counting",
    "chain_following", "buffered_chain_split", "partial_chain_split",
    "nested_chain_split", "top_down_deferred",
)


def _layer(name: str, unit: str, better: str, definition: str) -> Metric:
    return Metric(name, unit, better, None, definition)


PER_LAYER: List[Metric] = [
    # -- timings: floors of public calls, timed from the harness -------
    _layer("datalog.parse_query_us", "us", "lower", "parse_query per distinct query"),
    _layer("datalog.parse_program_ms", "ms", "lower", "parse_program on the workload's program text"),
    _layer("analysis.compile_ms", "ms", "lower", "Planner(database) plus the first plan of each query shape"),
    _layer("core.plan_us", "us", "lower", "Planner.plan on an analysed planner, mean over the workload's distinct queries"),
    _layer("core.execute_ms", "ms", "lower", "Planner.execute, mean over the workload's distinct queries"),
    _layer("engine.add_fact_us", "us", "lower", "Database.add_fact, no WAL, no views"),
    _layer("engine.fixpoint_ms", "ms", "lower", "SemiNaiveEvaluator.evaluate on the durable lane's EDB"),
    _layer("ivm.build_ms", "ms", "lower", "ViewManager.rebuild with the lane's views registered"),
    _layer("ivm.insert_ms", "ms", "lower", "add_fact with views attached minus without"),
    _layer("ivm.retract_ms", "ms", "lower", "retract_fact with views attached minus without"),
    _layer("ivm.repair_ms", "ms", "lower", "QuerySession.execute on a cached shape right after a mutation"),
    _layer("persist.append_us", "us", "lower", "WriteAheadLog.append (fsync interval)"),
    _layer("persist.checkpoint_ms", "ms", "lower", "PersistenceManager.checkpoint on the durable lane's EDB"),
    _layer("persist.recover_ms", "ms", "lower", "recover_database on a WAL-only store"),
    _layer("persist.replay_records_per_s", "1/s", "higher", "records / recover_database seconds on that store"),
    _layer("service.session_hit_us", "us", "lower", "QuerySession.execute on a result-cache hit"),
    _layer("service.session_miss_us", "us", "lower", "QuerySession.execute miss minus the plan and execute calls inside it"),
    _layer("service.wire_us", "us", "lower", "--workers 0 RTT floor minus in-process session hit floor"),
    _layer("service.worker_hop_us", "us", "lower", "--workers 1 RTT floor minus --workers 0 RTT floor"),
    _layer("service.threaded_wire_us", "us", "lower", "service.wire_us measured under --threaded"),
    _layer("service.pipe_gap_us", "us", "lower", "burst floor / 32 minus serial RTT floor"),
    _layer("observe.reqlog_tax_us", "us", "lower", "RTT floor, default minus --reqlog-size 0"),
    _layer("import.repro_ms", "ms", "lower", "subprocess `import repro` minus a bare interpreter start"),
    # -- counts: must repeat exactly --------------------------------
    *[
        _layer(f"core.strategy_mix.{s}", "count", "lower",
               f"distinct workload queries planned as {s}")
        for s in STRATEGIES
    ],
    _layer("core.split_decisions", "count", "lower", "plans whose ChainSplitDecision split at least one path"),
    _layer("engine.tuples_derived", "count", "lower", "Counters.derived_tuples over one pass"),
    _layer("engine.total_work", "count", "lower", "Counters.total_work over one pass"),
    _layer("engine.peak_intermediate", "count", "lower", "max Counters.peak_intermediate over one pass"),
    _layer("engine.rounds", "count", "lower", "Counters.iterations over one pass"),
    _layer("engine.work_per_answer", "ratio", "lower", "total_work / answers returned"),
    _layer("ivm.delta_rows", "count", "lower", "derived rows changed per durable-lane round (views' net deltas)"),
    _layer("persist.bytes_per_record", "B", "lower", "WAL bytes / WAL records at kill time"),
    _layer("persist.snapshot_bytes", "B", "lower", "size of the newest snapshot at kill time"),
    _layer("service.reply_bytes", "B", "lower", "wire reply bytes over one pass of the main schedule"),
    _layer("service.result_cache_hit_ratio", "ratio", "higher", "STATS result_cache hits / lookups after the timed rounds"),
    _layer("service.plan_cache_hit_ratio", "ratio", "higher", "STATS plan_cache hits / lookups after the timed rounds"),
    _layer("service.unattributed_us", "us", "lower", "client floor per request minus the sum of layer self-times"),
    _layer("service.coverage_ratio", "ratio", "higher", "sum of layer self-times / client-observed floor pass"),
    _layer("trace.overhead_ratio", "ratio", "lower", "traced pass floor / untraced pass floor"),
    _layer("trace.spans", "count", "lower", "spans written to the Chrome trace"),
    # -- host diagnostics: unbounded, never compared ----------------
    _layer("host.raw_p50_ms", "ms", "lower", "median of raw (non-floor) main-lane latencies"),
    _layer("host.raw_p99_ms", "ms", "lower", "p99 of raw main-lane latencies"),
    _layer("host.noise_ratio", "ratio", "lower", "sum of per-slot raw medians / sum of floors"),
    _layer("host.nproc", "count", "higher", "os.cpu_count()"),
    _layer("host.load1", "ratio", "lower", "1-minute load average at start"),
]

E2E_NAMES = [m.name for m in END_TO_END]


def benchmark_json() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [m.entry() for m in END_TO_END],
        "per_layer": [m.entry() for m in PER_LAYER],
    }
