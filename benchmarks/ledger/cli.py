"""Command line of the ledger.

Contract mode (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/ledger/run.py --workload serve-hot --seed 7 \\
        --seconds 25 --trace 0

prints a human-readable report and, as the last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).

Without ``--workload`` all four workloads run in turn.  ``--repeat N``
runs the whole benchmark N times and reports the spread per (workload,
metric); ``--smoke`` is a tiny variant for CI; ``--list`` prints the
catalogue exactly as ``BENCHMARK.json`` holds it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import host, serving, spec
from .estimator import spread


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long one workload measures (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: time the calls into each layer and print the "
                        "per-layer metrics (writes a Chrome trace)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny EDBs, 2 rounds, under 20 s for all workloads")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run everything N times and report the spread; "
                        "exit non-zero past a metric's bound")
    parser.add_argument("--out", metavar="FILE",
                        help="with --repeat: also write the runs and spreads as JSON")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics as BENCHMARK.json holds them")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected/seed-<seed>.json from the oracle")
    return parser


def _reexec_disciplined() -> None:
    """Re-exec once with a fixed hash seed and no address randomization.

    PYTHONHASHSEED=0 makes set order, and with it evaluation order,
    the same in every run.  ADDR_NO_RANDOMIZE (inherited by every
    server the harness spawns) takes away the per-process luck of
    memory layout, worth 5-7% on a 0.2 ms request here.
    """
    if os.environ.get("PYTHONHASHSEED") == "0" or not hasattr(sys, "orig_argv"):
        return
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        import ctypes

        ctypes.CDLL(None).personality(0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass  # not Linux, or filtered: keep going with ASLR on
    os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


def _pin_cpu() -> None:
    """Keep the harness and every child (they inherit the mask) on one CPU.

    A closed-loop request ping-pongs between client, event loop and
    worker; left to the scheduler its floor wanders between 0.21 and
    0.45 ms from one second to the next on a 2-core host, depending on
    where the three land.  On one CPU it holds within a few percent,
    and there is no parallelism to lose with one client and one worker.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """One workload, one mode -> (result dict for the contract line, text)."""
    from . import expected, fixtures, lanes, layers

    inputs = fixtures.build_inputs(
        workload, seed, fixtures.SMOKE if smoke else fixtures.FULL)
    pinned = expected.check(inputs)
    if trace:
        outcome = layers.run_layers(inputs, seconds)
    else:
        outcome = lanes.run_workload(inputs, seconds)
    if pinned:
        outcome.problems.append(pinned)
    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    units = {m.name: m.unit for m in catalogue}
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    for name, value in outcome.metrics.items():
        if not math.isfinite(value):  # JSON has no NaN; the run is void anyway
            outcome.problems.append(f"{name} has no value")
            outcome.metrics[name] = 0.0
    return outcome, {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units},
    }


def report(outcome, trace: int) -> str:
    catalogue = {m.name: m for m in (spec.PER_LAYER if trace else spec.END_TO_END)}
    lines = [f"== {outcome.workload}: {outcome.cycles} cycles over "
             f"{outcome.span_s:.1f} s, {outcome.attempted} operations, "
             f"{outcome.failed} failed =="]
    for name, value in outcome.metrics.items():
        metric = catalogue[name]
        mark = ""
        if not trace:
            mark = "" if outcome.workload in metric.primary else "  (side lane)"
        lines.append(f"  {name:34s} {value:14.4f} {metric.unit}{mark}")
    for name, value in outcome.diagnostics.items():
        lines.append(f"  {name:34s} {value:14.4f}  (diagnostic)")
    for problem in outcome.problems:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def repeat(args) -> int:
    """Whole benchmark N times; spread per (workload, end-to-end metric)."""
    runs: List[Dict[str, Dict[str, float]]] = []
    ok = True
    for index in range(args.repeat):
        run: Dict[str, Dict[str, float]] = {}
        for workload in spec.WORKLOADS:
            outcome, _ = run_one(workload, args.seed + index, args.seconds, 0, args.smoke)
            ok &= outcome.correct
            run[workload] = dict(outcome.metrics)
            print(report(outcome, 0), flush=True)
        runs.append(run)
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    print(f"\n{'workload':12s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'range/med':>9s} {'worst':>7s} {'bound':>6s}")
    for workload in spec.WORKLOADS:
        for name, bound in bounds.items():
            stats = spread(run[workload][name] for run in runs)
            table.setdefault(workload, {})[name] = stats
            past = stats["worst_rel"] > bound  # a run beyond the bound of its set's median
            ok &= not past
            print(f"{workload:12s} {name:14s} {stats['median']:12.4f} "
                  f"{stats['q1']:12.4f} {stats['q3']:12.4f} {stats['iqr_rel']:8.4f} "
                  f"{stats['range_rel']:9.4f} {stats['worst_rel']:7.4f} {bound:6.2f}"
                  f"{'  PAST BOUND' if past else ''}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host.info(), "seconds": args.seconds, "seed": args.seed,
             "runs": runs, "spread": table}, indent=1) + "\n")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if argv is None:
        _reexec_disciplined()
        _pin_cpu()
    if not (serving.SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {serving.SRC / 'repro'} is missing")
    if args.update_expected:
        from . import expected, fixtures

        path = expected.update(
            args.seed, fixtures.SMOKE if args.smoke else fixtures.FULL)
        print(f"wrote {path}")
        return 0
    if args.smoke and args.seconds == spec.RUN_SECONDS:
        args.seconds = 2.0
    print(f"host: {json.dumps(host.info())}", flush=True)
    if args.repeat:
        if args.repeat < 2:
            raise SystemExit("--repeat needs at least 2 runs")
        return repeat(args)
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    ok = True
    line = None
    for workload in workloads:
        outcome, line = run_one(workload, args.seed, args.seconds, args.trace, args.smoke)
        ok &= outcome.correct
        print(report(outcome, args.trace), flush=True)
    if args.workload:
        print(json.dumps(line))
    return 0 if ok else 1
