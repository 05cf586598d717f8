#!/usr/bin/env python
"""Event-loop benchmark: idle connections are cheap.

The selectors loop behind ``repro.service.eventloop`` holds a thousand
idle sockets without a thread each; the case opens them, then measures
probe latency through the crowd and the server-side thread count.
(Query throughput and the worker pipe hop are the ledger's lanes:
serve-cold ``qps``, ``service.wire_us`` and ``service.worker_hop_us``
in ``benchmarks/ledger/``.)

Run standalone::

    PYTHONPATH=src python benchmarks/bench_async.py [--quick] \
        [--out FILE] [--update-baseline]

``BENCH_async.json`` in the repository root holds committed runs in
the same ``{"benchmark": ..., "runs": {mode: report}}`` layout the
other benchmark baselines use.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import AsyncQueryServer, QuerySession
from repro.service.workers import fork_available
from repro.workloads import SG, FamilyConfig, family_database

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_async.json"

CONFIG = FamilyConfig(
    levels=5,
    width=12,
    parents_per_child=2,
    countries=2,
    seed=11,
    sibling_fraction=1.0,
)


def build_session() -> QuerySession:
    return QuerySession(family_database(CONFIG, program=SG))


def run_idle_case(connections: int) -> Dict[str, object]:
    probes = 20
    with AsyncQueryServer(build_session(), workers=0) as srv:
        idle: List[socket.socket] = []
        try:
            for _ in range(connections):
                idle.append(
                    socket.create_connection(srv.address, timeout=30)
                )
            threads_active = threading.active_count()
            probe = socket.create_connection(srv.address, timeout=30)
            probe.settimeout(30)
            handle = probe.makefile("rw", encoding="utf-8")
            start = time.perf_counter()
            for _ in range(probes):
                handle.write("QUERY sg(p0_0, Y)\n")
                handle.flush()
                reply = json.loads(handle.readline())
                if not reply.get("ok"):
                    raise AssertionError("probe failed through idle crowd")
            probe_ms = (time.perf_counter() - start) * 1000 / probes
            probe.close()
        finally:
            for sock in idle:
                sock.close()
    return {
        "case": "idle_connections",
        "connections": connections,
        "probe_ms": round(probe_ms, 3),
        "threads_active": threads_active,
    }


def run_bench(quick: bool) -> Dict[str, object]:
    idle = 300 if quick else 1000
    return {
        "benchmark": "async: idle connections on the event loop",
        "quick": quick,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "fork": fork_available(),
        "cases": [run_idle_case(idle)],
    }


def update_baseline(path: Path, quick: bool, report: Dict[str, object]) -> None:
    """Write ``report`` into its mode slot, regress.py baseline layout."""
    existing: Dict[str, object] = {}
    if path.exists():
        existing = json.loads(path.read_text())
    runs = existing.get("runs")
    if not isinstance(runs, dict):
        runs = {}
    runs["quick" if quick else "full"] = report
    out = {
        "benchmark": report["benchmark"],
        "runs": {mode: runs[mode] for mode in sorted(runs)},
    }
    path.write_text(json.dumps(out, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="300 idle connections instead of 1000 (CI smoke)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report to this file (default: stdout only)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"write this mode's run into {DEFAULT_BASELINE.name}",
    )
    args = parser.parse_args(argv)

    try:
        report = run_bench(args.quick)
    except AssertionError as error:
        print(f"workload failure: {error}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    if args.update_baseline:
        update_baseline(DEFAULT_BASELINE, args.quick, report)
        print(
            f"baseline updated: {DEFAULT_BASELINE} "
            f"[{'quick' if args.quick else 'full'}]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
