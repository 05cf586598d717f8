#!/usr/bin/env python
"""IVM benchmark: cache repair vs evict-and-recompute under live writes.

The serving claim behind ``repro.ivm``: a session with ``ivm=True``
keeps its cached results *warm across mutations* — each committed
write triggers one incremental maintenance run (semi-naive insert
propagation, counting/DRed deletion) plus an O(delta) patch of every
cached answer set, after which reads are cache hits again.  A session
without views evicts every cached answer a write reaches; every write
here lands in the ``sg`` closure, so every cached query pays a full
re-evaluation after every mutation.

The workload is a sustained mixed write+read stream over the paper's
``sg`` family database: each round commits one mutation into the
query closure (alternating insert/retract so the database does not
drift), then replays a fixed set of previously-cached queries —
the read:write ratio a subscription-serving deployment actually sees.
A second case commits each round's writes as one ``apply_batch`` to
measure batched maintenance.

Answers are verified identical between the two sessions and a cold
planner after the storm; the script exits non-zero on any mismatch,
and ``--min-speedup`` turns the wall-clock ratio into a CI gate
(the acceptance bar is >= 10x in full mode; the CI gate runs quick
mode at a conservative 5x).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_ivm.py [--quick] \
        [--min-speedup N] [--out FILE] [--update-baseline]

``BENCH_ivm.json`` in the repository root holds committed quick+full
runs in the same ``{"benchmark": ..., "runs": {mode: report}}`` layout
``benchmarks/regress.py`` uses for the engine baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.planner import Planner
from repro.engine.database import Database
from repro.service import QuerySession
from repro.workloads import SG, FamilyConfig, family_database

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_ivm.json"

#: parents_per_child=2 keeps the sg closure dense enough that every
#: mutation actually perturbs it; sibling_fraction=1.0 gives each
#: second-from-top pair a sibling edge (the sg seed rows).
CONFIG = FamilyConfig(
    levels=5,
    width=12,
    parents_per_child=2,
    countries=2,
    seed=11,
    sibling_fraction=1.0,
)

#: One open scan plus bound probes: the shapes a SUBSCRIBE-serving
#: deployment keeps hot.  All share the sg closure, so every mutation
#: below invalidates (or repairs) all of them.
QUERY_COUNT = 16


def build_database() -> Database:
    return family_database(CONFIG, program=SG)


def queries() -> List[str]:
    probes = [f"sg(p0_{i}, Y)" for i in range(CONFIG.width)]
    probes += [f"sg(p1_{i}, Y)" for i in range(CONFIG.width)]
    return (["sg(X, Y)"] + probes)[:QUERY_COUNT]


def mutation_stream(rounds: int) -> List[Tuple[str, str, Tuple[str, str]]]:
    """Alternating insert/retract of fresh parent edges into the sg
    closure: odd rounds retract what the previous round added, so the
    database ends every pair of rounds where it started and wall times
    stay comparable across rounds."""
    ops: List[Tuple[str, str, Tuple[str, str]]] = []
    for r in range(rounds):
        if r % 2 == 0:
            ops.append(("add", "parent", (f"x{r}", "p1_0")))
        else:
            ops.append(("retract", "parent", (f"x{r - 1}", "p1_0")))
    return ops


def batch_stream(
    rounds: int,
) -> List[List[Tuple[str, str, Tuple[str, str]]]]:
    """Two-write batches: even rounds insert a pair of fresh parent
    edges, odd rounds retract that pair — per-batch the writes are
    disjoint (they do not net out), per round-pair the database is
    restored."""
    batches: List[List[Tuple[str, str, Tuple[str, str]]]] = []
    for r in range(rounds):
        tag = r if r % 2 == 0 else r - 1
        op = "add" if r % 2 == 0 else "retract"
        batches.append(
            [
                (op, "parent", (f"x{tag}a", "p1_0")),
                (op, "parent", (f"x{tag}b", "p1_1")),
            ]
        )
    return batches


def drive(
    session: QuerySession,
    ops: List,
    query_set: List[str],
    batched: bool,
) -> float:
    """One timed storm: mutations interleaved with the read replay.
    Returns wall milliseconds."""
    start = time.perf_counter()
    if batched:
        for batch in ops:
            session.apply_batch(batch)
            for query in query_set:
                session.answer_rows(query)
    else:
        for op, name, row in ops:
            if op == "add":
                session.add_fact(name, row)
            else:
                session.retract_fact(name, row)
            for query in query_set:
                session.answer_rows(query)
    return (time.perf_counter() - start) * 1000


def check_parity(
    ivm: QuerySession, base: QuerySession, db: Database, query_set: List[str]
) -> int:
    """Both sessions and a cold planner agree on every query; returns
    the total answer count (a deterministic workload fingerprint)."""
    total = 0
    cold = Planner(db)
    for query in query_set:
        warm = sorted(map(str, ivm.answer_rows(query)))
        flushed = sorted(map(str, base.answer_rows(query)))
        scratch = sorted(map(str, cold.answer_rows(query)))
        if warm != flushed or warm != scratch:
            raise AssertionError(
                f"answer mismatch on {query!r}: ivm={len(warm)} "
                f"flush={len(flushed)} cold={len(scratch)}"
            )
        total += len(warm)
    return total


def run_case(name: str, rounds: int, batched: bool) -> Dict[str, object]:
    db = build_database()
    ivm_session = QuerySession(db.copy(), ivm=True)
    base_session = QuerySession(db.copy())
    query_set = queries()
    for query in query_set:  # prime plan + result caches (and views)
        ivm_session.answer_rows(query)
        base_session.answer_rows(query)
    ops = batch_stream(rounds) if batched else mutation_stream(rounds)
    ivm_wall = drive(ivm_session, ops, query_set, batched)
    base_wall = drive(base_session, ops, query_set, batched)
    answers = check_parity(
        ivm_session, base_session, ivm_session.database, query_set
    )
    stats = ivm_session.stats()["ivm"]
    return {
        "case": name,
        "rounds": rounds,
        "queries_per_round": len(query_set),
        "answers": answers,
        "ivm": {
            "wall_ms": round(ivm_wall, 3),
            "maintenance_runs": stats["maintenance_runs"],
            "repairs": stats["repairs"],
            "rederivations": stats["rederivations"],
            "view_serves": stats["view_serves"],
        },
        "baseline": {"wall_ms": round(base_wall, 3)},
        "speedup": round(base_wall / max(ivm_wall, 1e-9), 2),
    }


def run_bench(quick: bool) -> Dict[str, object]:
    rounds = 4 if quick else 12
    return {
        "benchmark": "ivm: incremental cache repair vs flush-and-recompute",
        "quick": quick,
        "python": sys.version.split()[0],
        "cases": [
            run_case("mixed_stream", rounds, batched=False),
            run_case("batched_stream", rounds, batched=True),
        ],
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
        help="fewer mutation rounds (CI smoke; parity still verified)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero unless every case's repair-vs-flush speedup "
        "meets this bar (CI gate; the full-mode acceptance target is 10)",
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
        print(f"parity failure: {error}", file=sys.stderr)
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
    if args.min_speedup is not None:
        slow = [
            case
            for case in report["cases"]
            if case["speedup"] < args.min_speedup
        ]
        for case in slow:
            print(
                f"{case['case']}: speedup {case['speedup']}x below the "
                f"{args.min_speedup}x gate",
                file=sys.stderr,
            )
        if slow:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
