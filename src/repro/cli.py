"""Command-line interface: load a program, run queries, serve.

Usage::

    python -m repro program.pl -q "sg(ann, Y)"          # batch query
    python -m repro program.pl -q "..." --explain       # show the plan
    python -m repro program.pl -q "..." --stats         # work counters
    python -m repro program.pl -q "..." --proof         # derivation tree
    python -m repro program.pl -q "..." --trace         # EXPLAIN report
    python -m repro program.pl -q "..." --profile       # span profile
    python -m repro program.pl -q "..." --metrics       # Prometheus text
    python -m repro program.pl                          # REPL
    python -m repro program.pl --serve --port 8473      # TCP query server
    python -m repro program.pl --serve --record cap.jsonl   # + capture
    python -m repro replay cap.jsonl --pacing recorded  # deterministic replay
    python -m repro program.pl --serve --data-dir ./state   # durable store
    python -m repro recover ./state --verify            # inspect/verify it

Every mode runs through one :class:`~repro.service.QuerySession`, so
repeated queries (REPL lines, stacked ``-q`` flags, server requests)
hit the plan and result caches instead of re-planning from scratch.

REPL commands::

    ?- sg(ann, Y).        evaluate a query
    :plan sg(ann, Y)      show the plan without running it
    :proof sg(ann, Y)     print the first answer's proof tree
    :trace sg(ann, Y)     evaluate with tracing; print the EXPLAIN report
    :profile sg(ann, Y)   evaluate with span profiling; print the report
    :retract f(a, b)      remove a stored fact
    :slowlog              print retained slow queries (:slowlog clear)
    :facts                list stored relations
    :stats                print the session's service metrics
    :metrics              print the metrics in Prometheus text format
    :dot                  dump the dependency graph as Graphviz DOT
    :help                 list these commands
    :quit                 exit
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, List, Optional, Sequence

from .engine.database import Database
from .engine.proofs import ProofTracer
from .core.planner import PlanningError
from .service import AsyncQueryServer, QuerySession

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chain-split deductive database engine (Han, ICDE 1992)",
    )
    parser.add_argument(
        "program",
        nargs="?",
        help="program file (Prolog-style rules and facts); omit to start "
        "with an empty database",
    )
    parser.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        help="query to run (repeatable); without any -q a REPL starts",
    )
    parser.add_argument(
        "--explain", action="store_true", help="print the chosen plan"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print evaluation work counters"
    )
    parser.add_argument(
        "--proof",
        action="store_true",
        help="print a derivation tree for the first answer (top-down)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="evaluate with tracing on and print the EXPLAIN report "
        "(per-round delta sizes, observed-vs-predicted expansion ratios, "
        "split check)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="FILE",
        help="with --trace: also dump the last trace report as JSON "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="evaluate with span profiling on and print the per-rule/"
        "per-stage wall-clock attribution report",
    )
    parser.add_argument(
        "--profile-json",
        metavar="FILE",
        help="with --profile: also dump the last profile report (with the "
        "Chrome-trace events, loadable in Perfetto) as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="profile every evaluated query and retain those at or over "
        "this many milliseconds in the slow-query log (REPL :slowlog, "
        "server SLOWLOG verb and GET /slowlog)",
    )
    parser.add_argument(
        "--reqlog-size",
        type=int,
        default=256,
        metavar="N",
        help="flight-recorder ring size: retain the last N per-request "
        "stage timelines (REQLOG verb and GET /reqlog; 0 disables, "
        "default 256)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines (one object per line) on "
        "stderr instead of the human-readable format",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="log verbosity for the serving stack (default warning; "
        "request dispatch logs at debug, cancellations and worker "
        "respawns at info)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="after the queries, print the session metrics in Prometheus "
        "text exposition format",
    )
    parser.add_argument(
        "--facts",
        action="append",
        default=[],
        metavar="PRED=FILE.csv",
        help="load facts for a predicate from a CSV file (repeatable)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=10_000,
        help="chain-evaluation depth budget (default 10000)",
    )
    parser.add_argument(
        "--max-tuples",
        type=int,
        default=None,
        metavar="N",
        help="resource budget: abort any query deriving more than N tuples",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        metavar="N",
        help="resource budget: abort after N fixpoint rounds / chain "
        "descent levels (resolution steps for top-down)",
    )
    parser.add_argument(
        "--max-live",
        type=int,
        default=None,
        metavar="N",
        help="resource budget: abort when more than N substitutions are "
        "live at once",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="resource budget: abort any single evaluation after this "
        "much wall-clock time",
    )
    parser.add_argument(
        "--ivm",
        action="store_true",
        help="incremental view maintenance: repair the cached results a "
        "FACT/RETRACT reaches in place instead of evicting them, and let "
        "--serve clients SUBSCRIBE to derived predicates",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serve queries over TCP (QUERY/PLAN/FACT/STATS line protocol) "
        "instead of running a REPL",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --serve (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8473,
        help="port for --serve (default 8473; 0 picks a free port)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock budget for --serve (default: none)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission control for --serve: shed heavy requests beyond N "
        "in flight with OVERLOADED replies (default 64; 0 disables)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close --serve connections whose peer stays silent this long",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluator worker processes for --serve heavy verbs "
        "(default: one per CPU core where fork is available, else 0; "
        "0 evaluates in-process)",
    )
    parser.add_argument(
        "--threaded",
        action="store_true",
        help=argparse.SUPPRESS,  # deprecated spelling of --workers 0
    )
    parser.add_argument(
        "--push-backlog",
        type=int,
        default=1_048_576,
        metavar="BYTES",
        help="per-subscriber cap on buffered DELTA bytes; a consumer "
        "that falls further behind is dropped (default 1MiB)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="trip the circuit breaker after N consecutive budget blowouts "
        "on one query shape (default 3; 0 disables)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long a tripped circuit stays open before a probe "
        "(default 5)",
    )
    parser.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="with --serve: snapshot the EDB and record every completed "
        "request to this replayable JSONL archive (see 'repro replay'); "
        "RECORD STOP or server shutdown closes it",
    )
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="durable store: write-ahead-log every committed mutation "
        "under DIR and, on startup, restore the latest snapshot and "
        "replay the WAL tail (see 'repro recover'); with an existing "
        "store, --program/--facts are skipped — state comes from "
        "recovery",
    )
    parser.add_argument(
        "--fsync",
        choices=["always", "interval", "off"],
        default="interval",
        help="WAL fsync policy for --data-dir: always = fsync every "
        "record (power-loss durable, slowest), interval = fsync at most "
        "every --fsync-interval seconds (default), off = OS page cache "
        "only; every policy survives process kills, the policy only "
        "bounds what a power loss can take",
    )
    parser.add_argument(
        "--fsync-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="with --fsync interval: maximum age of unsynced WAL records "
        "(default 0.05)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=4096,
        metavar="N",
        help="checkpoint the --data-dir store (cut a snapshot, truncate "
        "fully-covered WAL segments) every N logged mutations "
        "(default 4096)",
    )
    parser.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=4 * 1024 * 1024,
        metavar="BYTES",
        help="rotate --data-dir WAL segments at this size (default 4MiB)",
    )
    return parser


def build_replay_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro replay <archive>`` subcommand."""
    from .observe.replay import PACINGS

    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="Replay a captured workload archive against a fresh "
        "in-process server (or a live one with --target), check response "
        "digest parity, and report recorded-vs-replayed latency "
        "distributions per verb and per plan shape.",
    )
    parser.add_argument("archive", help="JSONL archive written by RECORD/--record")
    parser.add_argument(
        "--pacing",
        choices=PACINGS,
        default="max",
        help="recorded = honor captured arrival offsets, accelerated = "
        "divide them by --speed, max = back-to-back (default)",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=10.0,
        metavar="FACTOR",
        help="time-compression factor for --pacing accelerated (default 10)",
    )
    parser.add_argument(
        "--target",
        default=None,
        metavar="HOST:PORT",
        help="replay over the wire against a live server (which must "
        "already hold the archive's EDB state) instead of in-process",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        metavar="RATIO",
        help="replayed/recorded p50 ratio above which a row is flagged "
        "REGRESSION (default 1.5)",
    )
    parser.add_argument(
        "--min-delta-us",
        type=float,
        default=500.0,
        metavar="US",
        help="absolute p50 delta a REGRESSION verdict also requires "
        "(default 500us; filters scheduler noise on microsecond verbs)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the JSON replay report to this file",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero on latency REGRESSION verdicts too, not just "
        "digest parity mismatches",
    )
    return parser


def _replay_main(argv: Sequence[str], out: IO[str]) -> int:
    args = build_replay_parser().parse_args(argv)
    from .observe import render_replay_report, replay_archive

    try:
        report = replay_archive(
            args.archive,
            pacing=args.pacing,
            speed=args.speed,
            target=args.target,
            tolerance=args.tolerance,
            min_delta_us=args.min_delta_us,
        )
    except (OSError, ValueError, ConnectionError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(render_replay_report(report), file=out)
    if args.out is not None:
        try:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=out)
            return 2
    if not report["ok"]:
        print(
            f"replay FAILED: {report['parity']['mismatched']} digest "
            "mismatch(es)",
            file=out,
        )
        return 1
    if args.fail_on_regression and report["regressions"]:
        print(
            f"replay latency: {report['regressions']} REGRESSION verdict(s)",
            file=out,
        )
        return 1
    return 0


def build_recover_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro recover <data-dir>`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro recover",
        description="Inspect a --data-dir durable store without serving: "
        "restore the latest valid snapshot, replay the WAL tail, and "
        "report what a restart would recover.  Read-only — safe to run "
        "against the store a crashed server left behind.",
    )
    parser.add_argument(
        "data_dir", help="store directory a server wrote with --data-dir"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="strict mode: fail on any corruption (a torn final WAL "
        "record included, reporting the bad LSN), check every retained "
        "snapshot's digest — not just the newest — and rebuild the IVM "
        "materializations over the recovered state",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the recovery report as one JSON object instead of text",
    )
    return parser


def _recover_main(argv: Sequence[str], out: IO[str]) -> int:
    args = build_recover_parser().parse_args(argv)
    from .persist import (
        RecoveryError,
        SnapshotCorruptionError,
        WalCorruptionError,
        list_snapshots,
        load_snapshot_file,
        recover_database,
    )

    report: dict = {"data_dir": args.data_dir, "verify": args.verify}
    try:
        database, info = recover_database(args.data_dir, strict=args.verify)
        if args.verify:
            # Strict recovery only reads the newest snapshot; --verify
            # promises every retained one is still restorable.
            snapshots = list_snapshots(args.data_dir)
            for _, path in snapshots:
                load_snapshot_file(path)
            report["snapshots_verified"] = len(snapshots)
    except WalCorruptionError as exc:
        print(
            f"recover FAILED: WAL corruption at lsn {exc.lsn} "
            f"in {exc.path}: {exc.reason}",
            file=out,
        )
        return 1
    except SnapshotCorruptionError as exc:
        print(
            f"recover FAILED: snapshot corruption in {exc.path}: {exc.reason}",
            file=out,
        )
        return 1
    except RecoveryError as exc:
        lsn = f" (lsn {exc.lsn})" if exc.lsn is not None else ""
        print(f"recover FAILED{lsn}: {exc}", file=out)
        return 1

    report.update(info.as_dict())
    report["rules"] = sum(
        1 for rule in database.program if not rule.is_fact()
    )
    report["relations"] = {
        str(predicate): len(relation)
        for predicate, relation in sorted(
            database.relations.items(), key=lambda kv: str(kv[0])
        )
    }
    report["facts"] = sum(report["relations"].values())
    if args.verify:
        # Warm every maintainable materialization over the recovered
        # state — proves the recovered program still evaluates, and
        # mirrors what a restarted --ivm server would rebuild.
        from .ivm.manager import ViewManager

        views = ViewManager(database)
        warmed = 0
        heads = {
            rule.head.predicate
            for rule in database.program
            if not rule.is_fact()
        }
        for predicate in sorted(heads, key=str):
            if views.relations_for_query(predicate) is not None:
                warmed += 1
        views.rebuild()
        views.close()
        report["ivm_rebuilt"] = warmed

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        return 0
    if info.snapshot_path is not None:
        print(
            f"snapshot: {info.snapshot_path} (covers lsn {info.snapshot_lsn})",
            file=out,
        )
    else:
        print("snapshot: none", file=out)
    for skipped in info.skipped_snapshots:
        print(
            f"  skipped corrupt snapshot {skipped['path']}: "
            f"{skipped['reason']}",
            file=out,
        )
    print(
        f"wal: replayed {info.replayed} record(s) through lsn "
        f"{info.last_lsn} in {info.elapsed_s * 1000:.1f}ms",
        file=out,
    )
    if info.torn_tail is not None:
        torn = info.torn_tail
        print(
            f"  torn tail tolerated at {torn['path']}:{torn['line']} "
            f"(lsn {torn['lsn']}): {torn['reason']}",
            file=out,
        )
    print(
        f"state: {report['facts']} fact(s) across "
        f"{len(report['relations'])} relation(s), "
        f"{report['rules']} rule(s)",
        file=out,
    )
    for name, count in report["relations"].items():
        print(f"  {name}: {count} facts", file=out)
    if args.verify:
        print(
            f"verify: {report['snapshots_verified']} snapshot(s) checked, "
            f"{report['ivm_rebuilt']} materialization(s) rebuilt",
            file=out,
        )
    print("recover OK", file=out)
    return 0


def _load_database(
    path: Optional[str], out: IO[str], database: Optional[Database] = None
) -> Optional[Database]:
    if database is None:
        database = Database()
    if path is not None:
        try:
            with open(path) as handle:
                database.load_source(handle.read())
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=out)
            return None
        except ValueError as exc:
            print(f"error: cannot parse {path}: {exc}", file=out)
            return None
    return database


def _run_trace(session: QuerySession, source: str, out: IO[str]) -> bool:
    """Run one query with tracing on; print answers + EXPLAIN report."""
    from .observe import render_report

    try:
        report = session.explain(source)
    except (PlanningError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return False
    except Exception as exc:  # evaluation-time errors are user-facing
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return False
    for row in report["rows"]:
        print(f"  {row}", file=out)
    print(render_report(report), file=out)
    return True


def _run_profile(session: QuerySession, source: str, out: IO[str]) -> bool:
    """Run one query with span profiling on; print answers + report."""
    from .profile import render_profile

    try:
        report = session.profile(source, include_trace=True)
    except (PlanningError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return False
    except Exception as exc:  # evaluation-time errors are user-facing
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return False
    print(
        f"{report['answers']} answer(s) [{report['strategy']}] "
        f"in {report['elapsed_ms']:.2f}ms",
        file=out,
    )
    print(render_profile(report), file=out)
    return True


def _print_slowlog(session: QuerySession, out: IO[str]) -> None:
    entries = session.slowlog()
    if session.slow_query_ms is None:
        print("slow-query log disabled (set --slow-query-ms)", file=out)
        return
    if not entries:
        print(
            f"slow-query log empty (threshold {session.slow_query_ms}ms)",
            file=out,
        )
        return
    for entry in entries:
        print(
            f"  {entry['elapsed_ms']:.2f}ms  {entry['query']}  "
            f"[{entry['strategy']}]  {entry['answers']} answer(s)",
            file=out,
        )


def _run_query(
    session: QuerySession,
    source: str,
    out: IO[str],
    explain: bool = False,
    stats: bool = False,
    proof: bool = False,
    trace: bool = False,
    profile: bool = False,
) -> bool:
    """Run one query through the shared session; False on errors."""
    if trace:
        return _run_trace(session, source, out)
    if profile:
        return _run_profile(session, source, out)
    if explain:
        try:
            plan, cached = session.plan(source)
        except (PlanningError, ValueError) as exc:
            print(f"error: {exc}", file=out)
            return False
        print(plan.explain(), file=out)
        if cached:
            print("(plan cache hit)", file=out)
        print(file=out)
    try:
        result = session.execute(source)
    except (PlanningError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return False
    except Exception as exc:  # evaluation-time errors are user-facing
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return False
    for row in result.rows:
        rendered = ", ".join(str(value) for value in row)
        print(f"{result.plan.query.name}({rendered})", file=out)
    cache_note = " (cached)" if result.result_cached else ""
    print(
        f"{len(result.rows)} answer(s) [{result.strategy}]{cache_note}", file=out
    )
    if stats:
        counters = result.counters
        if counters is not None:
            for key, value in counters.as_dict().items():
                if value:
                    print(f"  {key}: {value}", file=out)
        else:
            print("  (result cache hit: no evaluation work)", file=out)
    if proof:
        tracer = ProofTracer(session.database)
        explanation = tracer.explain(source)
        if explanation is not None:
            print("proof of first answer:", file=out)
            print(explanation, file=out)
    return True


_REPL_HELP = """\
  ?- sg(ann, Y).        evaluate a query
  :plan sg(ann, Y)      show the plan without running it
  :proof sg(ann, Y)     print the first answer's proof tree
  :trace sg(ann, Y)     evaluate with tracing; print the EXPLAIN report
  :profile sg(ann, Y)   evaluate with span profiling; print the report
  :retract f(a, b)      remove a stored fact
  :slowlog              print retained slow queries (:slowlog clear)
  :facts                list stored relations
  :stats                print the session's service metrics
  :metrics              print the metrics in Prometheus text format
  :dot                  dump the dependency graph as Graphviz DOT
  :help                 list these commands
  :quit                 exit"""


def _repl(session: QuerySession, inp: IO[str], out: IO[str]) -> None:
    database = session.database
    print(
        "repro — chain-split deductive database. :help for commands, "
        ":quit to exit.",
        file=out,
    )
    for line in inp:
        line = line.strip()
        if not line:
            continue
        if line in {":quit", ":q", "halt."}:
            break
        if line in {":help", ":h", "help."}:
            print(_REPL_HELP, file=out)
            continue
        if line == ":slowlog" or line.lower() == ":slowlog clear":
            if line.lower().endswith("clear"):
                print(f"cleared {session.clear_slowlog()} entries", file=out)
            else:
                _print_slowlog(session, out)
            continue
        if line.startswith(":profile "):
            query = line[9:].strip()
            if query.endswith("."):
                query = query[:-1]
            _run_profile(session, query, out)
            continue
        if line.startswith(":retract "):
            clause = line[9:].strip()
            if not clause.endswith("."):
                clause += "."
            try:
                from .datalog.parser import parse_rule

                rule = parse_rule(clause)
                if not rule.is_fact():
                    print("error: :retract takes a ground fact", file=out)
                    continue
                removed = session.retract_fact(rule.head.name, rule.head.args)
            except ValueError as exc:
                print(f"error: {exc}", file=out)
                continue
            print("retracted" if removed else "no such fact", file=out)
            continue
        if line == ":facts":
            for predicate, relation in sorted(
                database.relations.items(), key=lambda kv: str(kv[0])
            ):
                print(f"  {predicate}: {len(relation)} facts", file=out)
            continue
        if line == ":stats":
            print(json.dumps(session.stats(), indent=2, sort_keys=True), file=out)
            continue
        if line == ":metrics":
            print(session.metrics_text(), file=out)
            continue
        if line.startswith(":trace "):
            query = line[7:].strip()
            if query.endswith("."):
                query = query[:-1]
            _run_trace(session, query, out)
            continue
        if line.startswith(":plan "):
            try:
                plan, cached = session.plan(line[6:])
                print(plan.explain(), file=out)
                if cached:
                    print("(plan cache hit)", file=out)
            except (PlanningError, ValueError) as exc:
                print(f"error: {exc}", file=out)
            continue
        if line.startswith(":proof "):
            explanation = ProofTracer(database).explain(line[7:])
            print(explanation if explanation is not None else "no proof", file=out)
            continue
        if line == ":dot":
            from .analysis.graphviz import program_to_dot

            print(program_to_dot(database.program), file=out)
            continue
        if line.startswith(":"):
            print(f"unknown command {line.split()[0]}", file=out)
            continue
        if line.startswith("?-"):
            line = line[2:].strip()
        if line.endswith("."):
            line = line[:-1]
        _run_query(session, line, out)


def main(
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    out = stdout if stdout is not None else sys.stdout
    if raw_argv and raw_argv[0] == "replay":
        return _replay_main(raw_argv[1:], out)
    if raw_argv and raw_argv[0] == "recover":
        return _recover_main(raw_argv[1:], out)
    args = build_parser().parse_args(raw_argv)
    inp = stdin if stdin is not None else sys.stdin

    from .observe import configure_logging

    configure_logging(json_mode=args.log_json, level=args.log_level)

    manager = None
    restore_note = None
    if args.data_dir is not None:
        from .persist import (
            PersistenceManager,
            RecoveryError,
            SnapshotCorruptionError,
            WalCorruptionError,
        )

        try:
            manager = PersistenceManager.open(
                args.data_dir,
                fsync=args.fsync,
                fsync_interval_s=args.fsync_interval,
                segment_bytes=args.wal_segment_bytes,
                snapshot_every=args.snapshot_every,
            )
        except (SnapshotCorruptionError, WalCorruptionError) as exc:
            print(
                f"error: {args.data_dir} is corrupt: {exc} "
                "(run 'repro recover' to inspect)",
                file=out,
            )
            return 1
        except (RecoveryError, OSError) as exc:
            print(f"error: cannot open {args.data_dir}: {exc}", file=out)
            return 1
        database = manager.database
        recovery = manager.recovery
        if not recovery.fresh:
            if args.program is not None or args.facts:
                restore_note = (
                    f"note: {args.data_dir} already holds state; "
                    "--program/--facts ignored (state comes from recovery)"
                )
                if args.serve:
                    # The serve banner must stay the first stdout line
                    # (scripts parse the bound port from it); the note
                    # is printed after it instead.
                    pass
                else:
                    print(restore_note, file=out)
                    restore_note = None
            args.program, args.facts = None, []
    else:
        database = _load_database(args.program, out)
        if database is None:
            return 1
    if args.program is not None and manager is not None:
        # A fresh durable store seeded from a program file: every fact
        # and rule is WAL-logged as it loads.
        if _load_database(args.program, out, database=database) is None:
            manager.close()
            return 1
    for spec in args.facts:
        name, _, path = spec.partition("=")
        if not name or not path:
            print(f"error: --facts expects PRED=FILE.csv, got {spec!r}", file=out)
            if manager is not None:
                manager.close()
            return 1
        try:
            from .engine.io import load_facts_csv

            count = load_facts_csv(database, path, name)
            print(f"loaded {count} {name} facts from {path}", file=out)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {spec}: {exc}", file=out)
            if manager is not None:
                manager.close()
            return 1
    if manager is not None and (args.program is not None or args.facts):
        # Bulk CSV loads write relations directly, bypassing the WAL —
        # an immediate checkpoint folds the seeded state into a
        # snapshot so a crash before the first periodic checkpoint
        # cannot lose it.
        manager.checkpoint()

    budget = None
    if any(
        value is not None
        for value in (
            args.max_tuples, args.max_rounds, args.max_live, args.time_budget
        )
    ):
        from .resilience import Budget

        budget = Budget(
            max_tuples=args.max_tuples,
            max_rounds=args.max_rounds,
            max_live=args.max_live,
            timeout=args.time_budget,
        )

    session = QuerySession(
        database,
        max_depth=args.max_depth,
        slow_query_ms=args.slow_query_ms,
        reqlog_size=args.reqlog_size,
        budget=budget,
        ivm=args.ivm,
    )
    if manager is not None:
        session.attach_persistence(manager)

    if args.record is not None and not args.serve:
        print("error: --record requires --serve", file=out)
        if manager is not None:
            manager.close()
        return 1

    if args.serve:
        common = dict(
            host=args.host,
            port=args.port,
            timeout=args.timeout,
            budget=budget,
            max_pending=args.max_pending if args.max_pending > 0 else None,
            idle_timeout=args.idle_timeout,
            breaker_threshold=(
                args.breaker_threshold if args.breaker_threshold > 0 else None
            ),
            breaker_cooldown=args.breaker_cooldown,
            push_backlog=args.push_backlog,
        )
        if args.threaded:
            print(
                "note: --threaded is deprecated; the event loop serves "
                "with --workers 0 instead",
                file=sys.stderr,
            )
            if args.workers is None:
                args.workers = 0
        try:
            server = AsyncQueryServer(session, workers=args.workers, **common)
        except OSError as exc:
            print(
                f"error: cannot listen on {args.host}:{args.port}: {exc}",
                file=out,
            )
            if manager is not None:
                manager.close()
            return 1
        if args.record is not None:
            try:
                info = session.start_capture(
                    args.record, origin=session.lifecycle.origin
                )
            except OSError as exc:
                print(f"error: cannot record to {args.record}: {exc}", file=out)
                server.shutdown()
                return 1
        from .service.protocol import ProtocolCore, install_signal_handlers

        install_signal_handlers(server)
        host, port = server.address
        # Scripts parse the bound port (--port 0) from this first line,
        # so nothing may print before it.
        print(
            f"repro serving on {host}:{port} "
            f"(verbs: {', '.join(ProtocolCore.VERBS)}; one JSON reply per line)",
            file=out,
        )
        if manager is not None:
            recovery = manager.recovery
            print(
                f"durable store at {manager.data_dir} "
                f"(fsync {manager.fsync}): recovered "
                f"{recovery.replayed} WAL record(s) past snapshot lsn "
                f"{recovery.snapshot_lsn}, resuming at lsn "
                f"{recovery.last_lsn}"
                + (
                    " [torn tail repaired]"
                    if recovery.torn_tail is not None
                    else ""
                ),
                file=out,
            )
            if restore_note is not None:
                print(restore_note, file=out)
        if args.record is not None:
            print(
                f"recording workload to {info['path']} "
                f"(snapshot: {info['snapshot_facts']} facts, "
                f"{info['snapshot_rules']} rules)",
                file=out,
            )
        # Scripts discover the bound port (--port 0) from this line, so
        # it must not sit in a block-buffered pipe.
        if hasattr(out, "flush"):
            out.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
        return 0

    if args.query:
        ok = True
        for source in args.query:
            ok = _run_query(
                session,
                source,
                out,
                explain=args.explain,
                stats=args.stats,
                proof=args.proof,
                trace=args.trace,
                profile=args.profile,
            ) and ok
        if args.profile_json:
            report = session.last_profile
            if report is None:
                print("error: --profile-json needs --profile", file=out)
                ok = False
            elif args.profile_json == "-":
                print(json.dumps(report, indent=2, sort_keys=True), file=out)
            else:
                try:
                    with open(args.profile_json, "w") as handle:
                        json.dump(report, handle, indent=2, sort_keys=True)
                except OSError as exc:
                    print(
                        f"error: cannot write {args.profile_json}: {exc}",
                        file=out,
                    )
                    ok = False
        if args.trace_json:
            report = session.last_trace
            if report is None:
                print("error: --trace-json needs --trace", file=out)
                ok = False
            elif args.trace_json == "-":
                print(json.dumps(report, indent=2, sort_keys=True), file=out)
            else:
                try:
                    with open(args.trace_json, "w") as handle:
                        json.dump(report, handle, indent=2, sort_keys=True)
                except OSError as exc:
                    print(
                        f"error: cannot write {args.trace_json}: {exc}", file=out
                    )
                    ok = False
        if args.metrics:
            print(session.metrics_text(), file=out)
        if manager is not None:
            manager.close()
        return 0 if ok else 1

    _repl(session, inp, out)
    if manager is not None:
        manager.close()
    return 0
