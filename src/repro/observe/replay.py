"""Deterministic replay of captured workloads, with latency verdicts.

The counterpart to :mod:`repro.observe.capture`: load an archive,
rebuild the EDB from its snapshot, drive a fresh server through the
recorded request stream, and report two things —

* **Parity.**  Every replayed reply is digested with the same mode the
  capture used (exact for deterministic verbs, structural for
  STATS/METRICS-class payloads) and compared to the recorded digest.
  Any mismatch fails the replay: a deterministic verb that no longer
  produces a bit-identical envelope is a behavior change, not noise.
* **Latency.**  Recorded vs. replayed round-trip distributions
  (p50/p95/p99) per verb and — for QUERY — per plan shape, each row
  carrying a regression verdict in the style of
  ``benchmarks/regress.py``: ``status: "REGRESSION"`` when the median
  ratio breaches the tolerance band *and* the absolute delta is large
  enough to matter.

Two drive modes.  **In-process** (the default) runs an
:class:`~repro.service.eventloop.AsyncQueryServer` with admission
control, the circuit breaker, and timeouts disabled — fidelity over
protection; replay should reproduce the recorded stream even where a
live server would shed it.  **Wire** mode (``target="host:port"``)
sends the raw lines to an already-running server, measuring true
socket round trips.

Three pacings: ``recorded`` honors each request's captured arrival
offset, ``accelerated`` divides the offsets by ``speed``, and ``max``
issues back-to-back.  SUBSCRIBE/UNSUBSCRIBE entries are never
re-issued (a push channel's DELTA stream would interleave with
replayed replies); they are counted as skipped.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .capture import (
    REPLAY_SKIPPED_VERBS,
    load_archive,
    replay_digest,
    restore_database,
)

__all__ = [
    "PACINGS",
    "replay_archive",
    "render_replay_report",
]

PACINGS = ("recorded", "accelerated", "max")


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = fraction * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    weight = rank - lo
    return sorted_values[lo] * (1.0 - weight) + sorted_values[hi] * weight


def _distribution(values_us: List[float]) -> Dict[str, float]:
    ordered = sorted(values_us)
    return {
        "n": len(ordered),
        "p50_us": round(_percentile(ordered, 0.50), 1),
        "p95_us": round(_percentile(ordered, 0.95), 1),
        "p99_us": round(_percentile(ordered, 0.99), 1),
    }


def _verdict_row(
    label: str,
    recorded_us: List[float],
    replayed_us: List[float],
    tolerance: float,
    min_delta_us: float,
) -> Dict[str, Any]:
    """One report row, verdict-styled after ``benchmarks/regress.py``.

    A REGRESSION needs both a relative breach (median ratio above the
    tolerance band) and an absolute one (the delta exceeds
    ``min_delta_us``) — microsecond-scale verbs can double on
    scheduler noise alone without meaning anything.
    """
    recorded = _distribution(recorded_us)
    replayed = _distribution(replayed_us)
    p50_ratio = replayed["p50_us"] / max(recorded["p50_us"], 1e-9)
    delta_us = replayed["p50_us"] - recorded["p50_us"]
    problems: List[str] = []
    if p50_ratio > tolerance and delta_us > min_delta_us:
        problems.append(
            f"replayed p50 {replayed['p50_us']}us vs recorded "
            f"{recorded['p50_us']}us (x{p50_ratio:.2f} > x{tolerance:.2f})"
        )
    return {
        "label": label,
        "recorded": recorded,
        "replayed": replayed,
        "p50_ratio": round(p50_ratio, 3),
        "p50_delta_us": round(delta_us, 1),
        "status": "REGRESSION" if problems else "ok",
        "problems": problems,
    }


class _WireDriver:
    """Raw lines over a socket to an already-running server."""

    def __init__(self, target: str):
        host, _, port = target.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.settimeout(60)
        self.handle = self.sock.makefile("rw", encoding="utf-8")

    def issue(self, line: str) -> Dict[str, Any]:
        self.handle.write(line + "\n")
        self.handle.flush()
        raw = self.handle.readline()
        if not raw:
            raise ConnectionError("server closed the connection mid-replay")
        return json.loads(raw)

    def close(self) -> None:
        self.sock.close()


class _InProcessDriver:
    """A fresh event-loop server driven through ``handle_line``.

    Admission control, the circuit breaker, and evaluation timeouts
    are disabled: a replay must reproduce the recorded stream, not
    shed it the way a protecting server would.  The server is never
    ``start()``-ed; its ``shutdown()`` is safe without it.
    """

    def __init__(self, session):
        from ..service.eventloop import AsyncQueryServer

        self.server = AsyncQueryServer(
            session,
            workers=0,
            max_pending=None,
            breaker_threshold=None,
            timeout=None,
        )

    def issue(self, line: str) -> Dict[str, Any]:
        return self.server.handle_line(line, connection=None)

    def close(self) -> None:
        self.server.shutdown()


def _build_session(header: Dict[str, Any]):
    from ..service.session import QuerySession

    database = restore_database(header.get("snapshot") or {})
    return QuerySession(database)


def replay_archive(
    archive: str,
    pacing: str = "max",
    speed: float = 10.0,
    target: Optional[str] = None,
    tolerance: float = 1.5,
    min_delta_us: float = 500.0,
    max_mismatch_detail: int = 20,
) -> Dict[str, Any]:
    """Replay ``archive`` and return the replay report.

    ``target`` switches to wire mode ("host:port" of a live server
    that must already hold the archive's EDB state); default is a
    fresh in-process server restored from the snapshot.  The report's
    ``ok`` means digest parity held for every replayed request.
    """
    if pacing not in PACINGS:
        raise ValueError(f"pacing must be one of {PACINGS}, got {pacing!r}")
    header, entries = load_archive(archive)

    # The shape-labeling session: plan_key() groups QUERY latencies per
    # plan shape in both modes (parsing only — no evaluation).
    shaper = _build_session(header)
    if target is None:
        driver = _InProcessDriver(shaper)
    else:
        driver = _WireDriver(target)

    compared = matched = skipped = 0
    mismatches: List[Dict[str, Any]] = []
    by_verb: Dict[str, Tuple[List[float], List[float]]] = {}
    by_shape: Dict[str, Tuple[List[float], List[float]]] = {}
    epoch_ns = time.perf_counter_ns()
    try:
        for entry in entries:
            verb = entry.get("verb", "?")
            if verb in REPLAY_SKIPPED_VERBS:
                skipped += 1
                continue
            if pacing != "max":
                offset_us = float(entry.get("t_offset_us") or 0.0)
                if pacing == "accelerated":
                    offset_us /= max(speed, 1e-9)
                due_ns = epoch_ns + int(offset_us * 1e3)
                wait = (due_ns - time.perf_counter_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
            line = entry["line"]
            start_ns = time.perf_counter_ns()
            reply = driver.issue(line)
            elapsed_us = (time.perf_counter_ns() - start_ns) / 1e3

            compared += 1
            recorded_digest = (entry.get("digest") or {}).get("sha256")
            replayed_digest = replay_digest(entry, reply)
            if replayed_digest == recorded_digest:
                matched += 1
            elif len(mismatches) < max_mismatch_detail:
                mismatches.append(
                    {
                        "seq": entry.get("seq"),
                        "verb": verb,
                        "line": line,
                        "mode": (entry.get("digest") or {}).get("mode"),
                        "recorded_sha256": recorded_digest,
                        "replayed_sha256": replayed_digest,
                        "replayed_ok": reply.get("ok"),
                    }
                )

            recorded_us = float(entry.get("elapsed_us") or 0.0)
            rec_sink, rep_sink = by_verb.setdefault(verb, ([], []))
            rec_sink.append(recorded_us)
            rep_sink.append(elapsed_us)
            if verb == "QUERY":
                argument = line.partition(" ")[2].strip()
                try:
                    shape = str(shaper.plan_key(argument))
                except Exception:
                    shape = "<unparsed>"
                rec_sink, rep_sink = by_shape.setdefault(shape, ([], []))
                rec_sink.append(recorded_us)
                rep_sink.append(elapsed_us)
    finally:
        driver.close()

    mismatched = compared - matched
    verbs = [
        _verdict_row(verb, rec, rep, tolerance, min_delta_us)
        for verb, (rec, rep) in sorted(by_verb.items())
    ]
    shapes = [
        _verdict_row(shape, rec, rep, tolerance, min_delta_us)
        for shape, (rec, rep) in sorted(by_shape.items())
    ]
    return {
        "archive": {
            "path": archive,
            "version": header.get("version"),
            "origin": header.get("origin"),
            "created": header.get("created"),
            "requests": len(entries),
        },
        "mode": f"wire:{target}" if target else "in-process",
        "pacing": {
            "mode": pacing,
            "speed": speed if pacing == "accelerated" else None,
        },
        "parity": {
            "compared": compared,
            "matched": matched,
            "mismatched": mismatched,
            "skipped": skipped,
            "mismatches": mismatches,
        },
        "latency": {"verbs": verbs, "shapes": shapes},
        "regressions": sum(
            1 for row in verbs + shapes if row["status"] == "REGRESSION"
        ),
        "ok": mismatched == 0,
    }


def _render_rows(title: str, rows: List[Dict[str, Any]]) -> List[str]:
    lines = [title]
    header = (
        f"  {'label':<40} {'n':>5} {'rec p50':>9} {'rep p50':>9} "
        f"{'rec p95':>9} {'rep p95':>9} {'rec p99':>9} {'rep p99':>9} "
        f"{'ratio':>7}  status"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for row in rows:
        rec, rep = row["recorded"], row["replayed"]
        lines.append(
            f"  {row['label'][:40]:<40} {rec['n']:>5} "
            f"{rec['p50_us']:>9.1f} {rep['p50_us']:>9.1f} "
            f"{rec['p95_us']:>9.1f} {rep['p95_us']:>9.1f} "
            f"{rec['p99_us']:>9.1f} {rep['p99_us']:>9.1f} "
            f"{row['p50_ratio']:>7.3f}  {row['status']}"
        )
        for problem in row["problems"]:
            lines.append(f"      ! {problem}")
    return lines


def render_replay_report(report: Dict[str, Any]) -> str:
    """The replay report as a human-readable text table."""
    parity = report["parity"]
    lines = [
        f"replay of {report['archive']['path']} "
        f"(origin={report['archive']['origin']}, "
        f"requests={report['archive']['requests']}) "
        f"mode={report['mode']} pacing={report['pacing']['mode']}",
        f"parity: {parity['matched']}/{parity['compared']} matched, "
        f"{parity['mismatched']} mismatched, {parity['skipped']} skipped "
        f"-> {'OK' if report['ok'] else 'FAIL'}",
    ]
    for mismatch in parity["mismatches"]:
        lines.append(
            f"  mismatch seq={mismatch['seq']} [{mismatch['mode']}] "
            f"{mismatch['line'][:80]}"
        )
    lines.extend(
        _render_rows("latency per verb (microseconds):", report["latency"]["verbs"])
    )
    if report["latency"]["shapes"]:
        lines.extend(
            _render_rows(
                "latency per plan shape (QUERY, microseconds):",
                report["latency"]["shapes"],
            )
        )
    return "\n".join(lines)
