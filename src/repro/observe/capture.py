"""Workload capture: record live traffic into a replayable archive.

A serving session's traffic is the most honest benchmark there is —
the sg/scsg workload generators approximate it, but a recorded stream
*is* it.  This module persists one: a :class:`WorkloadRecorder` rides
the server's request lifecycle tap
and appends every completed request to a compact, versioned JSONL
archive that :mod:`repro.observe.replay` can later drive against a
fresh server at recorded, accelerated, or max pacing.

Archive format (version 1) — one JSON object per line:

* line 1, the **header**: ``{"kind": "header", "version": 1, ...}``
  carrying the capture's wall-clock start, the recording server's
  origin label, and the **EDB snapshot**: every rule and stored fact
  rendered as parseable datalog text (term rendering round-trips
  through the parser, so a replay rebuilds bit-identical state with
  :func:`restore_database`), plus the database version counters.
* every further line, one **request**: ``{"kind": "request", "seq",
  "id", "verb", "line", "t_offset_us", "elapsed_us", "ok", "digest"}``
  — the raw request line, its arrival offset on the monotonic clock
  (anchored at the lifecycle record's frame-completion stamp), the
  served latency, and a response digest.

Digests come in two modes.  **Deterministic verbs** (QUERY / PLAN /
FACT / RETRACT) get an *exact* digest: sha256 over the reply's wire
bytes with volatile fields (``elapsed_ms`` and the cache-hit flags,
which report the serving environment rather than the answer) dropped
— replay must reproduce the envelope bit-identically.  Everything else (STATS,
METRICS, HEALTH, SLOWLOG, REQLOG, EXPLAIN/TRACE/PROFILE reports, and
any error envelope) gets a *structural* digest over ``{ok, verb,
sorted keys, error type}`` — the shape must match, the volatile
payload may not.

The recorder follows the flight recorder's zero-cost-when-off
discipline: servers guard the tap with one ``capture.active``
attribute check, and an inactive recorder allocates nothing.  While
active, the serving-path cost is one tuple append to a bounded queue
— digesting, serialization and I/O all happen on a dedicated writer
thread (envelopes are freshly built per request and never mutated
after the tap, so handing them across is safe).  The writer buffers
``flush_every`` records per ``flush()`` with explicit ``fsync``
points every ``fsync_every`` records and at ``stop()``, so a crash
loses at most one buffer, never the archive's integrity.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ARCHIVE_VERSION",
    "DETERMINISTIC_VERBS",
    "REPLAY_SKIPPED_VERBS",
    "WorkloadRecorder",
    "canonical_bytes",
    "digest_reply",
    "exact_digest",
    "structural_digest",
    "snapshot_database",
    "restore_database",
    "load_archive",
]

#: Bump when a line's schema changes; the replayer refuses unknown
#: versions instead of misreading them.
ARCHIVE_VERSION = 1

#: Verbs whose successful replies are pure functions of database state
#: and request order — replay must reproduce them bit-identically.
DETERMINISTIC_VERBS = frozenset({"QUERY", "PLAN", "FACT", "RETRACT"})

#: Verbs the replayer records but does not re-issue: SUBSCRIBE turns
#: the connection into a push channel whose DELTA lines would
#: interleave with replayed replies (and needs a live connection the
#: in-process mode does not have).
REPLAY_SKIPPED_VERBS = frozenset({"SUBSCRIBE", "UNSUBSCRIBE"})

#: Verbs never written to an archive: recording the recorder's own
#: control verb would make a replay re-start capture mid-replay.
_UNCAPTURED_VERBS = frozenset({"RECORD"})

#: Reply fields that legitimately differ run-to-run on deterministic
#: verbs: wall-clock latency, and the cache-hit flags — those report
#: the serving environment (which worker answered, what traffic came
#: before the recording started), not database state + request order,
#: so a faithful replay on a cold server cannot reproduce them.
_VOLATILE_KEYS = ("elapsed_ms", "plan_cached", "result_cached")


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def canonical_bytes(reply: Dict[str, Any]) -> bytes:
    """The reply as canonical JSON: sorted keys, no whitespace."""
    return json.dumps(
        reply, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def _strip_volatile_wire(wire: bytes) -> bytes:
    """Excise volatile ``"key": value`` segments from serialized JSON.

    Works on the wire bytes the server already produced so the exact
    digest never re-serializes the reply.  Volatile keys are top-level
    plain numbers (``elapsed_ms``), so the value runs to the next
    ``,`` or ``}``; the adjoining comma is excised with it.  A key
    *string* occurring inside payload data is never followed by ``:``
    in serialized JSON, so the needle cannot false-match.
    """
    for key in _VOLATILE_KEYS:
        needle = b'"' + key.encode("ascii") + b'":'
        start = wire.find(needle)
        if start < 0:
            continue
        end = start + len(needle)
        while end < len(wire) and wire[end : end + 1] not in (b",", b"}"):
            end += 1
        # Take one adjoining comma with the segment — the preceding
        # one (plus separator whitespace) when there is one, else the
        # following one — so the remainder stays valid JSON.
        lead = start
        while lead > 0 and wire[lead - 1 : lead] in (b" ", b"\t"):
            lead -= 1
        if lead > 0 and wire[lead - 1 : lead] == b",":
            start = lead - 1
        elif wire[end : end + 1] == b",":
            end += 1
            if wire[end : end + 1] == b" ":
                end += 1
        wire = wire[:start] + wire[end:]
    return wire


def exact_digest(reply: Dict[str, Any], wire: Optional[bytes] = None) -> str:
    """sha256 over the serialized reply, volatile fields excised.

    ``wire`` is the reply exactly as the server serialized it
    (``json.dumps(reply)``, trailing newline tolerated) — passing it
    skips a re-serialization.  Envelope key order is deterministic
    (the handlers build each reply the same way every time), so wire
    bytes, not canonical-JSON bytes, are the comparison basis.
    """
    if wire is None:
        wire = json.dumps(reply, default=str).encode("utf-8")
    return hashlib.sha256(
        _strip_volatile_wire(wire.rstrip(b"\n"))
    ).hexdigest()


def structural_digest(reply: Dict[str, Any]) -> str:
    """sha256 over the reply's *shape*: ok, verb, key set, error type.

    STATS/METRICS-class payloads are never bit-stable (counters,
    uptimes, latencies), but their envelope shape is; a replay that
    produces the same keys with the same ok/verb/error classification
    matches.
    """
    error = reply.get("error")
    shape = {
        "ok": reply.get("ok"),
        "verb": reply.get("verb"),
        "keys": sorted(reply.keys()),
        "error_type": error.get("type") if isinstance(error, dict) else None,
    }
    return hashlib.sha256(canonical_bytes(shape)).hexdigest()


def digest_reply(
    verb: str, reply: Dict[str, Any], wire: Optional[bytes] = None
) -> Dict[str, str]:
    """The digest record for one (verb, reply) pair.

    Exact for successful deterministic verbs; structural for
    everything else (error envelopes carry budget numbers and elapsed
    text, so even a deterministic verb's failure digests structurally).
    """
    if verb in DETERMINISTIC_VERBS and reply.get("ok"):
        return {"mode": "exact", "sha256": exact_digest(reply, wire)}
    return {"mode": "structural", "sha256": structural_digest(reply)}


def replay_digest(entry: Dict[str, Any], reply: Dict[str, Any]) -> str:
    """Digest a replayed reply with the *recorded* entry's mode."""
    mode = (entry.get("digest") or {}).get("mode")
    if mode == "exact":
        return exact_digest(reply)
    return structural_digest(reply)


# ----------------------------------------------------------------------
# EDB snapshot — the codec itself lives in repro.persist.snapshot (one
# implementation for capture archives *and* durability checkpoints, so
# the two formats cannot drift); re-exported here because the archive
# header is where it first grew up.
# ----------------------------------------------------------------------
from ..persist.snapshot import (  # noqa: E402  (after module docstring constants)
    restore_database,
    snapshot_database,
)


# ----------------------------------------------------------------------
# Archive reading
# ----------------------------------------------------------------------
def load_archive(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse an archive into ``(header, request entries)``.

    Raises ``ValueError`` on a missing/foreign header or an
    unsupported version; tolerates a truncated trailing line (the one
    buffer a crash can lose) by discarding it.
    """
    header: Optional[Dict[str, Any]] = None
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for index, raw in enumerate(handle):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except ValueError:
                if header is None:
                    raise ValueError(f"{path}: not a workload archive")
                break  # truncated tail from a crashed capture
            if index == 0:
                if obj.get("kind") != "header":
                    raise ValueError(
                        f"{path}: first line is not an archive header"
                    )
                version = obj.get("version")
                if version != ARCHIVE_VERSION:
                    raise ValueError(
                        f"{path}: archive version {version!r} is not "
                        f"supported (expected {ARCHIVE_VERSION})"
                    )
                header = obj
            elif obj.get("kind") == "request":
                entries.append(obj)
    if header is None:
        raise ValueError(f"{path}: empty archive")
    return header, entries


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
class WorkloadRecorder:
    """Record completed requests to a JSONL archive; inert by default.

    One recorder lives on every :class:`~repro.service.session.
    QuerySession` (like the flight recorder); ``RECORD START <path>``
    or ``--record`` activates it.  The serving tap is two attribute
    loads and a truth test while inactive, and one tuple append to a
    bounded queue while active — a dedicated writer thread does the
    digesting, serialization and buffered/fsynced I/O, so capture tax
    on the request path stays in single-digit microseconds.  When the
    queue is full (the writer has fallen ``max_queue`` requests
    behind), further requests are *dropped and counted*, never
    blocked on.
    """

    def __init__(
        self,
        flush_every: int = 64,
        fsync_every: int = 1024,
        max_queue: int = 100_000,
    ):
        self.flush_every = max(1, flush_every)
        self.fsync_every = max(1, fsync_every)
        self.max_queue = max(1, max_queue)
        self._lock = threading.Lock()
        self._handle = None
        self.path: Optional[str] = None
        #: Read per request on the serving tap; a plain attribute so
        #: the off path costs one load + truth test.
        self.active = False
        self._queue: deque = deque()
        self._halt = threading.Event()
        self._writer: Optional[threading.Thread] = None
        self._buffer: List[str] = []
        self._epoch_ns = 0
        self._seq = 0
        self._bytes = 0
        self._flushes = 0
        self._fsyncs = 0
        self._since_fsync = 0
        self._errors = 0
        self._dropped = 0

    def start(
        self,
        path: str,
        snapshot: Dict[str, Any],
        origin: str = "unknown",
    ) -> Dict[str, Any]:
        """Open ``path``, write the header, start the writer thread.

        Raises ``RuntimeError`` when already recording and ``OSError``
        when the path cannot be opened — both surface as error
        envelopes on the RECORD verb.
        """
        header = {
            "kind": "header",
            "version": ARCHIVE_VERSION,
            "created": time.time(),
            "origin": origin,
            "snapshot": snapshot,
        }
        wire = json.dumps(header, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._handle is not None:
                raise RuntimeError(f"already recording to {self.path}")
            handle = open(path, "w", encoding="utf-8")
            try:
                handle.write(wire)
                handle.flush()
                os.fsync(handle.fileno())
            except Exception:
                handle.close()
                raise
            self._handle = handle
            self.path = path
            self._queue.clear()
            self._buffer = []
            self._epoch_ns = time.perf_counter_ns()
            self._seq = 0
            self._bytes = len(wire.encode("utf-8"))
            self._flushes = 1
            self._fsyncs = 1
            self._since_fsync = 0
            self._errors = 0
            self._dropped = 0
            self._halt.clear()
            self._writer = threading.Thread(
                target=self._writer_loop, name="repro-capture", daemon=True
            )
            self._writer.start()
            self.active = True
        return {
            "path": path,
            "version": ARCHIVE_VERSION,
            "snapshot_facts": sum(
                len(rows) for rows in (snapshot.get("facts") or {}).values()
            ),
            "snapshot_rules": len(snapshot.get("rules") or ()),
        }

    def record(
        self,
        line: str,
        reply: Dict[str, Any],
        record=None,
        wire: Optional[bytes] = None,
    ) -> None:
        """Enqueue one completed request (never raises into serving).

        ``record`` is the request's lifecycle
        :class:`~repro.observe.lifecycle.RequestRecord` when the
        flight recorder is on: its frame-completion stamp anchors the
        arrival offset and its id correlates the archive with REQLOG
        and the JSON logs.  Without one, arrival falls back to "now"
        (offsets stay monotonic, per-request latency reads as 0).
        ``wire`` is the reply as the server serialized it; passing it
        lets the writer thread digest without re-serializing.
        """
        try:
            if not self.active:
                return
            if len(self._queue) >= self.max_queue:
                self._dropped += 1
                return
            now_ns = time.perf_counter_ns()
            if record is not None:
                self._queue.append(
                    (line, reply, wire, record.id, record.created_ns, now_ns)
                )
            else:
                self._queue.append((line, reply, wire, None, now_ns, now_ns))
        except Exception:
            self._errors += 1

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        # Polling, not per-request wakeups: an Event.set() on the
        # serving path costs a lock handoff per request, while a 20Hz
        # poll bounds queue dwell at ~50ms for free.
        while True:
            self._drain()
            if self._halt.is_set():
                self._drain()  # whatever raced in since the last pass
                return
            self._halt.wait(0.05)

    def _drain(self) -> None:
        """Digest and serialize everything queued, then write it out."""
        queue = self._queue
        wires: List[str] = []
        while queue:
            line, reply, wire, request_id, arrival_ns, done_ns = (
                queue.popleft()
            )
            try:
                verb = line.split(None, 1)[0].upper() if line else "?"
                if verb in _UNCAPTURED_VERBS:
                    continue
                self._seq += 1
                entry = {
                    "kind": "request",
                    "seq": self._seq,
                    "id": request_id,
                    "verb": verb,
                    "line": line,
                    "t_offset_us": round(
                        (arrival_ns - self._epoch_ns) / 1e3, 1
                    ),
                    "elapsed_us": round(max(0, done_ns - arrival_ns) / 1e3, 1),
                    "ok": bool(reply.get("ok")),
                    "digest": digest_reply(verb, reply, wire),
                }
                wires.append(
                    json.dumps(entry, separators=(",", ":"), default=str)
                )
            except Exception:
                self._errors += 1
            if len(wires) >= self.flush_every:
                self._write(wires)
                wires = []
        if wires:
            self._write(wires)

    def _write(self, wires: List[str]) -> None:
        """Append a batch; flush always, fsync at the cadence."""
        try:
            with self._lock:
                if self._handle is None:
                    return
                payload = "\n".join(wires) + "\n"
                self._handle.write(payload)
                self._handle.flush()
                self._bytes += len(payload.encode("utf-8"))
                self._flushes += 1
                self._since_fsync += len(wires)
                if self._since_fsync >= self.fsync_every:
                    os.fsync(self._handle.fileno())
                    self._fsyncs += 1
                    self._since_fsync = 0
        except Exception:
            self._errors += 1

    def stop(self) -> Dict[str, Any]:
        """Drain, flush, fsync and close the archive; returns a summary.

        Idempotent: stopping an inactive recorder reports the last
        archive (or an empty summary) without raising.
        """
        with self._lock:
            self.active = False
            writer = self._writer
            self._writer = None
        if writer is not None:
            self._halt.set()
            writer.join(timeout=30)
        with self._lock:
            handle = self._handle
            if handle is not None:
                self._handle = None
                try:
                    handle.flush()
                    os.fsync(handle.fileno())
                    self._fsyncs += 1
                finally:
                    handle.close()
            return {
                "path": self.path,
                "requests": self._seq,
                "bytes": self._bytes,
                "flushes": self._flushes,
                "fsyncs": self._fsyncs,
                "dropped": self._dropped,
                "errors": self._errors,
            }

    def status(self) -> Dict[str, Any]:
        """RECORD STATUS payload (also useful for tests/benchmarks)."""
        with self._lock:
            return {
                "recording": self.active,
                "path": self.path,
                "requests": self._seq,
                "pending": len(self._queue),
                "bytes": self._bytes,
                "flushes": self._flushes,
                "fsyncs": self._fsyncs,
                "dropped": self._dropped,
                "errors": self._errors,
            }
