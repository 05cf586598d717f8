"""The kill-storm chaos harness: SIGKILL a serving process mid-write.

Each cycle starts a real ``python -m repro --serve --data-dir`` process,
storms it with acknowledged FACT/RETRACT mutations from a client
thread, and SIGKILLs it at a crc32-scheduled moment — landing kills
mid-append, mid-checkpoint (the ``REPRO_PERSIST_CHAOS_DELAY_S`` hook
widens that window) and mid-segment-rotation (tiny segments).  After
every kill the store is recovered read-only and compared against a
reference database that replays the same prefix of the sent mutation
sequence: EDB rows, version counters (global and per-relation), IVM
view contents and query answers must all be bit-identical, and the
recovered prefix must cover every acknowledged mutation.  Then the
server is restarted on the same store, must report a green
``/healthz``, and must answer queries identically over the wire —
and the storm continues into the next cycle.

``REPRO_KILLSTORM_CYCLES`` scales the number of kill cycles (the CI
``durability-smoke`` job runs 50; the default keeps tier-1 fast).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.datalog.literals import Predicate
from repro.engine.database import Database
from repro.ivm.manager import ViewManager
from repro.persist import recover_database
from repro.service import QuerySession

CYCLES = int(os.environ.get("REPRO_KILLSTORM_CYCLES", "6"))
SEED = int(os.environ.get("REPRO_KILLSTORM_SEED", "1992"))

PROGRAM = """\
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""
#: WAL records the initial program load writes (one per rule).
BASE_LSN = 2

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _frac(site, index):
    """Deterministic [0, 1) schedule point, the crc32 idiom."""
    return zlib.crc32(f"{SEED}:{site}:{index}".encode()) / 2**32


def _start_server(data_dir, program_path, pooled):
    cmd = [
        sys.executable,
        "-m",
        "repro",
        program_path,
        "--serve",
        "--port",
        "0",
        "--data-dir",
        data_dir,
        "--fsync",
        "always",
        "--snapshot-every",
        "48",
        "--wal-segment-bytes",
        "2048",
        "--workers",
        "1" if pooled else "0",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(_SRC)
    # Widen the checkpoint's critical window so scheduled kills land
    # mid-snapshot, not just mid-append.
    env["REPRO_PERSIST_CHAOS_DELAY_S"] = "0.03"
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    for _ in range(50):
        line = proc.stdout.readline()
        if line.startswith("repro serving on "):
            address = line.split()[3]
            host, _, port = address.rpartition(":")
            return proc, (host, int(port))
        if not line:
            break
    proc.kill()
    raise AssertionError("server never printed its banner")


class _Storm:
    """Client thread hammering FACT/RETRACT until the socket dies."""

    def __init__(self, address, sent, acked):
        self.address = address
        self.sent = sent      # every op ever sent, in order (all cycles)
        self.acked = acked    # mutable [count] of acknowledged ops
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _next_op(self):
        i = len(self.sent)
        live = [
            op for op in self.sent[: self.acked[0]] if op[0] == "fact"
        ]
        retracted = {op[1:] for op in self.sent if op[0] == "retract"}
        candidates = [op[1:] for op in live if op[1:] not in retracted]
        if i % 5 == 4 and candidates:
            pick = candidates[int(_frac("retract", i) * len(candidates))]
            return ("retract",) + pick
        if i % 3 == 0:
            return ("fact", f"n{i}", f"m{i}")
        return ("fact", "hub", f"n{i}")

    def _run(self):
        try:
            with socket.create_connection(self.address, timeout=10) as sock:
                file = sock.makefile("rw", encoding="utf-8")
                while True:
                    op = self._next_op()
                    kind, x, y = op
                    verb = "FACT" if kind == "fact" else "RETRACT"
                    self.sent.append(op)
                    file.write(f"{verb} edge({x}, {y}).\n")
                    file.flush()
                    reply = json.loads(file.readline())
                    assert reply["ok"], reply
                    assert reply.get("added") or reply.get("removed"), reply
                    self.acked[0] += 1
        except (OSError, ValueError):
            return  # the kill landed

    def start(self):
        self.thread.start()

    def join(self):
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "storm thread wedged"


def _reference_database(sent, count):
    database = Database()
    database.load_source(PROGRAM)
    for kind, x, y in sent[:count]:
        if kind == "fact":
            database.add_fact("edge", (x, y))
        else:
            database.retract_fact("edge", (x, y))
    return database


def _fingerprint(database):
    return (
        {
            str(p): sorted(map(str, rel.rows()))
            for p, rel in database.relations.items()
        },
        database.edb_version,
        database.idb_version,
        {str(p): v for p, v in database.relation_versions.items()},
    )


def _view_rows(database):
    views = ViewManager(database)
    try:
        relations = views.relations_for_query(Predicate("path", 2))
        assert relations is not None
        return sorted(map(str, relations[Predicate("path", 2)].rows()))
    finally:
        views.close()


def _query_rows(database):
    session = QuerySession(database)
    result = session.execute("path(hub, Y)")
    return sorted(", ".join(str(value) for value in row) for row in result.rows)


def _http_get(address, target):
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.decode(), json.loads(body)


@pytest.mark.timeout(600)
def test_kill_storm_recovers_acknowledged_prefix(tmp_path):
    data_dir = str(tmp_path / "store")
    program_path = str(tmp_path / "program.pl")
    with open(program_path, "w") as handle:
        handle.write(PROGRAM)

    sent = []
    acked = [0]
    saw_snapshot_recovery = False
    saw_tail_replay = False

    for cycle in range(CYCLES):
        proc, address = _start_server(
            data_dir, program_path, pooled=cycle % 2 == 1
        )
        try:
            storm = _Storm(address, sent, acked)
            storm.start()
            # Kill at a crc32-scheduled instant while the storm writes;
            # the spread covers mid-append, mid-checkpoint (the chaos
            # delay) and mid-rotation moments.
            time.sleep(0.05 + _frac("kill", cycle) * 0.35)
            proc.send_signal(signal.SIGKILL)
            storm.join()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

        acked_at_kill = acked[0]
        database, info = recover_database(data_dir)
        recovered = database.last_lsn - BASE_LSN
        # The acknowledged prefix is the floor; at most the in-flight
        # tail op may additionally have reached the log.
        assert acked_at_kill <= recovered <= len(sent), (
            f"cycle {cycle}: acked {acked_at_kill}, "
            f"recovered {recovered}, sent {len(sent)}"
        )
        reference = _reference_database(sent, recovered)
        assert _fingerprint(database) == _fingerprint(reference), (
            f"cycle {cycle}: recovered state diverges from the reference "
            f"replay of the first {recovered} mutations"
        )
        assert _view_rows(database) == _view_rows(reference)
        assert _query_rows(database) == _query_rows(reference)
        saw_snapshot_recovery |= info.snapshot_lsn > 0
        saw_tail_replay |= info.replayed > 0

        # Forget unrecovered tail ops: the next cycle's server resumes
        # from the recovered prefix, so the reference must too.
        del sent[recovered:]
        acked[0] = recovered

    # Restart once more and verify liveness + parity over the wire
    # (the query is answered by a worker forked from the recovered store).
    proc, address = _start_server(data_dir, program_path, pooled=True)
    try:
        head, health = _http_get(address, "/healthz")
        assert " 200 " in head.splitlines()[0]
        assert health["status"] == "ok"
        assert health["persist"]["last_lsn"] == len(sent) + BASE_LSN
        with socket.create_connection(address, timeout=10) as sock:
            file = sock.makefile("rw", encoding="utf-8")
            file.write("QUERY path(hub, Y)\n")
            file.flush()
            reply = json.loads(file.readline())
        assert reply["ok"]
        reference = _reference_database(sent, len(sent))
        assert sorted(
            ", ".join(row) for row in reply["answers"]
        ) == _query_rows(reference)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()

    if CYCLES >= 20:
        # A full CI-scale storm must exercise both recovery modes.
        assert saw_snapshot_recovery and saw_tail_replay
