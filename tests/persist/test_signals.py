"""Graceful SIGTERM/SIGINT shutdown, in-process and with a worker pool.

One signal must drive one orderly path: stop accepting, flush + close
the WAL (with a final checkpoint), finalize any workload capture, and
exit 0 — so an orchestrator's ordinary stop never tears state.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.persist import list_snapshots, recover_database, scan_wal
from repro.persist.manager import WAL_SUBDIR

PROGRAM = "path(X, Y) :- edge(X, Y).\n"

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def _spawn(tmp_path, *, pooled, record=None, data_dir=None):
    program = tmp_path / "program.pl"
    program.write_text(PROGRAM)
    cmd = [
        sys.executable,
        "-m",
        "repro",
        str(program),
        "--serve",
        "--port",
        "0",
        "--workers",
        "1" if pooled else "0",
    ]
    if record is not None:
        cmd += ["--record", record]
    if data_dir is not None:
        cmd += ["--data-dir", data_dir, "--fsync", "off"]
    env = dict(os.environ, PYTHONPATH=_SRC)
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


def _mutate(address, count=5):
    with socket.create_connection(address, timeout=10) as sock:
        file = sock.makefile("rw", encoding="utf-8")
        for i in range(count):
            file.write(f"FACT edge(s{i}, t{i}).\n")
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] and reply["added"]


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_signal_shutdown_flushes_durable_store(tmp_path, pooled, sig):
    data_dir = str(tmp_path / "store")
    proc, address = _spawn(tmp_path, pooled=pooled, data_dir=data_dir)
    try:
        _mutate(address)
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    # The close checkpoint covers everything: recovery needs no replay,
    # and the log scans clean (no torn tail).
    database, info = recover_database(data_dir)
    assert info.replayed == 0
    assert info.snapshot_path is not None
    assert len(database.relation("edge", 2)) == 5
    _, torn = scan_wal(os.path.join(data_dir, WAL_SUBDIR))
    assert torn is None
    assert list_snapshots(data_dir)


@pytest.mark.parametrize("pooled", [False, True])
def test_signal_shutdown_finalizes_capture(tmp_path, pooled):
    archive = str(tmp_path / "capture.jsonl")
    proc, address = _spawn(tmp_path, pooled=pooled, record=archive)
    try:
        _mutate(address, count=3)
        # The pipe buffers the capture banner; the mutations above
        # prove the server was live before the signal.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    from repro.observe import load_archive

    header, records = load_archive(archive)
    assert header["kind"] == "header"
    assert len(records) == 3


def test_sigterm_mid_storm_still_exits_zero(tmp_path):
    """A signal racing live traffic drains instead of tearing down."""
    data_dir = str(tmp_path / "store")
    proc, address = _spawn(tmp_path, pooled=False, data_dir=data_dir)
    acked = 0
    try:
        with socket.create_connection(address, timeout=10) as sock:
            file = sock.makefile("rw", encoding="utf-8")
            deadline = time.monotonic() + 0.2
            i = 0
            while time.monotonic() < deadline:
                file.write(f"FACT edge(a{i}, b{i}).\n")
                file.flush()
                try:
                    reply = json.loads(file.readline())
                except ValueError:
                    break
                if reply.get("ok"):
                    acked += 1
                i += 1
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    database, _ = recover_database(data_dir)
    assert len(database.relation("edge", 2)) >= acked


def test_sigkill_leaves_no_worker_behind(tmp_path):
    """A forked worker kept a copy of the parent's end of its own pipe,
    so a SIGKILLed server never read as EOF and the worker lived on —
    holding the listening socket (connects kept succeeding) and the WAL."""
    proc, address = _spawn(
        tmp_path, pooled=True, data_dir=str(tmp_path / "store")
    )
    try:
        _mutate(address)
        with socket.create_connection(address, timeout=10) as sock:
            file = sock.makefile("rw", encoding="utf-8")
            # Forks a fresh worker generation past the mutations.
            file.write("QUERY path(s0, Y)\n")
            file.flush()
            assert json.loads(file.readline())["count"] == 1
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while True:
            try:
                socket.create_connection(address, timeout=1).close()
            except ConnectionRefusedError:
                break  # nothing holds the port any more
            assert time.monotonic() < deadline, "an orphaned worker survives"
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
