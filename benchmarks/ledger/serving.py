"""Real ``python -m repro ... --serve`` subprocesses and one TCP client.

Host discipline lives here: ``PYTHONHASHSEED=0`` for every child, one
client connection with ``TCP_NODELAY``, and a registry that kills any
server still alive when the harness leaves (normally or not).
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
#: Scratch space inside the checkout (ignored by git).
WORK = Path(__file__).resolve().parent / "_work"

REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(args: Sequence[str], timeout: float = 60.0) -> Tuple[float, int, str]:
    """One ``python -m repro`` invocation: (seconds, exit code, stdout)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=timeout, cwd=str(WORK),
    )
    return time.perf_counter() - start, done.returncode, done.stdout


class Server:
    """One served process plus the single client connection to it."""

    _live: List["Server"] = []

    def __init__(self, program: Path, flags: Sequence[str] = ()):
        WORK.mkdir(parents=True, exist_ok=True)
        self.spawned = time.perf_counter()
        self._stderr = open(WORK / "server.stderr", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", str(program), "--serve",
             "--port", "0", *flags],
            stdout=subprocess.PIPE, stderr=self._stderr, env=child_env(),
            cwd=str(WORK),
        )
        Server._live.append(self)
        try:
            banner = self._banner()
            self.port = int(banner.split()[3].rsplit(":", 1)[1])
            self.sock = socket.create_connection(
                ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
        except BaseException:
            self.kill()
            raise
        self.reply_bytes = 0

    def _banner(self) -> str:
        """The first stdout line (flushed by the server), read off the raw
        descriptor so a server that dies first is an error, not a hang."""
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + START_TIMEOUT_S
        buffered = b""
        while b"\n" not in buffered:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise TimeoutError("server printed no banner")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited before its banner (see {WORK / 'server.stderr'})")
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if not line.startswith("repro serving on "):
            raise RuntimeError(f"unexpected banner: {line!r}")
        return line

    # -- requests ------------------------------------------------------
    def request(self, line: str) -> Tuple[float, Optional[dict]]:
        """Closed-loop round trip: (seconds, envelope or None on failure)."""
        payload = line.encode() + b"\n"
        start = time.perf_counter()
        try:
            self.sock.sendall(payload)
            raw = self.reader.readline()
        except OSError:
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        self.reply_bytes += len(raw)
        try:
            return elapsed, json.loads(raw)
        except ValueError:
            return elapsed, None

    def burst(self, lines: Sequence[str]) -> Tuple[float, List[Optional[dict]]]:
        """One socket write of every line, then one read per reply."""
        payload = b"".join(line.encode() + b"\n" for line in lines)
        replies: List[Optional[dict]] = []
        start = time.perf_counter()
        try:
            self.sock.sendall(payload)
            raws = [self.reader.readline() for _ in lines]
        except OSError:
            return time.perf_counter() - start, [None] * len(lines)
        elapsed = time.perf_counter() - start
        for raw in raws:
            try:
                replies.append(json.loads(raw))
            except ValueError:
                replies.append(None)
        return elapsed, replies

    def stats(self) -> dict:
        _, envelope = self.request("STATS")
        if not envelope or not envelope.get("ok"):
            raise RuntimeError(f"STATS failed: {envelope!r}")
        return envelope["stats"]

    # -- lifetime ------------------------------------------------------
    def tree(self) -> List[int]:
        """The server's pid and every descendant (forked workers)."""
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                    parents[int(entry)] = int(fields[1])
                except (OSError, IndexError, ValueError):
                    continue
        pids = [self.process.pid]
        for pid in pids:
            pids.extend(child for child, parent in parents.items() if parent == pid)
        return pids

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the process tree, in MB."""
        total_kb = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole tree and wait for it (the crash under test)."""
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        self._end(signal.SIGTERM)

    def _end(self, sig: int) -> None:
        if self in Server._live:
            Server._live.remove(self)
        pids = self.tree() if self.process.poll() is None else []
        for closer in (getattr(self, "reader", None), getattr(self, "sock", None)):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        if self.process.poll() is None:
            self.process.send_signal(sig)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # SIGKILL orphans forked workers; they notice the dead parent,
        # but do not leave that to chance.
        for pid in pids[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids[1:]:
            _wait_gone(pid)
        self.process.stdout.close()
        self._stderr.close()

    @classmethod
    def kill_all(cls) -> None:
        for server in list(cls._live):
            server.kill()


def _wait_gone(pid: int, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return  # a zombie is reaped by init, not by us
        except OSError:
            return
        time.sleep(0.005)
