"""What the host was doing while a run measured (diagnostics only).

A floor cannot dodge a slow mode that outlasts the run.  These two
ratios, read from ``/proc/stat``, say whether one was likely: time
stolen by the hypervisor, and how busy the CPUs the harness is *not*
pinned to were (a busy sibling slows the pinned one).
"""

from __future__ import annotations

import os
import platform
from typing import Dict, List


def info() -> Dict[str, object]:
    """The first line of every report."""
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def snapshot() -> Dict[str, List[int]]:
    """Per-CPU jiffies from ``/proc/stat`` (empty where there is none)."""
    try:
        with open("/proc/stat") as handle:
            return {fields[0]: [int(x) for x in fields[1:]]
                    for fields in (line.split() for line in handle)
                    if fields[0].startswith("cpu") and fields[0] != "cpu"}
    except OSError:
        return {}


def since(before: Dict[str, List[int]]) -> Dict[str, float]:
    after = snapshot()
    mine = {f"cpu{n}" for n in os.sched_getaffinity(0)} if before else set()
    steal = total = other_busy = other_total = 0
    for cpu, then in before.items():
        delta = [b - a for a, b in zip(then, after.get(cpu, then))]
        # user nice system idle iowait irq softirq steal ...
        total += sum(delta[:8])
        steal += delta[7]
        if cpu not in mine:
            other_total += sum(delta[:8])
            other_busy += sum(delta[:8]) - delta[3] - delta[4]
    return {
        "host.steal_ratio": steal / total if total else 0.0,
        "host.other_cpus_busy": other_busy / other_total if other_total else 0.0,
    }
