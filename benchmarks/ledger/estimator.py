"""The floor estimator.

This host drops into multi-second modes in which everything runs about
1.6x slower, so no raw mean, median or p99 of one run repeats.  What
does repeat is each request's *minimum* latency over many replays of a
fixed schedule.  ``Floors`` keeps that minimum per slot; every timing
the ledger prints is a statistic over slots of those floors.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Hashable, Iterable, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Floors:
    """Per-slot minimum latency over rounds, plus the raw samples.

    A slot that ever fails (error or refusal envelope, timeout, oracle
    mismatch) has no floor: it is reported in ``failed`` and left out
    of every statistic.
    """

    def __init__(self) -> None:
        self._samples: Dict[Hashable, List[float]] = {}
        self._failed: set = set()
        self.attempted = 0
        self.failures = 0

    def add(self, slot: Hashable, seconds: float) -> None:
        self.attempted += 1
        self._samples.setdefault(slot, []).append(seconds)

    def fail(self, slot: Hashable) -> None:
        self.attempted += 1
        self.failures += 1
        self._failed.add(slot)

    def record(self, slot: Hashable, seconds: float, ok: bool) -> None:
        """``add`` when the operation's result checked out, else ``fail``."""
        if ok:
            self.add(slot, seconds)
        else:
            self.fail(slot)

    def count_only(self, other: "Floors") -> None:
        """Account for ``other``'s operations without keeping its samples
        (a warm-up round): its attempts and failures count, and a slot it
        failed stays failed."""
        self.attempted += other.attempted
        self.failures += other.failures
        self._failed |= other._failed

    def slots(self) -> List[Hashable]:
        return [s for s in self._samples if s not in self._failed]

    def floor(self, slot: Hashable) -> Optional[float]:
        if slot in self._failed or slot not in self._samples:
            return None
        return min(self._samples[slot])

    def floors(self, keep=None) -> List[float]:
        return [
            min(self._samples[s])
            for s in self.slots()
            if keep is None or keep(s)
        ]

    def rounds(self) -> int:
        """Samples held by the least-sampled live slot."""
        live = self.slots()
        return min((len(self._samples[s]) for s in live), default=0)

    def raw(self) -> List[float]:
        return [x for s in self.slots() for x in self._samples[s]]

    def noise_ratio(self) -> float:
        """Sum of per-slot raw medians over the sum of floors."""
        live = self.slots()
        floor_sum = sum(min(self._samples[s]) for s in live)
        if not floor_sum:
            return float("nan")
        return sum(statistics.median(self._samples[s]) for s in live) / floor_sum


def spread(values: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles, IQR/median, (max-min)/median and the largest
    single deviation from the median, as a share of it."""
    data = sorted(values)
    if len(data) < 2:
        raise ValueError("spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(data, n=4)
    median = statistics.median(data)
    return {
        "n": len(data),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_rel": (q3 - q1) / median if median else float("inf"),
        "range_rel": (data[-1] - data[0]) / median if median else float("inf"),
        "worst_rel": (max(median - data[0], data[-1] - median) / median
                      if median else float("inf")),
        "min": data[0],
        "max": data[-1],
    }
