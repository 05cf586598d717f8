"""Pinned digests of the oracle's answers (``expected/seed-<n>.json``).

The oracle is what decides ``correct``; a change to it, or to a
fixture generator, should be visible in review.  For each committed
seed the file holds one digest per group of expected answers, and a
run on that seed fails if its inputs no longer hash to them.
``--update-expected`` rewrites the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from . import spec
from .fixtures import Inputs, Scale, build_inputs

DIRECTORY = Path(__file__).resolve().parent / "expected"


def _path(seed: int, scale: Scale) -> Path:
    return DIRECTORY / f"seed-{seed}{'-smoke' if scale.smoke else ''}.json"


def check(inputs: Inputs) -> Optional[str]:
    """A problem line if the inputs drifted from the committed digests."""
    path = _path(inputs.seed, inputs.scale)
    if not path.exists():
        return None
    pinned = json.loads(path.read_text()).get(inputs.workload)
    if pinned != inputs.pins():
        return (f"expected answers for seed {inputs.seed} differ from {path.name}; "
                "if the oracle or a fixture changed on purpose, run "
                "--update-expected")
    return None


def update(seed: int, scale: Scale) -> Path:
    DIRECTORY.mkdir(exist_ok=True)
    path = _path(seed, scale)
    path.write_text(json.dumps(
        {w: build_inputs(w, seed, scale).pins() for w in spec.WORKLOADS},
        indent=1, sort_keys=True) + "\n")
    return path
