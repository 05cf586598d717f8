"""The ledger: one floor-estimator benchmark for the whole system.

Four workloads (``serve-hot``, ``serve-cold``, ``serve-rw``,
``paper-batch``), twelve end-to-end metrics and a per-layer budget; see
``README.md`` in this directory for the catalogue and the noise
evidence.  ``python -m benchmarks.ledger --help`` lists the modes; the
driver contract (``BENCHMARK.json``) runs ``run.py``.
"""

import sys
from pathlib import Path

# Like the other benchmarks: measure the checkout's own ``src`` without
# asking for PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
