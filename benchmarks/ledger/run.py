#!/usr/bin/env python3
"""Driver entry point: ``python3 benchmarks/ledger/run.py --workload ...``.

Puts the checkout root on the path (the package adds ``src`` itself)
and hands over to the CLI.  In a directory that holds only the
benchmark there is no ``src/repro`` to measure, and this exits
non-zero before printing any result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
