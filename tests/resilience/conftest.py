"""On test failure, dump flight-recorder + slowlog diagnostics.

When ``REPRO_DIAG_DIR`` is set (CI does this for the smoke jobs),
every failing test triggers :func:`repro.observe.dump_diagnostics`:
each live session's reqlog, slowlog and health snapshot is written
under that directory and uploaded as a workflow artifact, so storm
failures are diagnosable post-hoc instead of lost with the runner.
"""

import os

import pytest

from tests.service.conftest import serve  # noqa: F401  (shared fixture)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    directory = os.environ.get("REPRO_DIAG_DIR")
    if directory and report.when == "call" and report.failed:
        from repro.observe import dump_diagnostics

        dump_diagnostics(directory, label=item.nodeid)
