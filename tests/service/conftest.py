"""On test failure, dump flight-recorder + slowlog diagnostics.

When ``REPRO_DIAG_DIR`` is set (CI does this for the smoke jobs),
every failing test triggers :func:`repro.observe.dump_diagnostics`:
each live session's reqlog, slowlog and health snapshot is written
under that directory and uploaded as a workflow artifact, so storm
failures are diagnosable post-hoc instead of lost with the runner.
"""

import contextlib
import io
import logging
import os

import pytest

from repro.observe.jsonlog import configure_logging
from repro.service import AsyncQueryServer


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    directory = os.environ.get("REPRO_DIAG_DIR")
    if directory and report.when == "call" and report.failed:
        from repro.observe import dump_diagnostics

        dump_diagnostics(directory, label=item.nodeid)


@pytest.fixture
def log_stream():
    """The ``repro`` logger tree as JSON lines, at info level."""
    stream = io.StringIO()
    configure_logging(json_mode=True, level="info", stream=stream)
    yield stream
    # Restore the library default: handler removed, tree quiet.
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_handler", False):
            root.removeHandler(handler)
    root.setLevel(logging.WARNING)


@pytest.fixture
def serve():
    """``serve(session, **options)`` starts the in-process loop server
    (``AsyncQueryServer(session, workers=0)``) and returns it; every
    server started this way is shut down with the test."""
    with contextlib.ExitStack() as servers:
        yield lambda session, **options: servers.enter_context(
            AsyncQueryServer(session, workers=0, **options)
        )
