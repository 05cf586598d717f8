"""repro.profile — wall-clock/allocation span profiling.

The timing counterpart of :mod:`repro.observe`: the tracer records
*what* an evaluation did (deltas, probes, expansion ratios); the
profiler records *where the time and memory went* (per-round,
per-rule, per-phase spans).  Same plumbing — both ride on the
evaluation's :class:`~repro.engine.context.EvalContext`.

* :class:`SpanProfiler` / :class:`Span` — the recorder
  (:func:`time.perf_counter_ns` timing, opt-in :mod:`tracemalloc`
  memory sampling, bounded buffer, thread-safe);
* :func:`profile_report` / :func:`render_profile` — per-rule and
  per-predicate time attribution (self vs cumulative, % of wall,
  observed tuples/sec);
* :func:`chrome_trace` — export as Chrome-trace/Perfetto JSON for
  flamegraph inspection.

See ``docs/observability.md`` ("Profiling & the slow-query log").
"""

from .report import chrome_trace, profile_report, render_profile
from .spans import Span, SpanProfiler

__all__ = [
    "Span",
    "SpanProfiler",
    "profile_report",
    "render_profile",
    "chrome_trace",
]
