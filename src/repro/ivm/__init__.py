"""Incremental view maintenance for live fact streams.

Maintains materialized derived relations under fact inserts *and*
retractions instead of recomputing them from scratch, reusing the
engine's semi-naive delta machinery (generation windows, delta-first
body variants) as the propagation substrate:

* :mod:`repro.analysis.depgraph` (not in this package) — the one
  dependency analysis: which stored relations a predicate transitively
  depends on, and whether its closure is *maintainable* (definite,
  non-functional), merely *materializable* (stratified negation:
  recompute-and-diff), or *non-materializable* (functional builtins
  build unbounded structures; no view is kept).
* :mod:`repro.ivm.view` — :class:`Materialization`, one maintained
  fixpoint per predicate closure.  Inserts propagate with semi-naive
  delta rounds seeded from the batch's log windows; retractions run
  DRed (over-delete, then rederive survivors) with a counting fast
  path for non-recursive closures.
* :mod:`repro.ivm.manager` — :class:`ViewManager`, the registry wired
  into :class:`~repro.engine.database.Database` mutation batches and
  consulted by :class:`~repro.service.session.QuerySession` for cache
  repair, view-backed answers and SUBSCRIBE delta feeds.
"""

from .manager import MaintenanceReport, MaterializedView, ViewManager
from .view import ApplyResult, Materialization

__all__ = [
    "ApplyResult",
    "MaintenanceReport",
    "MaterializedView",
    "Materialization",
    "ViewManager",
]
