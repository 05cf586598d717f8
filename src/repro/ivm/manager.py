"""The view registry wired between the database and the serving layer.

:class:`ViewManager` owns one :class:`~repro.ivm.view.Materialization`
per derived predicate it has been asked about, registers itself as a
:class:`~repro.engine.database.Database` mutation listener, and after
every committed batch folds the batch into each materialization whose
closure the batch touches.  The per-batch :class:`MaintenanceReport`
(raw EDB deltas + derived deltas per predicate) is what the server's
SUBSCRIBE channel pushes to clients.

On top of the per-closure fixpoints sits a light
:class:`MaterializedView` registry keyed by the plan cache's shape key
``(predicate, adornment, constraint shape)`` — the bookkeeping the
session uses to attribute repairs and view-served answers per cached
query shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.depgraph import DependencyGraph
from ..datalog.literals import Predicate
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.database import Database, MutationBatch
from ..engine.relation import Relation, Row
from .view import Materialization

__all__ = ["MaintenanceReport", "MaterializedView", "ViewManager"]


@dataclass
class MaterializedView:
    """Per plan-shape bookkeeping over a predicate's materialization."""

    key: Tuple
    predicate: Predicate
    hits: int = 0
    repairs: int = 0


@dataclass
class MaintenanceReport:
    """What one committed mutation batch changed, EDB and derived."""

    batch: MutationBatch
    #: predicate -> (added rows, removed rows) for *derived* predicates.
    derived: Dict[Predicate, Tuple[List[Row], List[Row]]] = field(
        default_factory=dict
    )


class ViewManager:
    """Registry of maintained materializations for one database."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        metrics=None,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.metrics = metrics
        self.graph = DependencyGraph(database.program, self.registry)
        self.fixpoints: Dict[Predicate, Materialization] = {}
        self.views: Dict[Tuple, MaterializedView] = {}
        self.last_report: Optional[MaintenanceReport] = None
        #: Net row deltas per predicate since the last ``drain_pending``
        #: — every change to a stored relation or a materialized one
        #: lands here, so the session can patch cached results with
        #: O(delta) work instead of re-filtering whole views.
        self.pending: Dict[Predicate, Dict[Row, int]] = {}
        self._idb_version = database.idb_version
        database.add_mutation_listener(self._on_batch)

    def close(self) -> None:
        self.database.remove_mutation_listener(self._on_batch)

    # ------------------------------------------------------------------
    # Program changes
    # ------------------------------------------------------------------
    def _check_program(self) -> None:
        """Catch rule mutations that bypassed the session's ``_sync``."""
        if self.database.idb_version != self._idb_version:
            self.on_idb_change(
                DependencyGraph(self.database.program, self.registry)
            )

    def on_idb_change(self, graph: DependencyGraph) -> None:
        """Rules changed: every closure and materialization is stale.

        ``graph`` describes the new rules; a session passes its
        planner's, so planning and IVM classify with one instance.
        """
        self._idb_version = self.database.idb_version
        self.graph = graph
        pinned = {p for p, fix in self.fixpoints.items() if fix.pinned}
        self.fixpoints.clear()
        self.views.clear()
        # Rule changes flush every cached result anyway; stale deltas
        # must not patch results cached after the flush.
        self.pending.clear()
        # Re-pin subscribed predicates so their delta feeds survive
        # rule mutations (the first post-change batch recomputes); one
        # that turned functional is refused and simply stays unpinned.
        for predicate in pinned:
            self.ensure_pinned(predicate)

    def rebuild(self, ctx: EvalContext = DISABLED) -> int:
        """Recompute every registered materialization from base state.

        The crash-recovery path: a database restored from a snapshot +
        WAL replay carries correct *relations*, but any materialization
        attached to it (a manager re-bound after restore, or ``repro
        recover --verify`` warming views) reflects the pre-crash run
        and must be rebuilt, not trusted.  Pending deltas are dropped
        for the same reason.  Returns the number refreshed.
        """
        self._check_program()
        self.pending.clear()
        rebuilt = 0
        for fix in self.fixpoints.values():
            fix.dirty = True
            fix.refresh(ctx)
            rebuilt += 1
        return rebuilt

    # ------------------------------------------------------------------
    # Serving-layer entry points
    # ------------------------------------------------------------------
    def register_shape(self, plan) -> MaterializedView:
        from ..core.planner import plan_cache_key

        self._check_program()

        key = plan_cache_key(plan.query, plan.constraints)
        view = self.views.get(key)
        if view is None:
            view = MaterializedView(key=key, predicate=plan.query.predicate)
            self.views[key] = view
        return view

    def relations_for_query(
        self, predicate: Predicate, ctx: EvalContext = DISABLED
    ) -> Optional[Dict[Predicate, Relation]]:
        """Materialized relations to answer a query on ``predicate``.

        Creates the materialization on first use — but only for
        *maintainable* closures, where keeping it current is cheap.
        Merely materializable closures (negation) would recompute per
        mutation, which can cost more than the planner's own bounded
        strategies; they are materialized only when a subscription pins
        them.
        """
        self._check_program()
        if not (
            self.graph.is_idb(predicate) and self.graph.info(predicate).maintainable
        ):
            return None
        fix = self.fixpoints.get(predicate)
        if fix is None:
            fix = Materialization(self.database, self.graph, predicate)
            fix.refresh(ctx)
            self.fixpoints[predicate] = fix
        elif fix.dirty:
            fix.refresh(ctx)
            if self.metrics is not None:
                self.metrics.record_ivm_recompute()
        return fix.relations

    def relations_for_repair(
        self, predicate: Predicate
    ) -> Optional[Dict[Predicate, Relation]]:
        """Relations to re-filter a cached result from, or ``None``.

        ``{}`` means the predicate is stored-only: filter straight off
        the database.  ``None`` means the cached result cannot be
        repaired cheaply and must be evicted.
        """
        self._check_program()
        if not self.graph.is_idb(predicate):
            return {}
        fix = self.fixpoints.get(predicate)
        if fix is None or fix.dirty:
            return None
        return fix.relations

    def ensure_pinned(
        self, predicate: Predicate, ctx: EvalContext = DISABLED
    ) -> Optional[str]:
        """Materialize + pin ``predicate`` for a subscription.

        Returns an error string when the predicate cannot stream deltas
        (functional closure), ``None`` on success.  Stored predicates
        need no materialization — their deltas come straight from the
        mutation batch.
        """
        self._check_program()
        if not self.graph.is_idb(predicate):
            return None
        info = self.graph.info(predicate)
        if not info.materializable:
            return (
                f"{predicate} depends on functional builtins; its extension "
                "is not materializable, so deltas cannot be streamed"
            )
        fix = self.fixpoints.get(predicate)
        if fix is None:
            fix = Materialization(self.database, self.graph, predicate)
            fix.refresh(ctx)
            self.fixpoints[predicate] = fix
        elif fix.dirty:
            fix.refresh(ctx)
        fix.pinned = True
        return None

    # ------------------------------------------------------------------
    # Mutation listener
    # ------------------------------------------------------------------
    def _on_batch(self, batch: MutationBatch) -> None:
        self._check_program()
        touched = set(batch.deltas)
        derived: Dict[Predicate, Dict[Row, int]] = {}
        for fix in list(self.fixpoints.values()):
            if fix.closure.isdisjoint(touched):
                continue
            if not fix.supported and not fix.pinned:
                # Recompute-and-diff per batch is only worth paying
                # while someone is listening; otherwise just go stale.
                fix.dirty = True
                continue
            result = fix.apply(batch)
            for predicate, rows in result.changes.items():
                derived.setdefault(predicate, {}).update(rows)
            # Only the fixpoint's own predicate feeds the delta log:
            # overlapping closures would double-count shared predicates,
            # and a cached result on p is always backed by fixpoints[p].
            own = result.changes.get(fix.predicate)
            if own:
                self._accumulate({fix.predicate: dict(own)})
            if self.metrics is not None:
                self.metrics.record_ivm_maintenance(
                    rederivations=result.rederived,
                    recomputed=result.recomputed,
                    failed=result.failed,
                )
        report = MaintenanceReport(batch=batch)
        for predicate, rows in derived.items():
            adds = [row for row, sign in rows.items() if sign > 0]
            dels = [row for row, sign in rows.items() if sign < 0]
            if adds or dels:
                report.derived[predicate] = (adds, dels)
        self.last_report = report
        raw: Dict[Predicate, Dict[Row, int]] = {}
        for predicate, delta in batch.deltas.items():
            signs = raw.setdefault(predicate, {})
            for row in delta.added:
                signs[row] = 1
            for row in delta.removed:
                signs[row] = -1
        self._accumulate(raw)

    # ------------------------------------------------------------------
    # Delta accounting for cache patching
    # ------------------------------------------------------------------
    def _accumulate(self, changes: Dict[Predicate, Dict[Row, int]]) -> None:
        """Merge one run's net changes into the pending delta log.

        Only ``Materialization.apply`` results and raw batch deltas are
        merged — both report the exact mutations they made (``apply``
        stays truthful even when it fails mid-run), so summing signs
        and dropping zeros keeps ``pending`` equal to the total drift
        of each tracked relation since the last drain.  Out-of-band
        refreshes are deliberately *not* merged: they happen while the
        fixpoint is dirty, and dirtiness already evicts every cached
        result the log would otherwise have to cover.
        """
        for predicate, rows in changes.items():
            bucket = self.pending.setdefault(predicate, {})
            for row, sign in rows.items():
                net = bucket.get(row, 0) + sign
                if net == 0:
                    bucket.pop(row, None)
                else:
                    bucket[row] = net
            if not bucket:
                self.pending.pop(predicate, None)

    def drain_pending(self) -> Dict[Predicate, Dict[Row, int]]:
        """Hand the accumulated deltas to the (single) cache consumer."""
        pending = self.pending
        self.pending = {}
        return pending

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "fixpoints": len(self.fixpoints),
            "pinned": sum(1 for f in self.fixpoints.values() if f.pinned),
            "dirty": sum(1 for f in self.fixpoints.values() if f.dirty),
            "shapes": len(self.views),
            "maintenance_runs": sum(
                f.maintenance_runs for f in self.fixpoints.values()
            ),
            "rederivations": sum(
                f.rederivations for f in self.fixpoints.values()
            ),
            "failures": sum(f.failures for f in self.fixpoints.values()),
        }
