"""One maintained fixpoint per predicate closure.

A :class:`Materialization` owns the derived relations of one
predicate's rule closure and keeps them equal to what a from-scratch
semi-naive evaluation of that closure would produce, under EDB inserts
and retractions.  It has no fixpoint loop of its own: the build, every
insert, counting's deletion pass, DRed's over-deletion and its
rederivation all run on the evaluator's semi-naive loop
(:meth:`~repro.engine.seminaive.SemiNaiveEvaluator.fixpoint`), and
differ only in what they track as deltas and what one derivation does:

* **Build** is :meth:`SemiNaiveEvaluator.evaluate
  <repro.engine.seminaive.SemiNaiveEvaluator.evaluate>` on the
  closure's rules — the view *is* a fresh fixpoint.
* **Inserts** seed the loop with the mutation batch's log windows;
  new head rows grow the materialized relations.
* **Retractions** on a *non-recursive* closure use counting: every
  derivation the build enumerated incremented a per-tuple count, so a
  deletion pass decrements exactly the derivations lost and a tuple
  dies when its count reaches zero.  The loop's earlier-slots-new /
  later-slots-old discipline counts a derivation that lost several
  body tuples once.
* **Retractions** on a *recursive* closure run DRed: over-delete
  everything with a derivation through a deleted tuple (joins against
  the *old* state, reconstructed by overlaying the removed rows on the
  mutated base relations), then rederive survivors that still have an
  alternative derivation, then propagate the rederived rows as inserts.

A closure with stratified negation is still *materializable* but not
incrementally maintainable here; :meth:`apply` falls back to
:meth:`refresh` (recompute and diff).  Closures over functional
builtins are rejected upstream (:mod:`repro.analysis.depgraph`) — their
extensions are unbounded.

Failure containment: if maintenance faults mid-flight (e.g. injected
chaos), :meth:`apply` marks the view dirty and reports the mutations it
*did* make, so delta feeds stay truthful; the next touch recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.depgraph import DependencyGraph
from ..datalog.literals import Predicate
from ..datalog.rules import Rule
from ..datalog.unify import unify_sequences
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database, MutationBatch, RelationDelta
from ..engine.joins import CompiledBody, compile_body, evaluate_body
from ..engine.relation import OverlayRelation, Relation, Row
from ..engine.seminaive import SemiNaiveEvaluator

__all__ = ["ApplyResult", "Materialization"]

#: ``predicate -> {row: +1 | -1}`` — the net mutations one maintenance
#: run made to the materialized relations.
Changes = Dict[Predicate, Dict[Row, int]]


@dataclass
class ApplyResult:
    """What one :meth:`Materialization.apply` run did."""

    changes: Changes = field(default_factory=dict)
    rederived: int = 0
    recomputed: bool = False
    failed: bool = False


class Materialization:
    """The maintained derived relations of one predicate closure."""

    def __init__(
        self,
        database: Database,
        graph: DependencyGraph,
        predicate: Predicate,
    ):
        info = graph.info(predicate)
        self.database = database
        self.graph = graph
        self.registry = graph.registry
        self.predicate = predicate
        self.closure = info.preds
        self.idb = info.idb
        self.subprogram = graph.subprogram(predicate)
        self.rules: List[Rule] = self.subprogram.rules
        #: Incremental maintenance applies (definite, non-functional)?
        self.supported = info.maintainable
        self.recursive = not self.idb.isdisjoint(graph.recursive)
        #: Materialized relations, one per derived predicate of the closure.
        self.relations: Dict[Predicate, Relation] = {}
        #: Counting fast path state (non-recursive closures only):
        #: per-tuple derivation counts.
        self.counts: Optional[Dict[Predicate, Dict[Row, int]]] = None
        #: Needs a recompute before it can be trusted again.
        self.dirty = True
        #: Pinned views (active subscriptions) are maintained eagerly
        #: even when unsupported — via recompute-and-diff.
        self.pinned = False
        # Cumulative stats.
        self.maintenance_runs = 0
        self.rederivations = 0
        self.failures = 0
        # The fixpoint loop maintenance runs on, and its variants of the
        # closure's rules with every closure predicate tracked.  A rule
        # without a positive body literal never sees a delta, so it
        # never fires again after the build.
        self._engine = SemiNaiveEvaluator(database, self.registry)
        self._plan = [
            entry
            for entry in self._engine.variants(self.rules, self.closure)
            if entry.slots
        ]
        self._changes: Changes = {}
        self._run_rederived = 0
        # Per derived predicate, its rules with each body compiled for
        # a seed that binds the head: what rederivation probes.
        self._derivations: Dict[Predicate, List[Tuple[Rule, CompiledBody]]] = {}

    # ------------------------------------------------------------------
    # Full (re)computation
    # ------------------------------------------------------------------
    def refresh(self, ctx: EvalContext = DISABLED) -> Changes:
        """Recompute from scratch; returns the diff against the old state.

        The whole rebuild (evaluation + diff) is one ``stage`` /
        ``ivm_refresh`` span of ``ctx``."""
        span = ctx.begin("stage", "ivm_refresh")
        try:
            return self._refresh(ctx)
        finally:
            ctx.end(span, predicate=str(self.predicate))

    def _refresh(self, ctx: EvalContext) -> Changes:
        old = self.relations
        counts = on_derive = None
        if self.supported and not self.recursive:
            counts = {p: {} for p in self.idb}

            def on_derive(predicate: Predicate, row: Row) -> None:
                tally = counts[predicate]
                tally[row] = tally.get(row, 0) + 1

            for predicate in self.idb:
                for row in self.database.get(predicate) or ():
                    on_derive(predicate, row)
        result = SemiNaiveEvaluator(
            self.database, self.registry, ctx=ctx
        ).evaluate(self.subprogram, on_derive=on_derive)
        relations = {p: result.relation(p.name, p.arity) for p in self.idb}
        changes: Changes = {}
        for predicate, relation in relations.items():
            before = old.get(predicate)
            delta: Dict[Row, int] = {}
            for row in relation:
                if before is None or row not in before:
                    delta[row] = 1
            if before is not None:
                for row in before:
                    if row not in relation:
                        delta[row] = -1
            if delta:
                changes[predicate] = delta
        self.relations = relations
        self.counts = counts
        self.dirty = False
        return changes

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply(self, batch: MutationBatch) -> ApplyResult:
        """Fold one committed mutation batch into the materialization.

        Never raises: a failure mid-maintenance marks the view dirty
        (the next touch recomputes) and the result reports exactly the
        mutations that *did* land, so subscribers' delta feeds remain
        consistent with the materialized state.
        """
        self.maintenance_runs += 1
        self._changes = {}
        self._run_rederived = 0
        recomputed = False
        failed = False
        try:
            if self.dirty or not self.supported:
                changes = self.refresh()
                recomputed = True
            else:
                removed = {
                    p: d
                    for p, d in batch.deltas.items()
                    if p in self.closure and d.removed
                }
                added = {
                    p: d
                    for p, d in batch.deltas.items()
                    if p in self.closure and d.added
                }
                if removed:
                    if self.counts is not None:
                        self._counting_delete(batch, removed)
                    else:
                        self._dred_delete(batch, removed)
                if added:
                    self._insert(added)
                changes = self._prune(self._changes)
        except Exception:
            self.dirty = True
            self.failures += 1
            failed = True
            changes = self._prune(self._changes)
        self.rederivations += self._run_rederived
        return ApplyResult(
            changes=changes,
            rederived=self._run_rederived,
            recomputed=recomputed,
            failed=failed,
        )

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _lookup(self, predicate: Predicate):
        relation = self.relations.get(predicate)
        if relation is not None:
            return relation
        return self.database.get(predicate)

    def _drive(self, logs, derive, views=None, lookup=None) -> None:
        """One delta run of the fixpoint loop over the closure's rules."""
        self._engine.fixpoint(
            self._plan, logs, lookup or self._lookup, Counters(), derive, views
        )

    def _growth_logs(self) -> Dict[Predicate, Tuple[Relation, int]]:
        """Every closure predicate's current relation as its delta log,
        with an empty delta: what is appended from here on is new."""
        logs = {}
        for predicate in self.closure:
            log = self._lookup(predicate)
            if log is None:
                log = Relation(predicate.name, predicate.arity)
            logs[predicate] = (log, log.mark())
        return logs

    def _removal_logs(
        self, removed: Dict[Predicate, RelationDelta]
    ) -> Dict[Predicate, Tuple[Relation, int]]:
        """Fresh delta logs for a deletion pass: the batch's removed
        rows for stored predicates; derived ones fill as rows go."""
        logs = {}
        for predicate in self.closure:
            log = Relation(predicate.name, predicate.arity)
            if predicate not in self.idb and predicate in removed:
                log.add_all(removed[predicate].removed)
            logs[predicate] = (log, 0)
        return logs

    def _grow(self, predicate: Predicate, row: Row) -> None:
        """One derivation (or direct assertion) of ``row`` gained."""
        if self.counts is not None:
            tally = self.counts[predicate]
            tally[row] = tally.get(row, 0) + 1
        if self.relations[predicate].add(row):
            self._note(predicate, row, +1)

    def _note(self, predicate: Predicate, row: Row, sign: int) -> None:
        bucket = self._changes.setdefault(predicate, {})
        net = bucket.get(row, 0) + sign
        if net == 0:
            bucket.pop(row, None)
        else:
            bucket[row] = net

    @staticmethod
    def _prune(changes: Changes) -> Changes:
        return {p: rows for p, rows in changes.items() if rows}

    # ------------------------------------------------------------------
    # Inserts (both paths)
    # ------------------------------------------------------------------
    def _insert(self, added: Dict[Predicate, RelationDelta]) -> None:
        logs = self._growth_logs()
        for predicate, d in added.items():
            if predicate in self.idb:
                # EDB facts asserted directly on a derived predicate.
                for row in d.added:
                    self._grow(predicate, row)
            else:
                logs[predicate] = (logs[predicate][0], d.window[0])
        self._drive(logs, self._grow)

    # ------------------------------------------------------------------
    # Counting deletion (non-recursive closures)
    # ------------------------------------------------------------------
    def _counting_delete(
        self,
        batch: MutationBatch,
        removed: Dict[Predicate, RelationDelta],
    ) -> None:
        add_lo = {
            p: d.window[0] for p, d in batch.deltas.items() if d.added
        }

        def current(predicate: Predicate):
            # The deletion pass evaluates against the post-delete,
            # *pre-insert* state: batch additions already sit in the
            # stored relations' logs, so window them out.
            relation = self.relations.get(predicate)
            if relation is not None:
                return relation
            stored = self.database.get(predicate)
            if stored is not None and predicate in add_lo:
                return stored.window(0, add_lo[predicate])
            return stored

        def views(predicate: Predicate, delta):
            # Rows whose count reached zero leave the view as they
            # become the delta — not while the round that killed them
            # still reads it — so earlier slots read the view without
            # the delta and later slots the view with it.
            view = current(predicate)
            if delta is None:
                return view, view
            if predicate in self.idb:
                for row in delta:
                    if view.discard(row):
                        self._note(predicate, row, -1)
            return view, OverlayRelation(view, delta)

        logs = self._removal_logs(removed)

        def lose(predicate: Predicate, row: Row) -> None:
            tally = self.counts[predicate]
            count = tally[row]
            if count > 1:
                tally[row] = count - 1
            else:
                del tally[row]
                logs[predicate][0].add(row)

        for predicate, d in removed.items():
            if predicate in self.idb:
                for row in d.removed:
                    lose(predicate, row)
        self._drive(logs, lose, views, current)

    # ------------------------------------------------------------------
    # DRed deletion (recursive closures)
    # ------------------------------------------------------------------
    def _dred_delete(
        self,
        batch: MutationBatch,
        removed: Dict[Predicate, RelationDelta],
    ) -> None:
        add_lo = {
            p: d.window[0] for p, d in batch.deltas.items() if d.added
        }
        logs = self._removal_logs(removed)

        def old(predicate: Predicate):
            # Phase 1 joins run against the pre-batch state.  The
            # materialized relations still hold it (nothing discarded
            # yet); stored relations need the batch's additions windowed
            # out and its removals overlaid back in.
            relation = self.relations.get(predicate)
            if relation is not None:
                return relation
            stored = self.database.get(predicate)
            if stored is None:
                return None
            base = stored
            if predicate in add_lo:
                base = stored.window(0, add_lo[predicate])
            if predicate in removed:
                base = OverlayRelation(base, logs[predicate][0])
            return base

        def views(predicate: Predicate, delta):
            view = old(predicate)
            return view, view

        # Phase 1: over-delete — everything with a derivation through a
        # removed tuple, transitively.  The derived predicates' logs
        # collect the over-deleted rows, so each round's delta is what
        # the round before newly over-deleted.
        deleted = {p: logs[p][0] for p in self.idb}

        def drop(predicate: Predicate, row: Row) -> None:
            deleted[predicate].add(row)

        for predicate, d in removed.items():
            if predicate in self.idb:
                for row in d.removed:
                    if row in self.relations[predicate]:
                        drop(predicate, row)
        self._drive(logs, drop, views, old)

        # Phase 2: physically discard the over-deleted rows.
        for predicate, rows in deleted.items():
            relation = self.relations[predicate]
            for row in rows:
                if relation.discard(row):
                    self._note(predicate, row, -1)

        # Phase 3: rederive survivors — over-deleted rows that still
        # have a derivation from the remaining state (or are themselves
        # surviving EDB facts), then propagate them as inserts so
        # anything downstream of a survivor comes back too.
        logs = self._growth_logs()
        for predicate, rows in deleted.items():
            stored = self.database.get(predicate)
            for row in rows:
                if (stored is not None and row in stored) or self._has_derivation(
                    predicate, row
                ):
                    self._grow(predicate, row)
        self._drive(logs, self._grow)
        self._run_rederived += sum(
            row in self.relations[p] for p, rows in deleted.items() for row in rows
        )

    def _has_derivation(self, predicate: Predicate, row: Row) -> bool:
        derivations = self._derivations.get(predicate)
        if derivations is None:
            derivations = self._derivations[predicate] = [
                (
                    rule,
                    compile_body(
                        rule.body,
                        self.registry,
                        initially_bound={v.name for v in rule.head.variables()},
                    ),
                )
                for rule in self.graph.rules_for(predicate)
            ]
        for rule, body in derivations:
            theta = unify_sequences(rule.head.args, row)
            if theta is None:
                continue
            if (
                next(
                    iter(evaluate_body(body, self._lookup, self.registry, theta)),
                    None,
                )
                is not None
            ):
                return True
        return False
