"""One maintained fixpoint per predicate closure.

A :class:`Materialization` owns the derived relations of one
predicate's rule closure and keeps them equal to what a from-scratch
semi-naive evaluation of that closure would produce, under EDB inserts
and retractions:

* **Inserts** propagate with the engine's own semi-naive discipline —
  delta-first body variants (:func:`~repro.engine.seminaive.delta_first_order`)
  over zero-copy generation windows, seeded from the mutation batch's
  log windows, iterated to fixpoint.
* **Retractions** on a *non-recursive* closure use counting: every
  derivation found during the build incremented a per-tuple count, so a
  deletion pass decrements exactly the derivations lost and a tuple
  dies when its count reaches zero.  Derivations are enumerated with
  the earlier-slots-new / later-slots-old window discipline, so a
  derivation that lost several body tuples is still counted once.
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
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.depgraph import DependencyGraph
from ..datalog.literals import Literal, Predicate
from ..datalog.rules import Rule
from ..datalog.unify import unify_sequences
from ..engine.context import DISABLED, EvalContext
from ..engine.database import Database, MutationBatch, RelationDelta
from ..engine.joins import evaluate_body, order_body
from ..engine.relation import OverlayRelation, Relation, Row
from ..engine.seminaive import SemiNaiveEvaluator, delta_first_order, head_row

__all__ = ["ApplyResult", "Materialization"]

#: Safety valve for the propagation loop, same order as the evaluator's.
_MAX_ROUNDS = 100_000

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
        #: Derived predicates of the closure, dependencies first (the
        #: counting path's evaluation order; it runs only when acyclic).
        self.order: List[Predicate] = [
            p for component in graph.components for p in component if p in self.idb
        ]
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
        self._variant_orders: Dict[Tuple[int, int], List[Tuple[int, Literal]]] = {}
        self._changes: Changes = {}
        self._run_rederived = 0

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
        if self.supported and not self.recursive:
            relations, counts = self._counting_build(ctx)
        else:
            result = SemiNaiveEvaluator(
                self.database, self.registry, ctx=ctx
            ).evaluate(self.subprogram)
            relations = {
                p: result.relation(p.name, p.arity) for p in self.idb
            }
            counts = None
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
                if self.counts is not None:
                    if removed:
                        self._counting_delete(batch, removed)
                    if added:
                        self._counting_insert(added)
                else:
                    if removed:
                        self._dred_delete(batch, removed)
                    if added:
                        self._dred_insert(added)
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

    def _variant(self, rule: Rule, slot: int) -> List[Tuple[int, Literal]]:
        key = (id(rule), slot)
        order = self._variant_orders.get(key)
        if order is None:
            order = delta_first_order(rule, slot, self.registry)
            self._variant_orders[key] = order
        return order

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
    # Counting fast path (non-recursive closures)
    # ------------------------------------------------------------------
    def _counting_build(self, ctx: EvalContext):
        relations: Dict[Predicate, Relation] = {}
        counts: Dict[Predicate, Dict[Row, int]] = {}

        def lookup(predicate: Predicate):
            relation = relations.get(predicate)
            if relation is not None:
                return relation
            return self.database.get(predicate)

        for predicate in self.order:
            relation = Relation(predicate.name, predicate.arity)
            tally: Dict[Row, int] = {}
            relations[predicate] = relation
            counts[predicate] = tally
            stored = self.database.get(predicate)
            if stored is not None:
                for row in stored:
                    tally[row] = tally.get(row, 0) + 1
                    relation.add(row)
            for rule in self.graph.rules_for(predicate):
                order = order_body(rule.body, self.registry)
                for subst in evaluate_body(
                    order, lookup, self.registry, {}, ctx=ctx
                ):
                    row = head_row(rule, subst)
                    tally[row] = tally.get(row, 0) + 1
                    relation.add(row)
        return relations, counts

    def _counting_insert(self, added: Dict[Predicate, RelationDelta]) -> None:
        # delta: predicate -> (carrier, lo, hi); the carrier's [lo, hi)
        # log window holds the new rows.
        delta: Dict[Predicate, Tuple[Relation, int, int]] = {}
        for predicate, d in added.items():
            if predicate not in self.idb:
                lo, hi = d.window
                if hi > lo:
                    delta[predicate] = (
                        self.database.relations[predicate], lo, hi
                    )
        for predicate in self.order:
            relation = self.relations[predicate]
            tally = self.counts[predicate]
            premark = relation.mark()
            direct = added.get(predicate)
            if direct is not None:
                # EDB facts asserted directly on a derived predicate.
                for row in direct.added:
                    tally[row] = tally.get(row, 0) + 1
                    if relation.add(row):
                        self._note(predicate, row, +1)
            for rule in self.graph.rules_for(predicate):
                self._apply_insert_variants(rule, delta, relation, tally)
            if relation.mark() > premark:
                delta[predicate] = (relation, premark, relation.mark())

    def _apply_insert_variants(self, rule, delta, relation, tally) -> None:
        slots = [
            i
            for i, literal in enumerate(rule.body)
            if not literal.negated and literal.predicate in delta
        ]
        predicate = rule.head.predicate
        for j, slot in enumerate(slots):
            overrides = {}
            carrier, lo, hi = delta[rule.body[slot].predicate]
            overrides[slot] = carrier.window(lo, hi)
            for earlier in slots[:j]:
                c, l, _ = delta[rule.body[earlier].predicate]
                overrides[earlier] = c.window(0, l)
            for later in slots[j + 1 :]:
                c, _, h = delta[rule.body[later].predicate]
                overrides[later] = c.window(0, h)
            for subst in evaluate_body(
                self._variant(rule, slot),
                self._lookup,
                self.registry,
                {},
                overrides=overrides,
            ):
                row = head_row(rule, subst)
                if tally is not None:
                    tally[row] = tally.get(row, 0) + 1
                if relation.add(row):
                    self._note(predicate, row, +1)

    def _counting_delete(
        self,
        batch: MutationBatch,
        removed: Dict[Predicate, RelationDelta],
    ) -> None:
        add_lo = {
            p: d.window[0] for p, d in batch.deltas.items() if d.added
        }

        def lookup(predicate: Predicate):
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

        # views: predicate -> (removed-delta, old view, new view)
        views: Dict[Predicate, Tuple[Relation, object, object]] = {}
        for predicate, d in removed.items():
            if predicate in self.idb:
                continue  # folded in when the predicate is processed
            temp = Relation(predicate.name, predicate.arity)
            for row in d.removed:
                temp.add(row)
            new_view = lookup(predicate)
            views[predicate] = (temp, OverlayRelation(new_view, temp), new_view)
        for predicate in self.order:
            relation = self.relations[predicate]
            tally = self.counts[predicate]
            temp = Relation(predicate.name, predicate.arity)
            direct = removed.get(predicate)
            if direct is not None:
                for row in direct.removed:
                    self._decrement(predicate, relation, tally, row, temp)
            for rule in self.graph.rules_for(predicate):
                slots = [
                    i
                    for i, literal in enumerate(rule.body)
                    if not literal.negated and literal.predicate in views
                ]
                for j, slot in enumerate(slots):
                    overrides = {slot: views[rule.body[slot].predicate][0]}
                    for earlier in slots[:j]:
                        overrides[earlier] = views[
                            rule.body[earlier].predicate
                        ][2]
                    for later in slots[j + 1 :]:
                        overrides[later] = views[rule.body[later].predicate][1]
                    for subst in evaluate_body(
                        self._variant(rule, slot),
                        lookup,
                        self.registry,
                        {},
                        overrides=overrides,
                    ):
                        row = head_row(rule, subst)
                        self._decrement(predicate, relation, tally, row, temp)
            if len(temp):
                views[predicate] = (temp, OverlayRelation(relation, temp), relation)

    def _decrement(self, predicate, relation, tally, row, temp) -> None:
        count = tally.get(row)
        if count is None:  # pragma: no cover - counts track derivations exactly
            return
        if count <= 1:
            del tally[row]
            if relation.discard(row):
                self._note(predicate, row, -1)
            temp.add(row)
        else:
            tally[row] = count - 1

    # ------------------------------------------------------------------
    # DRed (recursive closures)
    # ------------------------------------------------------------------
    def _dred_insert(self, added: Dict[Predicate, RelationDelta]) -> None:
        delta: Dict[Predicate, Tuple[Relation, int, int]] = {}
        for predicate, d in added.items():
            if predicate in self.idb:
                relation = self.relations[predicate]
                premark = relation.mark()
                for row in d.added:
                    if relation.add(row):
                        self._note(predicate, row, +1)
                if relation.mark() > premark:
                    delta[predicate] = (relation, premark, relation.mark())
            else:
                lo, hi = d.window
                if hi > lo:
                    delta[predicate] = (
                        self.database.relations[predicate], lo, hi
                    )
        self._propagate(delta)

    def _propagate(
        self,
        delta: Dict[Predicate, Tuple[Relation, int, int]],
        deleted: Optional[Dict[Predicate, Relation]] = None,
    ) -> None:
        """Semi-naive insert rounds until no materialized relation grows.

        ``deleted`` (DRed rederivation) marks rows whose re-addition
        counts as a rederivation rather than a fresh derivation.
        """
        rounds = 0
        while delta:
            rounds += 1
            if rounds > _MAX_ROUNDS:  # pragma: no cover - safety valve
                raise RuntimeError("view maintenance failed to converge")
            round_base = {p: self.relations[p].mark() for p in self.idb}
            for rule in self.rules:
                slots = [
                    i
                    for i, literal in enumerate(rule.body)
                    if not literal.negated and literal.predicate in delta
                ]
                if not slots:
                    continue
                predicate = rule.head.predicate
                target = self.relations[predicate]
                for j, slot in enumerate(slots):
                    overrides = {}
                    carrier, lo, hi = delta[rule.body[slot].predicate]
                    overrides[slot] = carrier.window(lo, hi)
                    for earlier in slots[:j]:
                        c, l, _ = delta[rule.body[earlier].predicate]
                        overrides[earlier] = c.window(0, l)
                    for later in slots[j + 1 :]:
                        c, _, h = delta[rule.body[later].predicate]
                        overrides[later] = c.window(0, h)
                    for subst in evaluate_body(
                        self._variant(rule, slot),
                        self._lookup,
                        self.registry,
                        {},
                        overrides=overrides,
                    ):
                        row = head_row(rule, subst)
                        if target.add(row):
                            self._note(predicate, row, +1)
                            if deleted is not None and row in deleted.get(
                                predicate, ()
                            ):
                                self._run_rederived += 1
            delta = {}
            for predicate in self.idb:
                relation = self.relations[predicate]
                if relation.mark() > round_base[predicate]:
                    delta[predicate] = (
                        relation, round_base[predicate], relation.mark()
                    )

    def _dred_delete(
        self,
        batch: MutationBatch,
        removed: Dict[Predicate, RelationDelta],
    ) -> None:
        add_lo = {
            p: d.window[0] for p, d in batch.deltas.items() if d.added
        }
        removed_rel: Dict[Predicate, Relation] = {}
        for predicate, d in removed.items():
            temp = Relation(predicate.name, predicate.arity)
            for row in d.removed:
                temp.add(row)
            removed_rel[predicate] = temp

        def old_lookup(predicate: Predicate):
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
            overlay = removed_rel.get(predicate)
            if overlay is not None:
                base = OverlayRelation(base, overlay)
            return base

        # Phase 1: over-delete — everything with a derivation through a
        # removed tuple, transitively.
        deleted: Dict[Predicate, Relation] = {
            p: Relation(p.name, p.arity) for p in self.idb
        }
        frontier: Dict[Predicate, Relation] = {}
        for predicate, temp in removed_rel.items():
            if predicate in self.idb:
                relation = self.relations[predicate]
                seed = Relation(predicate.name, predicate.arity)
                for row in temp:
                    if row in relation and seed.add(row):
                        deleted[predicate].add(row)
                if len(seed):
                    frontier[predicate] = seed
            else:
                frontier[predicate] = temp
        rounds = 0
        while frontier:
            rounds += 1
            if rounds > _MAX_ROUNDS:  # pragma: no cover - safety valve
                raise RuntimeError("over-deletion failed to converge")
            next_frontier: Dict[Predicate, Relation] = {}
            for rule in self.rules:
                slots = [
                    i
                    for i, literal in enumerate(rule.body)
                    if not literal.negated and literal.predicate in frontier
                ]
                predicate = rule.head.predicate
                for slot in slots:
                    overrides = {slot: frontier[rule.body[slot].predicate]}
                    for subst in evaluate_body(
                        self._variant(rule, slot),
                        old_lookup,
                        self.registry,
                        {},
                        overrides=overrides,
                    ):
                        row = head_row(rule, subst)
                        if row in deleted[predicate]:
                            continue
                        deleted[predicate].add(row)
                        bucket = next_frontier.get(predicate)
                        if bucket is None:
                            bucket = next_frontier[predicate] = Relation(
                                predicate.name, predicate.arity
                            )
                        bucket.add(row)
            frontier = next_frontier

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
        delta: Dict[Predicate, Tuple[Relation, int, int]] = {}
        for predicate, rows in deleted.items():
            if not len(rows):
                continue
            relation = self.relations[predicate]
            premark = relation.mark()
            stored = self.database.get(predicate)
            for row in rows:
                supported = stored is not None and row in stored
                if not supported:
                    supported = self._has_derivation(predicate, row)
                if supported and relation.add(row):
                    self._note(predicate, row, +1)
                    self._run_rederived += 1
            if relation.mark() > premark:
                delta[predicate] = (relation, premark, relation.mark())
        if delta:
            self._propagate(delta, deleted=deleted)

    def _has_derivation(self, predicate: Predicate, row: Row) -> bool:
        for rule in self.graph.rules_for(predicate):
            theta = unify_sequences(rule.head.args, row)
            if theta is None:
                continue
            order = order_body(
                rule.body,
                self.registry,
                initially_bound={v.name for v in rule.head.variables()},
            )
            if (
                next(
                    iter(
                        evaluate_body(
                            order, self._lookup, self.registry, theta
                        )
                    ),
                    None,
                )
                is not None
            ):
                return True
        return False
