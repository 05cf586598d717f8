"""Naive and semi-naive bottom-up fixpoint evaluation.

Semi-naive evaluation (ref [1]) is the workhorse under both classic
magic sets and the chain-split variant: after rewriting, the rewritten
program is handed to this evaluator.  The naive evaluator re-derives
everything each round and exists as a correctness oracle and as the
pedagogical baseline in benchmarks.

The semi-naive loop follows the full delta discipline for rules with
*multiple* recursive body occurrences (nonlinear recursion).  For a
rule with recursive slots :math:`i_1 < i_2 < \\dots < i_k`, round *n*
evaluates one variant per slot :math:`i_j` where

* slot :math:`i_j` reads the **delta** :math:`\\Delta P^{(n-1)}`,
* slots before :math:`i_j` read the **pre-round** relation
  :math:`P^{(n-2)}`,
* slots after :math:`i_j` read the **frozen full** relation
  :math:`P^{(n-1)}`,

so a combination of same-round tuples is derived exactly once instead
of once per slot.  All three versions are zero-copy generation windows
(:meth:`~repro.engine.relation.Relation.window`) over the single
append-only derived relation, whose indexes persist and grow
incrementally across rounds — no per-round delta relations and no
index rebuilds.

Both evaluators are stratified: negation is allowed as long as the
program is stratifiable (checked by
:meth:`~repro.analysis.depgraph.DependencyGraph.strata`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.depgraph import DependencyGraph
from ..datalog.literals import Literal, Predicate
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term, is_ground
from ..datalog.unify import Substitution, apply_substitution
from .builtins import BuiltinRegistry, default_registry
from .context import DISABLED, EvalContext
from .counters import Counters
from .database import Database
from .joins import UnsafeRuleError, evaluate_body, order_body
from .relation import Relation

__all__ = [
    "SemiNaiveEvaluator",
    "NaiveEvaluator",
    "EvaluationResult",
    "delta_first_order",
    "head_row",
]


class EvaluationResult:
    """Derived relations plus the work counters of the run."""

    def __init__(self, relations: Dict[Predicate, Relation], counters: Counters):
        self.relations = relations
        self.counters = counters

    def relation(self, name: str, arity: int) -> Relation:
        """The derived relation for ``name/arity``.

        Unknown predicates get an empty relation that is *registered*
        in :attr:`relations`, so repeated calls return the same object
        and caller mutations are never silently lost.
        """
        predicate = Predicate(name, arity)
        relation = self.relations.get(predicate)
        if relation is None:
            relation = Relation(name, arity)
            self.relations[predicate] = relation
        return relation

    def __repr__(self) -> str:
        sizes = {str(p): len(r) for p, r in self.relations.items()}
        return f"EvaluationResult({sizes})"


def delta_first_order(
    rule: Rule, slot: int, registry: BuiltinRegistry
) -> List[Tuple[int, Literal]]:
    """A safe body order for the semi-naive variant whose delta sits at
    body position ``slot``: the delta literal leads (the delta window
    is the smallest relation in the join), and the remaining literals
    are greedily reordered with the delta's variables already bound.

    Public because incremental view maintenance (``repro.ivm``) builds
    the same delta-first variants for its insert-propagation and
    over-deletion rounds."""
    delta_literal = rule.body[slot]
    rest = [(i, lit) for i, lit in enumerate(rule.body) if i != slot]
    ordered_rest = order_body(
        [lit for _, lit in rest],
        registry,
        initially_bound={v.name for v in delta_literal.variables()},
    )
    return [(slot, delta_literal)] + [
        (rest[position][0], literal) for position, literal in ordered_rest
    ]


def head_row(rule: Rule, subst: Substitution) -> Tuple[Term, ...]:
    """Instantiate ``rule``'s head under ``subst`` as a ground row.

    Raises :class:`UnsafeRuleError` when a head variable stays unbound —
    the same range-restriction check every bottom-up evaluator applies.
    Public so ``repro.ivm`` derives head rows with identical semantics.
    """
    row = tuple(apply_substitution(arg, subst) for arg in rule.head.args)
    for value in row:
        if not is_ground(value):
            raise UnsafeRuleError(
                f"head of {rule} not ground after body evaluation"
            )
    return row


class _BottomUpEvaluator:
    """Shared scaffolding: lookups, head instantiation."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        max_iterations: int = 100_000,
        orderer=None,
        ctx: EvalContext = DISABLED,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.max_iterations = max_iterations
        # Optional body orderer: callable(body, initially_bound) ->
        # [(index, literal)], e.g. analysis.joinorder.CostBasedOrderer.
        # Defaults to the greedy bound-is-easier order.
        self._orderer = orderer
        self.ctx = ctx

    def _order(self, body):
        if self._orderer is not None:
            return self._orderer.order(body)
        return order_body(body, self.registry)

    # -- helpers --------------------------------------------------------
    def _make_lookup(self, derived: Dict[Predicate, Relation]):
        def lookup(predicate: Predicate) -> Optional[Relation]:
            if predicate in derived:
                return derived[predicate]
            return self.database.get(predicate)

        return lookup

    @staticmethod
    def _head_row(rule: Rule, subst: Substitution) -> Tuple[Term, ...]:
        return head_row(rule, subst)


class SemiNaiveEvaluator(_BottomUpEvaluator):
    """Stratified semi-naive fixpoint evaluation.

    Usage::

        result = SemiNaiveEvaluator(db).evaluate()
        rows = result.relation("sg", 2).rows()
    """

    def evaluate(
        self,
        program: Optional[Program] = None,
        stop_condition=None,
    ) -> EvaluationResult:
        """Evaluate ``program`` (default: the database's IDB).

        ``stop_condition(derived)`` — when provided, it is checked
        after every newly derived tuple; returning True aborts
        evaluation early with the partially derived relations.  This
        implements existence checking: a boolean query stops as soon as
        one witness appears (paper §5), and because the join pipeline
        is streaming, the abort takes effect mid-join — the rest of the
        cross product is never enumerated.
        """
        program = program if program is not None else self.database.program
        counters = Counters()
        derived: Dict[Predicate, Relation] = {}
        run_span = self.ctx.begin("evaluate", "semi_naive")
        try:
            for stratum in DependencyGraph(program, self.registry).strata():
                stopped = self._evaluate_stratum(
                    program, stratum, derived, counters, stop_condition
                )
                if stopped:
                    break
        finally:
            # end() unwinds any round/rule span left open by an early
            # stop or an evaluation error.
            self.ctx.end(
                run_span,
                derived=counters.derived_tuples,
                iterations=counters.iterations,
            )
        return EvaluationResult(derived, counters)

    def _evaluate_stratum(
        self,
        program: Program,
        stratum: Set[Predicate],
        derived: Dict[Predicate, Relation],
        counters: Counters,
        stop_condition=None,
    ) -> bool:
        ctx = self.ctx
        # Rule ordering + EDB seeding is real per-stratum work;
        # attribute it instead of leaving it as container self time.
        setup_span = ctx.begin("stage", "stratum_setup")
        rules = [r for r in program if r.head.predicate in stratum]
        for predicate in stratum:
            derived.setdefault(predicate, Relation(predicate.name, predicate.arity))
        lookup = self._make_lookup(derived)

        ordered_bodies = {
            id(rule): self._order(rule.body) for rule in rules
        }
        # Recursive slots: positive body occurrences of same-stratum
        # predicates, by original body position (ascending).
        recursive_slots: Dict[int, List[int]] = {}
        for rule in rules:
            slots = [
                i
                for i, lit in enumerate(rule.body)
                if lit.predicate in stratum and not lit.negated
            ]
            recursive_slots[id(rule)] = slots
        # Per-variant body orders, computed once per stratum and reused
        # every round: the delta occurrence is probed *first* (it is
        # the smallest relation), and the rest of the body is reordered
        # around the variables it binds.  A pluggable orderer keeps its
        # own order for every variant.
        variant_orders: Dict[Tuple[int, int], List[Tuple[int, Literal]]] = {}
        for rule in rules:
            for slot in recursive_slots[id(rule)]:
                if self._orderer is not None:
                    variant_orders[(id(rule), slot)] = ordered_bodies[id(rule)]
                else:
                    variant_orders[(id(rule), slot)] = delta_first_order(
                        rule, slot, self.registry
                    )

        # Stored EDB facts for a predicate that also has rules would be
        # shadowed by the derived relation; seed them explicitly.  They
        # form the initial delta.
        for predicate in stratum:
            stored = self.database.get(predicate)
            if stored is not None:
                for row in stored:
                    derived[predicate].add(row)

        # Generation watermarks into each derived relation's insertion
        # log: the previous round's new tuples live at [delta_lo, delta_hi),
        # the pre-round relation is [0, delta_lo), the frozen full
        # relation is [0, delta_hi).  Round 0 treats the EDB seed as the
        # incoming delta (pre-round empty).
        delta_lo: Dict[Predicate, int] = {p: 0 for p in stratum}
        delta_hi: Dict[Predicate, int] = {p: derived[p].mark() for p in stratum}

        ctx.end(setup_span, rules=len(rules))
        recording = ctx.recording
        first_round = True
        round_no = 0
        while True:
            counters.iterations += 1
            if counters.iterations > self.max_iterations:
                raise RuntimeError(
                    f"fixpoint did not converge within {self.max_iterations} iterations"
                )
            ctx.check_round(counters.iterations, counters)
            round_no += 1
            if recording:
                ctx.tracer.round_start(
                    round_no, sorted(str(p) for p in stratum)
                )
            round_span = ctx.begin("round", f"round {round_no}")
            round_derived_before = counters.derived_tuples
            for rule in rules:
                slots = recursive_slots[id(rule)]
                if not slots:
                    # Exit rule: no same-stratum body occurrence — its
                    # support cannot grow inside this stratum, so one
                    # pass (round 0) saturates it.
                    if not first_round:
                        continue
                    if self._apply_rule(
                        rule, ordered_bodies[id(rule)], lookup, None,
                        derived, counters, stop_condition,
                    ):
                        return True
                    continue
                for j, slot in enumerate(slots):
                    slot_predicate = rule.body[slot].predicate
                    if delta_lo[slot_predicate] == delta_hi[slot_predicate]:
                        continue  # empty delta: this variant derives nothing
                    overrides = {
                        slot: derived[slot_predicate].window(
                            delta_lo[slot_predicate], delta_hi[slot_predicate]
                        )
                    }
                    for earlier in slots[:j]:
                        p = rule.body[earlier].predicate
                        overrides[earlier] = derived[p].window(0, delta_lo[p])
                    for later in slots[j + 1 :]:
                        p = rule.body[later].predicate
                        overrides[later] = derived[p].window(0, delta_hi[p])
                    if self._apply_rule(
                        rule, variant_orders[(id(rule), slot)], lookup,
                        overrides, derived, counters, stop_condition,
                        slot=slot,
                    ):
                        return True
            first_round = False
            progressed = False
            for predicate in stratum:
                mark = derived[predicate].mark()
                if mark > delta_hi[predicate]:
                    progressed = True
                delta_lo[predicate] = delta_hi[predicate]
                delta_hi[predicate] = mark
            if recording:
                ctx.tracer.round_end(
                    round_no,
                    {str(p): delta_hi[p] - delta_lo[p] for p in stratum},
                )
            ctx.end(
                round_span,
                derived=counters.derived_tuples - round_derived_before,
            )
            if not progressed:
                return False

    def _apply_rule(
        self,
        rule: Rule,
        ordered_body,
        lookup,
        overrides,
        derived: Dict[Predicate, Relation],
        counters: Counters,
        stop_condition,
        slot: Optional[int] = None,
    ) -> bool:
        """Run one rule variant, appending new heads; True = stop."""
        target = derived[rule.head.predicate]
        ctx = self.ctx
        recording = ctx.recording
        if recording:
            # Per-tuple work stays branch-free with the tracer on: the
            # derived/duplicate deltas come from counter snapshots.
            before_derived = counters.derived_tuples
            before_duplicate = counters.duplicate_tuples
            rule_span = ctx.begin("rule", str(rule))
        stage_counts = ctx.stage_counts(len(ordered_body))
        stopped = False
        for subst in evaluate_body(
            ordered_body, lookup, self.registry, {}, counters,
            overrides=overrides, stage_counts=stage_counts, ctx=ctx,
        ):
            row = self._head_row(rule, subst)
            if target.add(row):
                counters.derived_tuples += 1
                ctx.check_tuple(counters)
                if stop_condition is not None and stop_condition(derived):
                    stopped = True
                    break
            else:
                counters.duplicate_tuples += 1
        if recording:
            derived_here = counters.derived_tuples - before_derived
            duplicates = counters.duplicate_tuples - before_duplicate
            ctx.end(
                rule_span,
                predicate=str(rule.head.predicate),
                slot=slot,
                derived=derived_here,
                duplicates=duplicates,
            )
            ctx.tracer.body_evaluated(
                "rule",
                ordered_body,
                stage_counts,
                rule=rule,
                slot=slot,
                derived=derived_here,
                duplicates=duplicates,
            )
        return stopped


class NaiveEvaluator(_BottomUpEvaluator):
    """Naive (Gauss-Seidel-free) fixpoint: recompute all rules each
    round until nothing new appears.  Exists as an oracle/baseline."""

    def evaluate(self, program: Optional[Program] = None) -> EvaluationResult:
        program = program if program is not None else self.database.program
        counters = Counters()
        derived: Dict[Predicate, Relation] = {}
        for stratum in DependencyGraph(program, self.registry).strata():
            self._evaluate_stratum(program, stratum, derived, counters)
        return EvaluationResult(derived, counters)

    def _evaluate_stratum(
        self,
        program: Program,
        stratum: Set[Predicate],
        derived: Dict[Predicate, Relation],
        counters: Counters,
    ) -> None:
        rules = [r for r in program if r.head.predicate in stratum]
        for predicate in stratum:
            derived.setdefault(predicate, Relation(predicate.name, predicate.arity))
            stored = self.database.get(predicate)
            if stored is not None:
                derived[predicate].add_all(stored.rows())
        lookup = self._make_lookup(derived)
        ordered_bodies = {
            id(rule): self._order(rule.body) for rule in rules
        }
        ctx = self.ctx
        changed = True
        while changed:
            counters.iterations += 1
            if counters.iterations > self.max_iterations:
                raise RuntimeError(
                    f"fixpoint did not converge within {self.max_iterations} iterations"
                )
            ctx.check_round(counters.iterations, counters)
            changed = False
            for rule in rules:
                for subst in evaluate_body(
                    ordered_bodies[id(rule)], lookup, self.registry, {},
                    counters, ctx=ctx,
                ):
                    row = self._head_row(rule, subst)
                    if derived[rule.head.predicate].add(row):
                        counters.derived_tuples += 1
                        ctx.check_tuple(counters)
                        changed = True
                    else:
                        counters.duplicate_tuples += 1
