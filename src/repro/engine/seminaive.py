"""Naive and semi-naive bottom-up fixpoint evaluation.

Semi-naive evaluation (ref [1]) is the workhorse under both classic
magic sets and the chain-split variant: after rewriting, the rewritten
program is handed to this evaluator.  The naive evaluator re-derives
everything each round and exists as a correctness oracle and as the
pedagogical baseline in benchmarks.

:meth:`SemiNaiveEvaluator.fixpoint` is the one semi-naive loop: the
evaluator's strata run on it, and so does every delta run of
incremental view maintenance (:mod:`repro.ivm`).  It follows the full
delta discipline for rules with *multiple* tracked body occurrences
(nonlinear recursion).  For a rule with tracked slots
:math:`i_1 < i_2 < \\dots < i_k`, round *n* evaluates one variant per
slot :math:`i_j` whose predicate has a non-empty delta, where

* slot :math:`i_j` reads the **delta** :math:`\\Delta P^{(n-1)}`,
* slots before :math:`i_j` read the relation **before** the delta,
  :math:`P^{(n-2)}`,
* slots after :math:`i_j` read the relation **after** the delta,
  :math:`P^{(n-1)}`,

so a combination of same-round tuples is derived exactly once instead
of once per slot.  Each delta is a zero-copy generation window
(:meth:`~repro.engine.relation.Relation.window`) of an append-only log
— for plain evaluation the derived relation itself, whose indexes
persist and grow incrementally across rounds, so there are no
per-round delta relations and no index rebuilds.  The before / after
versions default to the log's windows too; view maintenance supplies
its own for its deletion passes.

Both evaluators are stratified: negation is allowed as long as the
program is stratifiable (checked by
:meth:`~repro.analysis.depgraph.DependencyGraph.strata`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..analysis.depgraph import DependencyGraph
from ..datalog.literals import Predicate
from ..datalog.rules import Program, Rule
from ..datalog.terms import Const, Term, Var, is_ground
from ..datalog.unify import Substitution, apply_substitution
from .builtins import BuiltinRegistry, default_registry
from .context import DISABLED, EvalContext
from .counters import Counters
from .database import Database
from .joins import (
    CompiledBody,
    RelationLike,
    UnsafeRuleError,
    compile_body,
    compile_order,
    evaluate_body,
    ground_value,
    order_body,
)
from .relation import Relation, Row

__all__ = [
    "SemiNaiveEvaluator",
    "NaiveEvaluator",
    "EvaluationResult",
    "CompiledHead",
    "Stratum",
    "Variant",
    "head_row",
]

#: ``derive(predicate, row)`` — called once per derivation the fixpoint
#: loop enumerates; a true result stops the run.
Derive = Callable[[Predicate, Row], Optional[bool]]

#: ``views(predicate, delta)`` — what a tracked predicate's slots read
#: before and after its delta this round (``delta`` is ``None`` when
#: empty); ``None`` means the delta log's own generation windows.
Views = Callable[[Predicate, Optional[RelationLike]], Tuple[object, object]]


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


def _delta_first_order(
    rule: Rule, slot: int, registry: BuiltinRegistry
) -> CompiledBody:
    """A safe body order for the semi-naive variant whose delta sits at
    body position ``slot``: the delta literal leads (the delta window
    is the smallest relation in the join), and the remaining literals
    are greedily reordered with the delta's variables already bound."""
    delta_literal = rule.body[slot]
    rest = [(i, lit) for i, lit in enumerate(rule.body) if i != slot]
    ordered_rest = order_body(
        [lit for _, lit in rest],
        registry,
        initially_bound={v.name for v in delta_literal.variables()},
    )
    return compile_order(
        [(slot, delta_literal)]
        + [(rest[position][0], literal) for position, literal in ordered_rest],
        registry,
    )


def head_row(rule: Rule, subst: Substitution) -> Tuple[Term, ...]:
    """Instantiate ``rule``'s head under ``subst`` as a ground row.

    Raises :class:`UnsafeRuleError` when a head variable stays unbound —
    the same range-restriction check every bottom-up evaluator applies.
    Public so :mod:`repro.testing`'s derivation recount instantiates
    heads with identical semantics.
    """
    row = tuple(apply_substitution(arg, subst) for arg in rule.head.args)
    for value in row:
        if not is_ground(value):
            raise UnsafeRuleError(
                f"head of {rule} not ground after body evaluation"
            )
    return row


class CompiledHead:
    """A rule head compiled for row building.

    A function-free head builds its row slot by slot: a constant, or
    the ground value its variable is bound to.  Any other case — a
    compound argument, a variable bound to a ``Var`` or a non-ground
    ``Struct``, an unbound variable — goes through :func:`head_row`,
    which resolves the bindings and raises :class:`UnsafeRuleError`
    when the row is not ground."""

    __slots__ = ("rule", "slots")

    def __init__(self, rule: Rule):
        self.rule = rule
        args = rule.head.args
        self.slots: Optional[Tuple[Tuple[Optional[str], Optional[Term]], ...]] = (
            tuple(
                (arg.name, None) if isinstance(arg, Var) else (None, arg)
                for arg in args
            )
            if all(isinstance(arg, (Var, Const)) for arg in args)
            else None
        )

    def row(self, subst: Substitution) -> Tuple[Term, ...]:
        if self.slots is None:
            return head_row(self.rule, subst)
        row = []
        for name, const in self.slots:
            if name is None:
                row.append(const)
                continue
            value = subst.get(name)
            if not ground_value(value):
                return head_row(self.rule, subst)
            row.append(value)
        return tuple(row)


class Variant(NamedTuple):
    """One rule as :meth:`SemiNaiveEvaluator.fixpoint` runs it."""

    rule: Rule
    head: CompiledHead
    #: The full body, compiled; exit rules only (``None`` otherwise).
    body: Optional[CompiledBody]
    #: Positive body positions on a tracked predicate, as
    #: ``(position, predicate)``.
    slots: List[Tuple[int, Predicate]]
    #: Per slot: the body compiled to probe that slot's delta first.
    orders: List[CompiledBody]


class Stratum:
    """One stratum of a compiled program: its predicates, its rules
    and — once a run has reached the stratum — their :class:`Variant` s,
    which every later run reuses."""

    __slots__ = ("predicates", "rules", "variants")

    def __init__(
        self,
        predicates: Set[Predicate],
        rules: List[Rule],
        variants: Optional[List[Variant]] = None,
    ):
        self.predicates = predicates
        self.rules = rules
        self.variants = variants


class _BottomUpEvaluator:
    """Shared scaffolding: lookups, head instantiation."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        max_iterations: int = 100_000,
        ctx: EvalContext = DISABLED,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.max_iterations = max_iterations
        self.ctx = ctx

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

    def compile(self, program: Program) -> List[Stratum]:
        """``program`` split into its strata, bottom-up.  Each stratum's
        rules are compiled into variants when a run first reaches it;
        a caller that runs one program many times (a plan) keeps the
        strata and hands them to :meth:`run`."""
        return [
            Stratum(stratum, [r for r in program if r.head.predicate in stratum])
            for stratum in DependencyGraph(program, self.registry).strata()
        ]

    def evaluate(
        self,
        program: Optional[Program] = None,
        stop_condition=None,
        on_derive: Optional[Callable[[Predicate, Row], None]] = None,
    ) -> EvaluationResult:
        """Evaluate ``program`` (default: the database's IDB).

        ``stop_condition(derived)`` — when provided, it is checked
        after every newly derived tuple; returning True aborts
        evaluation early with the partially derived relations.  This
        implements existence checking: a boolean query stops as soon as
        one witness appears (paper §5), and because the join pipeline
        is streaming, the abort takes effect mid-join — the rest of the
        cross product is never enumerated.

        ``on_derive(predicate, row)`` — when provided, it is called for
        every derivation the rounds enumerate, new or duplicate.  The
        delta discipline enumerates each derivation exactly once, so
        incremental view maintenance reads its support counts off it.
        """
        program = program if program is not None else self.database.program
        return self.run(self.compile(program), stop_condition, on_derive)

    def run(
        self,
        strata: Sequence[Stratum],
        stop_condition=None,
        on_derive: Optional[Callable[[Predicate, Row], None]] = None,
    ) -> EvaluationResult:
        """:meth:`evaluate` the program ``strata`` were compiled from."""
        counters = Counters()
        derived: Dict[Predicate, Relation] = {}
        run_span = self.ctx.begin("evaluate", "semi_naive")
        try:
            for stratum in strata:
                stopped = self._evaluate_stratum(
                    stratum, derived, counters, stop_condition, on_derive
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
        stratum: Stratum,
        derived: Dict[Predicate, Relation],
        counters: Counters,
        stop_condition=None,
        on_derive=None,
    ) -> bool:
        ctx = self.ctx
        # Compiling the rules (on a stratum's first run) and EDB
        # seeding is real per-stratum work; attribute it instead of
        # leaving it as container self time.
        setup_span = ctx.begin("stage", "stratum_setup")
        if stratum.variants is None:
            stratum.variants = self.variants(stratum.rules, stratum.predicates)
        predicates = stratum.predicates
        for predicate in predicates:
            derived.setdefault(predicate, Relation(predicate.name, predicate.arity))
        # Stored EDB facts for a predicate that also has rules would be
        # shadowed by the derived relation; seed them explicitly.  They
        # form the initial delta.
        for predicate in predicates:
            stored = self.database.get(predicate)
            if stored is not None:
                for row in stored:
                    derived[predicate].add(row)
        ctx.end(setup_span, rules=len(stratum.rules))

        def derive(predicate: Predicate, row: Row) -> bool:
            if on_derive is not None:
                on_derive(predicate, row)
            if derived[predicate].add(row):
                counters.derived_tuples += 1
                ctx.check_tuple(counters)
                return stop_condition is not None and stop_condition(derived)
            counters.duplicate_tuples += 1
            return False

        return self.fixpoint(
            stratum.variants,
            {p: (derived[p], 0) for p in predicates},
            self._make_lookup(derived),
            counters,
            derive,
        )

    def variants(self, rules: Sequence[Rule], tracked) -> List[Variant]:
        """The per-rule plan :meth:`fixpoint` runs, compiled once per
        call site rather than per round: one :class:`Variant` per rule,
        whose tracked slots are the positive body positions on a
        ``tracked`` predicate and whose per-slot orders probe that
        slot's delta first and reorder the rest of the body around the
        variables it binds.  A rule without a tracked slot is an exit
        rule and keeps its full body order instead."""
        plan = []
        for rule in rules:
            slots = [
                (i, lit.predicate)
                for i, lit in enumerate(rule.body)
                if lit.predicate in tracked and not lit.negated
            ]
            plan.append(Variant(
                rule,
                CompiledHead(rule),
                None if slots else compile_body(rule.body, self.registry),
                slots,
                [_delta_first_order(rule, slot, self.registry) for slot, _ in slots],
            ))
        return plan

    def fixpoint(
        self,
        plan: Sequence[Variant],
        logs: Dict[Predicate, Tuple[Relation, int]],
        lookup,
        counters: Counters,
        derive: Derive,
        views: Optional[Views] = None,
    ) -> bool:
        """The semi-naive fixpoint loop: run ``plan`` (from :meth:`variants`)
        in rounds until no tracked predicate has a new delta.

        ``logs`` maps each tracked predicate to ``(log, lo)``: an
        append-only relation whose rows from position ``lo`` on form
        the first delta.  Every later round's delta is what the log
        gained during the round before.  ``views`` picks what the
        slots before / after a delta read (default: the log up to the
        delta's start / end); untracked literals read ``lookup``.
        ``derive(predicate, row)`` receives each head row the variants
        produce and grows the logs; a rule with no tracked slot is an
        exit rule and runs once, over its full body, in the first
        round.  Returns True when ``derive`` asked to stop.
        """
        ctx = self.ctx
        recording = ctx.recording
        # Generation watermarks into each log: the current delta lives
        # at [lo, hi), the relation before it is [0, lo), after it
        # [0, hi).
        lo = {p: start for p, (_, start) in logs.items()}
        hi = {p: log.mark() for p, (log, _) in logs.items()}
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
                ctx.tracer.round_start(round_no, sorted(str(p) for p in logs))
            round_span = ctx.begin("round", f"round {round_no}")
            round_derived_before = counters.derived_tuples
            reads = {}
            for p, (log, _) in logs.items():
                delta = log.window(lo[p], hi[p]) if lo[p] < hi[p] else None
                if views is None:
                    reads[p] = (delta, log.window(0, lo[p]), log.window(0, hi[p]))
                else:
                    reads[p] = (delta, *views(p, delta))
            for variant in plan:
                slots = variant.slots
                if not slots:
                    # Exit rule: no tracked body occurrence — its
                    # support cannot grow during the run, so one pass
                    # (the first round) saturates it.
                    if first_round and self._apply_rule(
                        variant, variant.body, lookup, None, derive, counters
                    ):
                        return True
                    continue
                for j, (slot, predicate) in enumerate(slots):
                    delta = reads[predicate][0]
                    if delta is None:
                        continue  # empty delta: this variant derives nothing
                    overrides = {slot: delta}
                    for earlier, p in slots[:j]:
                        overrides[earlier] = reads[p][1]
                    for later, p in slots[j + 1 :]:
                        overrides[later] = reads[p][2]
                    if self._apply_rule(
                        variant, variant.orders[j], lookup, overrides, derive,
                        counters, slot=slot,
                    ):
                        return True
            first_round = False
            progressed = False
            for p, (log, _) in logs.items():
                mark = log.mark()
                if mark > hi[p]:
                    progressed = True
                lo[p] = hi[p]
                hi[p] = mark
            if recording:
                ctx.tracer.round_end(
                    round_no, {str(p): hi[p] - lo[p] for p in logs}
                )
            ctx.end(
                round_span,
                derived=counters.derived_tuples - round_derived_before,
            )
            if not progressed:
                return False

    def _apply_rule(
        self,
        variant: Variant,
        ordered_body: CompiledBody,
        lookup,
        overrides,
        derive: Derive,
        counters: Counters,
        slot: Optional[int] = None,
    ) -> bool:
        """Run one rule variant, handing each head row to ``derive``;
        True = stop."""
        rule = variant.rule
        predicate = rule.head.predicate
        head = variant.head
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
            if derive(predicate, head.row(subst)):
                stopped = True
                break
        if recording:
            derived_here = counters.derived_tuples - before_derived
            duplicates = counters.duplicate_tuples - before_duplicate
            ctx.end(
                rule_span,
                predicate=str(predicate),
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
        compiled = [(rule, compile_body(rule.body, self.registry)) for rule in rules]
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
            for rule, body in compiled:
                for subst in evaluate_body(
                    body, lookup, self.registry, {}, counters, ctx=ctx,
                ):
                    row = self._head_row(rule, subst)
                    if derived[rule.head.predicate].add(row):
                        counters.derived_tuples += 1
                        ctx.check_tuple(counters)
                        changed = True
                    else:
                        counters.duplicate_tuples += 1
