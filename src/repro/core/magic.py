"""Magic sets — classic, and the chain-split variant (Algorithm 3.1).

The classic transformation (ref [1]) rewrites a program so that
bottom-up evaluation only derives facts relevant to the query: a
``magic_p__a`` predicate collects the bindings with which ``p`` is
called under adornment ``a``, every rule is guarded by the magic
predicate of its head, and for each IDB body literal a *magic rule*
passes the bindings sideways.

Algorithm 3.1 changes exactly one thing — the binding propagation rule.
When a body linkage is weak (join expansion ratio above the chain-split
threshold) or not finitely evaluable, the binding is *not* propagated
across it: the literal is delayed.  Delayed literals stay in the answer
rule (they are evaluated bottom-up when the recursion's results arrive)
but are excluded from every magic rule, so the magic set follows only
the strong linkages.  On ``scsg`` this turns the cross-product-like
merged-parents magic set into the small parent-descendant set (paper
Example 1.2 / §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term, Var, is_ground, term_variables
from ..datalog.unify import unify_sequences, apply_substitution
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.seminaive import EvaluationResult, SemiNaiveEvaluator
from ..analysis.adornment import (
    AdornedProgram,
    AdornedRule,
    PropagationHook,
    adorn_program,
    adorned_name,
    adornment_for_query,
)
from ..analysis.cost import CostModel

__all__ = [
    "MagicProgram",
    "magic_transform",
    "chain_split_hook",
    "MagicSetsEvaluator",
]

MAGIC_PREFIX = "magic_"


def _magic_name(name: str, adornment: str) -> str:
    return MAGIC_PREFIX + adorned_name(name, adornment)


def _bound_args(literal: Literal, adornment: str) -> Tuple[Term, ...]:
    return tuple(
        arg for arg, flag in zip(literal.args, adornment) if flag == "b"
    )


@dataclass
class MagicProgram:
    """Result of a magic transformation, ready for semi-naive."""

    program: Program
    seed_predicate: Predicate
    seed_row: Tuple[Term, ...]
    answer_predicate: Predicate
    adorned: AdornedProgram

    def magic_predicates(self) -> List[Predicate]:
        return [
            p
            for p in self.program.head_predicates()
            if p.name.startswith(MAGIC_PREFIX)
        ]


def magic_transform(
    program: Program,
    query: Literal,
    registry: Optional[BuiltinRegistry] = None,
    propagation_hook: Optional[PropagationHook] = None,
    supplementary: bool = False,
) -> MagicProgram:
    """Rewrite ``program`` for ``query`` with the magic-sets method.

    ``propagation_hook`` switches between classic (None) and
    chain-split behaviour (see :func:`chain_split_hook`).

    ``supplementary`` uses supplementary predicates: the propagated
    prefix of each rule body is materialized once as a chain of
    ``sup`` relations shared between the magic rules and the answer
    rule, instead of being re-joined per magic rule.
    """
    registry = registry if registry is not None else default_registry()
    adornment = adornment_for_query(query)
    adorned = adorn_program(
        program, query.predicate, adornment, registry, propagation_hook
    )
    rewritten = Program()

    for rule_index, adorned_rule in enumerate(adorned.rules):
        if supplementary:
            _rewrite_rule_supplementary(rewritten, adorned_rule, rule_index)
        else:
            _rewrite_rule_plain(rewritten, adorned_rule)

    # Bridge rules: ground facts of an adorned predicate live in the
    # EDB under the original name (the loader stores ground heads as
    # facts, e.g. ``isort([], []).``); each adorned predicate therefore
    # also answers from its stored relation, under the magic guard.
    for predicate, call_adornment in sorted(adorned.calls, key=str):
        args = tuple(Var(f"_B{i}") for i in range(predicate.arity))
        bound_args = tuple(
            arg for arg, flag in zip(args, call_adornment) if flag == "b"
        )
        rewritten.add(
            Rule(
                Literal(adorned_name(predicate.name, call_adornment), args),
                [
                    Literal(_magic_name(predicate.name, call_adornment), bound_args),
                    Literal(predicate.name, args),
                ],
            )
        )

    seed_name = _magic_name(query.name, adornment)
    seed_row = tuple(arg for arg in query.args if is_ground(arg))
    seed_predicate = Predicate(seed_name, len(seed_row))
    # Seed the magic set as a fact rule so semi-naive derives it in
    # round 0 (a plain EDB relation would be shadowed by the derived
    # magic relation of the same name).
    rewritten.add(Rule(Literal(seed_name, seed_row)))
    answer_predicate = Predicate(
        adorned_name(query.name, adornment), query.arity
    )
    return MagicProgram(rewritten, seed_predicate, seed_row, answer_predicate, adorned)


def _adorned_body_literal(adorned_literal) -> Literal:
    """The literal as it appears in the rewritten program: IDB
    occurrences use the adorned predicate name."""
    literal = adorned_literal.literal
    if adorned_literal.is_idb:
        return Literal(
            adorned_name(literal.name, adorned_literal.adornment),
            literal.args,
            negated=literal.negated,
        )
    return literal


def _rewrite_rule_plain(rewritten: Program, adorned_rule) -> None:
    """The textbook (non-supplementary) rewriting: each magic rule
    repeats the propagated prefix of body literals before the call."""
    rule = adorned_rule.rule
    head_adornment = adorned_rule.head_adornment
    magic_head = Literal(
        _magic_name(rule.head.name, head_adornment),
        _bound_args(rule.head, head_adornment),
    )

    # ---- answer rule ----------------------------------------------------
    answer_body: List[Literal] = [magic_head]
    for adorned_literal in adorned_rule.body:
        answer_body.append(_adorned_body_literal(adorned_literal))
    answer_head = Literal(
        adorned_name(rule.head.name, head_adornment), rule.head.args
    )
    rewritten.add(Rule(answer_head, answer_body))

    # ---- magic rules ------------------------------------------------------
    prefix: List[Literal] = [magic_head]
    for adorned_literal in adorned_rule.body:
        literal = adorned_literal.literal
        if adorned_literal.is_idb:
            # Every IDB call (negated included) seeds its magic set
            # from the propagated prefix.
            bound_args = _bound_args(literal, adorned_literal.adornment)
            magic_literal = Literal(
                _magic_name(literal.name, adorned_literal.adornment),
                bound_args,
            )
            rewritten.add(Rule(magic_literal, list(prefix)))
        if adorned_literal.propagated:
            if adorned_literal.is_idb and not literal.negated:
                prefix.append(
                    Literal(
                        adorned_name(literal.name, adorned_literal.adornment),
                        literal.args,
                    )
                )
            else:
                prefix.append(literal)


def _rewrite_rule_supplementary(
    rewritten: Program, adorned_rule, rule_index: int
) -> None:
    """Supplementary rewriting: the propagated prefix is materialized
    once per rule as a chain of sup_{rule}_{i} predicates.

    sup_{r}_{0}(V0)       :- magic_h(bound head args).
    sup_{r}_{i}(Vi)       :- sup_{r}_{i-1}(V{i-1}), b_i.     [propagated b_i]
    magic_q(bound args)   :- sup_{r}_{i-1}(V{i-1}).          [IDB b_i]
    h(args)               :- sup_{r}_{n}(Vn), delayed literals.
    """
    rule = adorned_rule.rule
    head_adornment = adorned_rule.head_adornment
    magic_head = Literal(
        _magic_name(rule.head.name, head_adornment),
        _bound_args(rule.head, head_adornment),
    )
    head_name = rule.head.name

    # Variables needed after each body position (for the head or a
    # later literal), used to keep sup arities minimal.
    head_vars = {v.name for v in rule.head.variables()}
    # Delayed (non-propagated) literals are evaluated at the very end
    # of the answer rule, so their variables stay needed through the
    # entire sup chain.
    delayed_vars: Set[str] = set()
    for adorned_literal in adorned_rule.body:
        if not adorned_literal.propagated:
            delayed_vars |= {
                v.name for v in adorned_literal.literal.variables()
            }
    later_vars: List[Set[str]] = []
    running: Set[str] = set(head_vars) | delayed_vars
    for adorned_literal in reversed(adorned_rule.body):
        later_vars.append(set(running))
        running |= {v.name for v in adorned_literal.literal.variables()}
    later_vars.reverse()
    # later_vars[i] = variables needed strictly after body literal i
    # (including the head's and every delayed literal's); all_vars
    # covers the whole rule.
    all_vars = set(running)

    def sup_literal(index: int, available: Set[str], needed: Set[str]) -> Literal:
        keep = sorted(available & needed)
        return Literal(
            f"sup_{head_name}__{head_adornment}_{rule_index}_{index}",
            tuple(Var(name) for name in keep),
        )

    available: Set[str] = {
        v.name
        for arg, flag in zip(rule.head.args, head_adornment)
        if flag == "b"
        for v in term_variables(arg)
    }
    current_sup = sup_literal(0, available, all_vars)
    rewritten.add(Rule(current_sup, [magic_head]))

    delayed: List[Literal] = []
    sup_index = 0
    for position, adorned_literal in enumerate(adorned_rule.body):
        literal = adorned_literal.literal
        if adorned_literal.is_idb:
            bound_args = _bound_args(literal, adorned_literal.adornment)
            magic_literal = Literal(
                _magic_name(literal.name, adorned_literal.adornment),
                bound_args,
            )
            rewritten.add(Rule(magic_literal, [current_sup]))
        if adorned_literal.propagated:
            sup_index += 1
            available = available | {v.name for v in literal.variables()}
            needed = later_vars[position]
            next_sup = sup_literal(sup_index, available, needed | head_vars)
            rewritten.add(
                Rule(next_sup, [current_sup, _adorned_body_literal(adorned_literal)])
            )
            current_sup = next_sup
        else:
            delayed.append(_adorned_body_literal(adorned_literal))

    answer_head = Literal(
        adorned_name(head_name, head_adornment), rule.head.args
    )
    rewritten.add(Rule(answer_head, [current_sup, *delayed]))


def chain_split_hook(cost_model: CostModel) -> PropagationHook:
    """Algorithm 3.1's modified binding-propagation rule as an
    adornment hook: consult the cost model for every non-IDB body
    literal; IDB literals keep default propagation (the recursion's
    own binding passing is what the adornment computes)."""

    def hook(literal: Literal, bound: Set[str], is_idb: bool) -> Optional[bool]:
        if is_idb:
            return None
        decision = cost_model.decide(literal, bound)
        return decision.propagate

    return hook


class MagicSetsEvaluator:
    """Run a query with magic sets (classic or chain-split) and
    semi-naive evaluation of the rewritten program."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        cost_model: Optional[CostModel] = None,
        chain_split: bool = False,
        supplementary: bool = False,
        ctx: EvalContext = DISABLED,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        if chain_split and cost_model is None:
            cost_model = CostModel(database, self.registry)
        self.cost_model = cost_model
        self.chain_split = chain_split
        self.supplementary = supplementary
        # Handed down to the semi-naive run over the rewritten program.
        # Magic tuples are derived tuples, so under a budget an un-split
        # blowup trips the tuple ceiling while the magic set is still
        # being computed.
        self.ctx = ctx

    def rewrite(self, query: Literal) -> MagicProgram:
        hook = (
            chain_split_hook(self.cost_model)
            if self.chain_split and self.cost_model is not None
            else None
        )
        return magic_transform(
            self.database.program,
            query,
            self.registry,
            propagation_hook=hook,
            supplementary=self.supplementary,
        )

    def _scratch(self, magic: MagicProgram) -> Database:
        """A throwaway database running the rewritten program over the
        original EDB relations (shared read-only; the magic seed is a
        fact rule inside the rewritten program)."""
        scratch = Database()
        scratch.program = magic.program
        scratch.relations = dict(self.database.relations)
        return scratch

    def evaluate(
        self,
        query: Literal,
        stop_condition: Optional[Callable[[Relation], bool]] = None,
    ) -> Tuple[Relation, Counters, MagicProgram]:
        """Answers to ``query`` (as a relation over its arguments),
        the work counters, and the rewritten program for inspection.

        ``stop_condition``, when given, is called with the answer
        relation derived so far after each new answer tuple; returning
        True aborts the semi-naive fixpoint mid-round (existence
        checking, §5).  The answers accumulated up to the abort are
        still returned.
        """
        ctx = self.ctx
        rewrite_span = ctx.begin("plan", "magic_rewrite")
        magic = self.rewrite(query)
        ctx.end(rewrite_span, rules=len(magic.program))
        scratch = self._scratch(magic)
        if ctx.recording:
            ctx.tracer.phase(
                "magic_rewrite",
                query=str(query),
                chain_split=self.chain_split,
                supplementary=self.supplementary,
                rules=len(magic.program),
                seed=str(magic.seed_predicate),
                answer=str(magic.answer_predicate),
            )

        seminaive_stop = None
        if stop_condition is not None:
            answer_predicate = magic.answer_predicate

            def seminaive_stop(derived) -> bool:
                relation = derived.get(answer_predicate)
                return relation is not None and stop_condition(relation)

        result = SemiNaiveEvaluator(
            scratch, self.registry, ctx=ctx
        ).evaluate(magic.program, stop_condition=seminaive_stop)
        answers_full = result.relation(
            magic.answer_predicate.name, magic.answer_predicate.arity
        )
        filter_span = ctx.begin("stage", "answer_filter")
        answers = Relation(query.name, query.arity)
        for row in answers_full:
            if unify_sequences(query.args, row) is not None:
                answers.add(row)
        ctx.end(filter_span, answers=len(answers))
        return answers, result.counters, magic

    def magic_set_sizes(self, query: Literal) -> Dict[str, int]:
        """Sizes of every derived magic predicate — the paper's measure
        of binding-propagation cost."""
        magic = self.rewrite(query)
        scratch = self._scratch(magic)
        result = SemiNaiveEvaluator(scratch, self.registry).evaluate(magic.program)
        sizes: Dict[str, int] = {}
        for predicate, relation in result.relations.items():
            if predicate.name.startswith(MAGIC_PREFIX):
                sizes[str(predicate)] = len(relation)
        return sizes
