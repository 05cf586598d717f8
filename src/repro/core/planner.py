"""The query planner: analysis -> strategy -> execution.

This is the library's main entry point, mirroring the architecture the
paper sketches for LogicBase (§5): a *rule compiler* (classification,
rectification, chain compilation) feeding a *query evaluator* that
integrates chain-following, chain-split and constraint-based
evaluation.

Strategy selection:

====================  =============================================
recursion class        strategy
====================  =============================================
non-recursive          semi-naive bottom-up (magic when bound args)
linear, 1 chain        chain evaluation — following, buffered
                       chain-split, or partial chain-split with
                       constraint pushing, per the split decision
linear, n chains       magic sets; chain-split magic sets when the
                       cost model finds a weak linkage; counting
                       when the query fully binds one chain and the
                       data is acyclic
nested linear,
nonlinear              top-down with deferred (chain-split) goal
                       selection — the per-tuple realization of the
                       same split (paper §4)
mutual                 magic sets
====================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.literals import Literal, Predicate
from ..datalog.parser import parse_query
from ..datalog.terms import Struct, Term, Var, is_ground
from ..datalog.unify import apply_substitution, unify_sequences
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.counters import Counters
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.seminaive import SemiNaiveEvaluator
from ..engine.topdown import TopDownEvaluator
from ..analysis.chains import (
    CompilationError,
    CompiledRecursion,
    RecursionClass,
    is_bounded_recursion,
)
from ..analysis.cost import CostModel
from ..analysis.depgraph import DependencyGraph
from ..analysis.normalize import NormalizedProgram
from .buffered import BufferedChainEvaluator
from .chain import ChainEvaluator
from .counting import CountingError, CountingEvaluator
from .magic import MagicSetsEvaluator
from .nested import NestedChainEvaluator, NestedEvaluationError
from .partial import PartialChainEvaluator, PartialEvaluationError
from .pushing import constraints_hold, fold_accumulators, push_constraints
from .split import ChainSplitDecision, decide_split

__all__ = [
    "Planner",
    "QueryPlan",
    "PlanningError",
    "Strategy",
    "adornment_key",
    "plan_cache_key",
]


class PlanningError(ValueError):
    """The planner cannot produce a plan for the query."""


def adornment_key(query: Literal) -> str:
    """The query's bound/free adornment: ``b`` per ground argument,
    ``f`` otherwise — e.g. ``sg(ann, Y)`` adorns to ``"bf"``.

    Strategy selection depends on *which* arguments are bound, not on
    the bound values, so this string (not the constants) keys plan
    reuse across queries.
    """
    return "".join("b" if is_ground(arg) else "f" for arg in query.args)


def _term_shape(term: Term, var_ids: Dict[str, int]):
    """A hashable skeleton of ``term`` with variables canonicalized by
    first occurrence and ground subterms collapsed to a single mark."""
    if isinstance(term, Var):
        if term.name not in var_ids:
            var_ids[term.name] = len(var_ids)
        return ("v", var_ids[term.name])
    if is_ground(term):
        return ("g",)
    assert isinstance(term, Struct)
    return ("s", term.functor, tuple(_term_shape(a, var_ids) for a in term.args))


def plan_cache_key(
    query: Literal, constraints: Sequence[Literal] = ()
) -> Tuple[Predicate, Tuple[object, ...], Tuple[object, ...]]:
    """A hashable key under which a :class:`QueryPlan` may be reused.

    Two queries share a key when they have the same predicate, the
    same bound/free argument shape (constants masked, variables
    canonicalized by first occurrence across query and constraints)
    and the same constraint shape.  Every strategy returns the same
    answer set, so reusing a plan across different bound *values* is
    always sound; only the cost-model tie-breaks could differ.
    """
    var_ids: Dict[str, int] = {}
    args_shape = tuple(_term_shape(arg, var_ids) for arg in query.args)
    constraint_shape = tuple(
        (c.name, c.negated, tuple(_term_shape(a, var_ids) for a in c.args))
        for c in constraints
    )
    return (query.predicate, args_shape, constraint_shape)


class Strategy:
    """Symbolic strategy names, used in plans and benchmark tables."""

    SEMI_NAIVE = "semi_naive"
    MAGIC = "magic_sets"
    MAGIC_SPLIT = "chain_split_magic_sets"
    COUNTING = "counting"
    CHAIN_FOLLOW = "chain_following"
    BUFFERED = "buffered_chain_split"
    PARTIAL = "partial_chain_split"
    NESTED = "nested_chain_split"
    TOP_DOWN = "top_down_deferred"


@dataclass
class QueryPlan:
    """An executable plan: the chosen strategy plus its inputs."""

    query: Literal
    constraints: List[Literal]
    strategy: str
    recursion_class: str
    compiled: Optional[CompiledRecursion] = None
    split_decision: Optional[ChainSplitDecision] = None
    notes: List[str] = field(default_factory=list)
    #: The compiled join program of each evaluator the plan has run —
    #: a magic rewrite template, a chain program, the strata of a
    #: semi-naive closure — keyed by strategy and built by the first
    #: execution (:meth:`Planner.execute`); the plan's adornment is
    #: fixed by its cache key.  Shared by every :meth:`rebind` copy.
    artifacts: Dict[str, object] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The IDB version :attr:`artifacts` were compiled against; a rule
    #: change since clears them.
    artifacts_version: Optional[int] = field(
        default=None, repr=False, compare=False
    )

    def rebind(self, query: Literal, constraints: List[Literal]) -> "QueryPlan":
        """This plan re-instantiated for a same-shaped query.

        The strategy choice, compiled chain form, split decision and
        compiled join programs depend only on the plan-cache key
        (predicate, adornment, constraint shape), so a cached plan
        serves any query sharing the key once the literal and
        constraints are swapped in.
        """
        return QueryPlan(
            query,
            constraints,
            self.strategy,
            self.recursion_class,
            self.compiled,
            self.split_decision,
            list(self.notes),
            self.artifacts,
            self.artifacts_version,
        )

    def explain(self) -> str:
        lines = [
            f"query:     {self.query}",
            f"class:     {self.recursion_class}",
            f"strategy:  {self.strategy}",
        ]
        if self.constraints:
            lines.append(
                "constraints: " + ", ".join(str(c) for c in self.constraints)
            )
        if self.split_decision is not None:
            lines.append(self.split_decision.explain())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


class Planner:
    """Plan and execute queries against a deductive database."""

    def __init__(
        self,
        database: Database,
        registry: Optional[BuiltinRegistry] = None,
        cost_model: Optional[CostModel] = None,
        max_depth: int = 10_000,
    ):
        self.database = database
        self.registry = registry if registry is not None else default_registry()
        self.cost_model = (
            cost_model
            if cost_model is not None
            else CostModel(database, self.registry)
        )
        self.max_depth = max_depth
        self._normalized = NormalizedProgram(database.program, self.registry)
        self._analysis_idb_version = database.idb_version
        # The rectified database shares EDB relations with the original.
        self._rect_db = Database()
        self._rect_db.program = self._normalized.program
        self._rect_db.relations = database.relations
        self._rect_db.finiteness_constraints = database.finiteness_constraints

    def refresh(self) -> bool:
        """Re-normalize if rules were added since the last analysis.

        The rectification/classification snapshot is expensive, so it
        is only rebuilt when the database's IDB version moved; EDB
        (fact) changes need no refresh because the rectified database
        shares the live relation catalog.  Returns True when a rebuild
        happened.
        """
        if self._analysis_idb_version == self.database.idb_version:
            return False
        self._normalized = NormalizedProgram(self.database.program, self.registry)
        self._rect_db.program = self._normalized.program
        self._analysis_idb_version = self.database.idb_version
        return True

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph of the current rules: one instance per
        IDB version, built beside the rectification and shared with an
        IVM session's view manager."""
        self.refresh()
        return self._normalized.graph

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(self, query_source, ctx: EvalContext = DISABLED) -> QueryPlan:
        """Build a plan for a query given as source text or goal list.

        The first non-comparison goal is the query literal; remaining
        comparison goals become constraints (candidates for pushing).
        Under a recording ``ctx``, planning runs inside a ``plan`` span
        and emits ``split_decision`` / ``strategy`` events.
        """
        plan_span = ctx.begin("plan", "plan")
        try:
            plan = self._plan_inner(query_source, ctx)
        except BaseException:
            ctx.end(plan_span)
            raise
        if ctx.recording:
            ctx.end(plan_span, query=str(plan.query), strategy=plan.strategy)
            ctx.tracer.strategy_chosen(
                str(plan.query), plan.strategy, plan.recursion_class, plan.notes
            )
        return plan

    def _plan_inner(self, query_source, ctx: EvalContext) -> QueryPlan:
        self.refresh()
        query, constraints = self._parse(query_source)
        predicate = query.predicate
        graph = self._normalized.graph
        if not graph.is_idb(predicate):
            if self.database.get(predicate) is not None:
                return QueryPlan(
                    query, constraints, Strategy.SEMI_NAIVE, RecursionClass.NON_RECURSIVE
                )
            raise PlanningError(f"unknown predicate {predicate}")

        recursion_class = self._normalized.classify(predicate)
        # Negation or functional builtins (constructors, arithmetic) in
        # the rectified closure: bottom-up set-oriented evaluation needs
        # guards a plain magic rewrite does not provide.
        functional = not graph.info(predicate).maintainable

        if recursion_class == RecursionClass.NON_RECURSIVE:
            if functional:
                # Functional predicates in the closure (constructors,
                # arithmetic, negation over them) make blind bottom-up
                # evaluation unsafe; evaluate top-down with deferred
                # (chain-split) goal selection instead.
                return QueryPlan(
                    query, constraints, Strategy.TOP_DOWN, recursion_class
                )
            strategy = (
                Strategy.MAGIC
                if any(is_ground(a) for a in query.args)
                else Strategy.SEMI_NAIVE
            )
            return QueryPlan(query, constraints, strategy, recursion_class)

        if recursion_class == RecursionClass.LINEAR:
            return self._plan_linear(
                query, constraints, recursion_class, functional, ctx
            )

        if recursion_class == RecursionClass.NESTED_LINEAR:
            return QueryPlan(
                query,
                constraints,
                Strategy.NESTED,
                recursion_class,
                notes=[
                    "nested linear recursion: composed buffered chain-split "
                    "evaluators (paper §4.1); top-down fallback at runtime"
                ],
            )
        if functional or recursion_class == RecursionClass.NONLINEAR:
            return QueryPlan(
                query,
                constraints,
                Strategy.TOP_DOWN,
                recursion_class,
                notes=[
                    "nonlinear/functional program: chain-split realized by "
                    "deferred goal selection (paper §4)"
                ],
            )

        # Mutual recursion.
        return QueryPlan(query, constraints, Strategy.MAGIC, recursion_class)

    def execute(
        self, plan: QueryPlan, ctx: EvalContext = DISABLED
    ) -> Tuple[Relation, Counters]:
        """Run a plan; answers as a relation over the query arguments.

        ``ctx`` is handed to whichever evaluator the strategy runs.  The
        plan's compiled join programs are built on its first execution
        and rebuilt after a rule change."""
        self.refresh()
        if plan.artifacts_version != self._analysis_idb_version:
            plan.artifacts.clear()
            plan.artifacts_version = self._analysis_idb_version
        dispatch = {
            Strategy.SEMI_NAIVE: self._run_semi_naive,
            Strategy.MAGIC: self._run_magic,
            Strategy.MAGIC_SPLIT: self._run_magic_split,
            Strategy.COUNTING: self._run_counting,
            Strategy.CHAIN_FOLLOW: self._run_buffered,
            Strategy.BUFFERED: self._run_buffered,
            Strategy.PARTIAL: self._run_partial,
            Strategy.NESTED: self._run_nested,
            Strategy.TOP_DOWN: self._run_top_down,
        }
        runner = dispatch.get(plan.strategy)
        if runner is None:
            raise PlanningError(f"no executor for strategy {plan.strategy}")
        exec_span = ctx.begin("query", f"execute {plan.strategy}")
        try:
            answers, counters = runner(plan, ctx)
            answers = self._apply_residual_constraints(plan, answers, counters)
        finally:
            ctx.end(exec_span, strategy=plan.strategy)
        return answers, counters

    def answer(self, query_source, ctx: EvalContext = DISABLED) -> Relation:
        """Plan + execute in one call."""
        plan = self.plan(query_source, ctx)
        answers, _ = self.execute(plan, ctx)
        return answers

    def answer_rows(self, query_source) -> List[Tuple[Term, ...]]:
        """Answers as a sorted list of rows (stable for tests/demos)."""
        return sorted(self.answer(query_source).rows(), key=str)

    def query(self, query_source) -> List[Dict[str, Term]]:
        """Answers as variable bindings: one dict per answer, keyed by
        the query's variable names, sorted for stability."""
        plan = self.plan(query_source)
        answers, _ = self.execute(plan)
        bindings: List[Dict[str, Term]] = []
        for row in sorted(answers.rows(), key=str):
            binding: Dict[str, Term] = {}
            for arg, value in zip(plan.query.args, row):
                if isinstance(arg, Var):
                    binding[arg.name] = value
            bindings.append(binding)
        return bindings

    # ------------------------------------------------------------------
    # Planning details
    # ------------------------------------------------------------------
    def _parse(self, query_source) -> Tuple[Literal, List[Literal]]:
        if isinstance(query_source, Literal):
            return query_source, []
        if isinstance(query_source, str):
            goals = parse_query(query_source)
        else:
            goals = list(query_source)
        if not goals:
            raise PlanningError("empty query")
        main: Optional[Literal] = None
        constraints: List[Literal] = []
        for goal in goals:
            if main is None and not goal.is_comparison():
                main = goal
            else:
                constraints.append(goal)
        if main is None:
            raise PlanningError("query has no non-comparison goal")
        return main, constraints

    def _plan_linear(
        self,
        query: Literal,
        constraints: List[Literal],
        recursion_class: str,
        functional: bool,
        ctx: EvalContext,
    ) -> QueryPlan:
        try:
            compiled = self._normalized.compiled(query.predicate)
        except CompilationError as exc:
            fallback = Strategy.TOP_DOWN if functional else Strategy.MAGIC
            return QueryPlan(
                query,
                constraints,
                fallback,
                recursion_class,
                notes=[f"chain compilation failed ({exc}); {fallback} fallback"],
            )
        chains = compiled.generating_chains()

        if is_bounded_recursion(compiled):
            # A bounded recursion is equivalent to a nonrecursive rule
            # set; plain (magic-guarded) evaluation converges in a
            # constant number of rounds.
            strategy = (
                Strategy.MAGIC
                if any(is_ground(a) for a in query.args)
                else Strategy.SEMI_NAIVE
            )
            return QueryPlan(
                query,
                constraints,
                strategy,
                recursion_class,
                compiled,
                notes=["bounded recursion (no head-to-recursive-call linkage)"],
            )

        if len(chains) == 1:
            decision = decide_split(
                self._rect_db, compiled, query, chains[0], self.cost_model,
                self.registry, ctx=ctx,
            )
            if not decision.is_split:
                return QueryPlan(
                    query,
                    constraints,
                    Strategy.CHAIN_FOLLOW,
                    recursion_class,
                    compiled,
                    decision,
                )
            accumulators, unfoldable = fold_accumulators(compiled, decision.split)
            pushed, _ = push_constraints(constraints, query, accumulators)
            if not unfoldable and (pushed or accumulators):
                return QueryPlan(
                    query,
                    constraints,
                    Strategy.PARTIAL,
                    recursion_class,
                    compiled,
                    decision,
                    notes=[f"pushed constraints: {[str(c) for c in pushed]}"]
                    if pushed
                    else [],
                )
            if decision.criterion == "efficiency":
                # Function-free weak linkage: Algorithm 3.1 — the
                # chain-split magic sets rewriting.
                return QueryPlan(
                    query,
                    constraints,
                    Strategy.MAGIC_SPLIT,
                    recursion_class,
                    compiled,
                    decision,
                )
            return QueryPlan(
                query, constraints, Strategy.BUFFERED, recursion_class, compiled, decision
            )

        # Multi-chain: counting if applicable, else (chain-split) magic.
        if len(chains) >= 2:
            bound = {i for i, a in enumerate(query.args) if is_ground(a)}
            if any(
                set(c.head_positions) and set(c.head_positions) <= bound
                for c in chains
            ):
                return QueryPlan(
                    query,
                    constraints,
                    Strategy.COUNTING,
                    recursion_class,
                    compiled,
                    notes=[
                        f"{len(chains)}-chain recursion with one chain "
                        "fully bound"
                    ],
                )
        return QueryPlan(
            query, constraints, Strategy.MAGIC, recursion_class, compiled
        )

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _run_semi_naive(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        # Only the query's closure: the rules it depends on are a
        # splitting set, so their fixpoint is the whole program's on the
        # query predicate.  A stored relation evaluates nothing at all.
        evaluator = SemiNaiveEvaluator(self.database, self.registry, ctx=ctx)
        strata = plan.artifacts.get(Strategy.SEMI_NAIVE)
        if strata is None:
            strata = plan.artifacts[Strategy.SEMI_NAIVE] = evaluator.compile(
                self._normalized.graph.subprogram(plan.query.predicate)
            )
        result = evaluator.run(strata)
        return self._filter(plan.query, result.relations, ctx), result.counters

    def _run_magic(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        evaluator = MagicSetsEvaluator(self.database, self.registry, ctx=ctx)
        return self._magic(plan, evaluator, Strategy.MAGIC)

    def _run_magic_split(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        # Supplementary predicates share the propagated prefix between
        # the magic and answer rules; together with the chain-split
        # propagation rule this is the cheapest scsg-style plan by a
        # wide margin (see bench_ablation A5).
        evaluator = MagicSetsEvaluator(
            self.database,
            self.registry,
            cost_model=self.cost_model,
            chain_split=True,
            supplementary=True,
            ctx=ctx,
        )
        return self._magic(plan, evaluator, Strategy.MAGIC_SPLIT)

    def _magic(
        self, plan: QueryPlan, evaluator: MagicSetsEvaluator, kind: str
    ) -> Tuple[Relation, Counters]:
        """Run ``evaluator`` on the plan's rewrite template; the first
        run compiles it (and so does a run whose Algorithm 3.1 inputs
        moved), the plan keeps it."""
        answers, counters, _ = evaluator.evaluate(
            plan.query, template=plan.artifacts.get(kind)
        )
        plan.artifacts[kind] = evaluator.template
        return answers, counters

    def _chain(
        self, plan: QueryPlan, evaluator: ChainEvaluator, kind: str
    ) -> Tuple[Relation, Counters]:
        """Run ``evaluator`` on the plan's chain program; the first run
        compiles it, the plan keeps it."""
        result = evaluator.evaluate(plan.query, plan.artifacts.get(kind))
        plan.artifacts[kind] = evaluator.program
        return result

    def _run_counting(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        try:
            evaluator = CountingEvaluator(
                self._rect_db,
                plan.compiled,
                self.registry,
                max_depth=self.max_depth,
                ctx=ctx,
            )
            return self._chain(plan, evaluator, Strategy.COUNTING)
        except CountingError:
            # Cyclic data or inapplicable shape: magic sets fallback.
            return self._run_magic(plan, ctx)

    def _run_buffered(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        evaluator = BufferedChainEvaluator(
            self._rect_db,
            plan.compiled,
            self.registry,
            split=plan.split_decision.split if plan.split_decision else None,
            max_depth=self.max_depth,
            ctx=ctx,
        )
        return self._chain(plan, evaluator, Strategy.BUFFERED)

    def _run_partial(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        try:
            evaluator = PartialChainEvaluator(
                self._rect_db,
                plan.compiled,
                self.registry,
                constraints=plan.constraints,
                split=plan.split_decision.split if plan.split_decision else None,
                max_depth=self.max_depth,
                ctx=ctx,
            )
            return self._chain(plan, evaluator, Strategy.PARTIAL)
        except PartialEvaluationError:
            return self._run_buffered(plan, ctx)

    def _run_nested(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        try:
            evaluator = NestedChainEvaluator(
                self._rect_db,
                plan.query.predicate,
                self.registry,
                max_depth=self.max_depth,
                ctx=ctx,
            )
            return evaluator.evaluate(plan.query)
        except (NestedEvaluationError, ValueError):
            # BudgetExceeded is a RuntimeError and deliberately NOT
            # caught here: a blown budget must surface, not trigger a
            # second (equally doomed) top-down attempt.
            return self._run_top_down(plan, ctx)

    def _run_top_down(
        self, plan: QueryPlan, ctx: EvalContext
    ) -> Tuple[Relation, Counters]:
        evaluator = TopDownEvaluator(
            self._rect_db, self.registry, selection="deferred", ctx=ctx
        )
        answers = Relation(plan.query.name, plan.query.arity)
        goals = [plan.query, *plan.constraints]
        for solution in evaluator.solve(goals):
            row = tuple(
                apply_substitution(arg, solution) for arg in plan.query.args
            )
            if all(is_ground(v) for v in row):
                answers.add(row)
        return answers, evaluator.counters

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _filter(
        self,
        query: Literal,
        relations: Dict[Predicate, Relation],
        ctx: EvalContext = DISABLED,
    ) -> Relation:
        filter_span = ctx.begin("stage", "answer_filter")
        answers = Relation(query.name, query.arity)
        source = relations.get(query.predicate)
        if source is None:
            source = self.database.get(query.predicate)
        if source is not None:
            for row in source:
                if unify_sequences(query.args, row) is not None:
                    answers.add(row)
        ctx.end(filter_span, answers=len(answers))
        return answers

    def _apply_residual_constraints(
        self, plan: QueryPlan, answers: Relation, counters: Counters
    ) -> Relation:
        """Filter answers by the query's comparison constraints.

        Strategies that push constraints already guarantee their
        answers satisfy them, but pushing is an optimization — the
        final filter is always applied so every strategy returns the
        same answer set.
        """
        if not plan.constraints:
            return answers
        filtered = Relation(answers.name, answers.arity)
        for row in answers:
            binding = unify_sequences(plan.query.args, row)
            if binding is None:
                continue
            if constraints_hold(self.registry, plan.constraints, binding):
                filtered.add(row)
            else:
                counters.pruned_tuples += 1
        return filtered
