"""One evaluation context: the parity matrix and the AST guard.

**Parity.**  Instrumentation changes what is observed, never what is
evaluated: for every strategy the planner can select (plus the bare
semi-naive and magic-sets evaluators), answers, work counters and the
chosen strategy are identical under every :class:`EvalContext` — the
disabled one, a no-op tracer, a recording tracer, a span profiler with
and without memory sampling, a limitless budget, and all of them at
once.  The recording contexts must also have *seen* the run, so an
evaluator that forgets to pass its context on fails here.

**Guard.**  ``tracer`` / ``profiler`` / ``budget`` exist as names only
inside ``engine/context.py``: nothing under ``src/repro/{engine,core,
ivm}`` takes one as a parameter or stores one as an attribute, and the
number of branches on context state stays small.
"""

import ast
from pathlib import Path

import pytest

from repro.core.magic import MagicSetsEvaluator
from repro.core.planner import Planner, Strategy
from repro.datalog.parser import parse_query
from repro.engine import Database, EvalContext, SemiNaiveEvaluator
from repro.engine.context import DISABLED
from repro.observe import EngineTracer, Tracer
from repro.profile import SpanProfiler
from repro.resilience import Budget
from repro.workloads import (
    ANCESTOR,
    APPEND,
    ISORT,
    QSORT,
    SCSG,
    SG,
    TRAVEL_CONNECTED,
    FamilyConfig,
    FlightConfig,
    family_database,
    flight_database,
    load,
)

ROOT = Path(__file__).resolve().parent.parent
FAMILY = FamilyConfig(levels=4, width=8, parents_per_child=2, countries=2, seed=7)
FLIGHTS = FlightConfig(airports=8, extra_flights=0, seed=3)
NONLINEAR = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), path(Z, Y).
"""

CONTEXTS = {
    "disabled": lambda: DISABLED,
    "noop_tracer": lambda: EvalContext(tracer=Tracer()),
    "engine_tracer": lambda: EvalContext(tracer=EngineTracer()),
    "profiler": lambda: EvalContext(profiler=SpanProfiler()),
    "memory_profiler": lambda: EvalContext(profiler=SpanProfiler(memory=True)),
    "budget": lambda: EvalContext(budget=Budget()),
    "all": lambda: EvalContext(
        EngineTracer(), SpanProfiler(), Budget(), "req-parity"
    ),
}


def _ancestor_db():
    db = load(ANCESTOR)
    for parent, child in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e")]:
        db.add_fact("parent", (parent, child))
    return db


def _path_db():
    db = load(NONLINEAR)
    for i in range(12):
        db.add_fact("edge", (f"v{i}", f"v{i + 1}"))
    return db


#: One planner query per strategy: (database factory, query, strategy).
PLANNER_CASES = {
    "semi_naive": (
        lambda: family_database(FAMILY, program=SCSG),
        "parent(p0_0, Y)",
        Strategy.SEMI_NAIVE,
    ),
    "magic": (
        lambda: family_database(FAMILY, program=SG), "sg(X, Y)", Strategy.MAGIC
    ),
    "magic_split": (
        lambda: family_database(FAMILY, program=SCSG),
        "scsg(p0_2, Y)",
        Strategy.MAGIC_SPLIT,
    ),
    "counting": (
        lambda: family_database(FAMILY, program=SG),
        "sg(p0_2, Y)",
        Strategy.COUNTING,
    ),
    "chain_follow": (_ancestor_db, "ancestor(a, Y)", Strategy.CHAIN_FOLLOW),
    "buffered": (
        lambda: flight_database(FLIGHTS, program=TRAVEL_CONNECTED),
        "travel(L, city0, DT, A, AT, F)",
        Strategy.BUFFERED,
    ),
    "partial_travel": (
        lambda: flight_database(FLIGHTS),
        "travel(L, city0, DT, A, AT, F), F =< 600",
        Strategy.PARTIAL,
    ),
    "partial_append": (
        lambda: load(APPEND), "append(X, Y, [a, b, c])", Strategy.PARTIAL
    ),
    "nested": (lambda: load(ISORT), "isort([3,1,2], Y)", Strategy.NESTED),
    "top_down": (lambda: load(QSORT), "qsort([3,1,2], Y)", Strategy.TOP_DOWN),
}


def _run_planner(case, ctx):
    make_db, query, strategy = PLANNER_CASES[case]
    planner = Planner(make_db())
    plan = planner.plan(query, ctx)
    assert plan.strategy == strategy
    answers, counters = planner.execute(plan, ctx)
    return sorted(answers.rows(), key=str), counters.as_dict(), plan.strategy


def _run_semi_naive(ctx):
    result = SemiNaiveEvaluator(_path_db(), ctx=ctx).evaluate()
    rows = sorted(result.relation("path", 2).rows(), key=str)
    return rows, result.counters.as_dict(), "bare"


def _run_magic(chain_split, ctx):
    query = parse_query("scsg(p0_2, Y)")[0]
    answers, counters, _ = MagicSetsEvaluator(
        family_database(FAMILY, program=SCSG), chain_split=chain_split, ctx=ctx
    ).evaluate(query)
    return sorted(answers.rows(), key=str), counters.as_dict(), "bare"


RUNNERS = {
    **{
        case: (lambda ctx, case=case: _run_planner(case, ctx))
        for case in PLANNER_CASES
    },
    "bare_semi_naive": _run_semi_naive,
    "bare_magic": lambda ctx: _run_magic(False, ctx),
    "bare_magic_split": lambda ctx: _run_magic(True, ctx),
}


def test_matrix_covers_every_strategy():
    selectable = {
        value for name, value in vars(Strategy).items() if name.isupper()
    }
    assert {strategy for _, _, strategy in PLANNER_CASES.values()} == selectable


@pytest.mark.parametrize("context", [c for c in CONTEXTS if c != "disabled"])
@pytest.mark.parametrize("case", list(RUNNERS))
def test_instrumentation_never_changes_evaluation(case, context):
    baseline = RUNNERS[case](DISABLED)
    assert baseline[0], "empty answer set proves nothing"
    ctx = CONTEXTS[context]()
    try:
        assert RUNNERS[case](ctx) == baseline
    finally:
        if ctx.profiler is not None:
            ctx.profiler.close()
    if isinstance(ctx.tracer, EngineTracer):
        assert len(ctx.tracer), "recording tracer saw nothing"
    if ctx.profiler is not None:
        spans = ctx.profiler.spans()
        assert "evaluate" in {s.cat for s in spans}
        if ctx.profiler.memory:
            assert all(s.alloc_bytes is not None for s in spans)


# ----------------------------------------------------------------------
# AST guard
# ----------------------------------------------------------------------
_NAMES = {"tracer", "profiler", "budget"}
#: Locals that hoist context state out of a hot loop.
_HOISTED = {"tick", "stage_counts", "recording"}


def _sources(*packages):
    for package in packages:
        yield from sorted((ROOT / "src" / "repro" / package).glob("*.py"))


def _reads_context(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and (
            getattr(node.value, "id", getattr(node.value, "attr", None)) == "ctx"
        ):
            return True
        if isinstance(node, ast.Name) and node.id in _HOISTED | _NAMES:
            return True
    return False


def test_one_way_to_instrument_an_evaluation():
    """Nothing below the session takes ``tracer=`` / ``profiler=`` /
    ``budget=`` or keeps one as an attribute; ``engine/context.py`` is
    the one place those names are threaded from."""
    offenders = []
    for path in _sources("engine", "core", "ivm"):
        if path.name == "context.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in _NAMES:
                        offenders.append(f"{path.name}:{node.name}({arg.arg}=)")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr in _NAMES:
                        offenders.append(f"{path.name}:.{target.attr} =")
    assert not offenders, offenders
    planner = Planner(Database())
    assert not _NAMES & set(vars(planner)) and not _NAMES & set(vars(Planner))


def test_branches_on_context_state_stay_few():
    """81 ``is not None`` guards at the parent of this change; the
    context's null-object calls leave only the ``recording`` gates and
    the hoisted per-substitution tests."""
    guards = []
    for path in _sources("engine", "core"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.If, ast.IfExp, ast.While)) and _reads_context(
                node.test
            ):
                guards.append(f"{path.name}:{node.lineno}")
    assert len(guards) <= 30, guards
