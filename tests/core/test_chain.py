"""The descent shared by counting, Algorithm 3.2 and Algorithm 3.3.

**Depth guard.**  ``max_depth=N`` admits exactly N descent levels for
every chain evaluator: on a 6-edge chain the descent visits 7 levels
(the last one spawns nothing), so ``max_depth=7`` answers and
``max_depth=6`` raises the evaluator's own error class.

**Guard.**  The descent lives once, in ``core/chain.py``: the three
evaluators open no per-level span, call no ``ctx.check_round`` and
define no ``evaluate`` of their own, and nested evaluation keys its
call memo by call pattern, not by ``("?", position)``.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.normalize import normalize
from repro.core.buffered import BufferedChainEvaluator, BufferedEvaluationError
from repro.core.counting import CountingError, CountingEvaluator
from repro.core.partial import PartialChainEvaluator, PartialEvaluationError
from repro.datalog.literals import Predicate
from repro.datalog.parser import parse_query
from repro.engine.database import Database

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
EDGES = 6

CHAINS = """
reach(X, Y) :- target(X, Y).
reach(X, Y) :- edge(X, X1), reach(X1, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""


def _chain(name):
    db = Database()
    db.load_source(CHAINS)
    for i in range(EDGES):
        db.add_fact("edge", (f"n{i}", f"n{i + 1}"))
        db.add_fact("up", (f"n{i}", f"n{i + 1}"))
        db.add_fact("down", (f"m{i + 1}", f"m{i}"))
    db.add_fact("target", (f"n{EDGES}", "gold"))
    db.add_fact("flat", (f"n{EDGES}", f"m{EDGES}"))
    rect, compiled = normalize(db.program, Predicate(name, 2))
    rect_db = Database()
    rect_db.program = rect
    rect_db.relations = db.relations
    return rect_db, compiled


EVALUATORS = {
    "counting": (CountingEvaluator, CountingError, "sg"),
    "buffered": (BufferedChainEvaluator, BufferedEvaluationError, "reach"),
    "partial": (PartialChainEvaluator, PartialEvaluationError, "reach"),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_max_depth_counts_levels(name):
    cls, error, predicate = EVALUATORS[name]
    rect_db, compiled = _chain(predicate)
    query = parse_query(f"{predicate}(n0, Y)")[0]
    answers, _ = cls(rect_db, compiled, max_depth=EDGES + 1).evaluate(query)
    assert len(answers) == 1
    with pytest.raises(error, match=f"exceeded max depth {EDGES}"):
        cls(rect_db, compiled, max_depth=EDGES).evaluate(query)


def _tree(name):
    return ast.parse((CORE / name).read_text())


@pytest.mark.parametrize("name", ["counting.py", "buffered.py", "partial.py"])
def test_descent_is_shared(name):
    tree = _tree(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            assert node.name != "evaluate", f"{name} defines evaluate"
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        assert node.func.attr != "check_round", f"{name}:{node.lineno}"
        if node.func.attr == "begin" and len(node.args) == 2:
            cat, span = node.args
            per_level = isinstance(cat, ast.Constant) and cat.value == "stage" and (
                isinstance(span, ast.JoinedStr)
            )
            assert not per_level, f"{name}:{node.lineno} opens a level span"


def test_nested_memo_keys_by_call_pattern():
    for node in ast.walk(_tree("nested.py")):
        if isinstance(node, ast.Tuple) and node.elts:
            first = node.elts[0]
            assert not (isinstance(first, ast.Constant) and first.value == "?"), (
                f"nested.py:{node.lineno} keys a call by position"
            )
