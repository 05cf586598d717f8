"""A stored-relation probe evaluates only its closure.

The served program holds sg, scsg and travel side by side.  Bottom-up
``travel`` (``cons``, ``sum`` over a cyclic flight network) is not
finitely evaluable — the paper's §2.2 reason to split — so a
``semi_naive`` plan that evaluated the whole IDB to answer
``parent(X, Y)`` never returned.  The plan now evaluates the rules of
the query's closure only, which for a stored relation is nothing: the
answer is a filter over the stored rows.

Every path is bounded (a ``Budget`` in process, a subprocess timeout
for the CLI) so a regression fails instead of hanging.
"""

import os
import subprocess
import sys
import time

import pytest

from repro import Budget, EvalContext, Planner, QuerySession
from repro.core.planner import Strategy
from repro.workloads import (
    SCSG,
    SG,
    TRAVEL,
    FamilyConfig,
    FlightConfig,
    family_database,
    flight_database,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
LIMIT_S = 0.05

PROBES = {
    "parent(X, Y)": "parent",
    "sibling(X, Y)": "sibling",
    "flight(N, D, DT, A, AT, F)": "flight",
}


def served_database():
    """sg + scsg + travel over one family and one cyclic flight network."""
    database = family_database(
        FamilyConfig(levels=6, width=32, parents_per_child=2, countries=4, seed=1992),
        program=SG + SCSG,
    )
    database.load_source(TRAVEL)
    flights = flight_database(FlightConfig(airports=10, extra_flights=14, seed=1992))
    for row in flights.relation("flight", 6):
        database.add_fact("flight", row)
    return database


@pytest.fixture(scope="module")
def database():
    return served_database()


def stored_rows(database, name):
    relation = next(r for p, r in database.relations.items() if p.name == name)
    assert len(relation), "an empty relation proves nothing"
    return sorted(relation.rows(), key=str)


@pytest.mark.parametrize("query", list(PROBES))
def test_planner_answers_stored_probe(database, query):
    planner = Planner(database)
    plan = planner.plan(query)
    assert plan.strategy == Strategy.SEMI_NAIVE
    start = time.perf_counter()
    answers, counters = planner.execute(
        plan, EvalContext(budget=Budget(timeout=LIMIT_S))
    )
    elapsed = time.perf_counter() - start
    assert sorted(answers.rows(), key=str) == stored_rows(database, PROBES[query])
    assert counters.total_work == 0
    assert elapsed < LIMIT_S


@pytest.mark.parametrize("query", list(PROBES))
def test_session_answers_stored_probe(database, query):
    session = QuerySession(database)
    result = session.execute(query, budget=Budget(timeout=LIMIT_S))
    assert result.strategy == Strategy.SEMI_NAIVE
    assert result.rows == stored_rows(database, PROBES[query])
    assert result.elapsed < LIMIT_S


def _render(database) -> str:
    lines = [SG, SCSG, TRAVEL]
    for predicate, relation in database.relations.items():
        for row in relation.rows():
            lines.append(f"{predicate.name}({', '.join(str(v) for v in row)}).")
    return "\n".join(lines) + "\n"


def test_cli_one_shot_answers_stored_probe(database, tmp_path):
    program = tmp_path / "served.pl"
    program.write_text(_render(database))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", str(program), "-q", "parent(X, Y)",
         "--time-budget", str(LIMIT_S)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    expected = stored_rows(database, "parent")
    assert lines[-1] == f"{len(expected)} answer(s) [semi_naive]"
    assert lines[:-1] == [
        f"parent({', '.join(str(v) for v in row)})" for row in expected
    ]
