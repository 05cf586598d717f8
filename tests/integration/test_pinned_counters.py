"""Work counters, strategies and answers pinned to golden values.

Every query shape of the paper batch (E1-E9, including the lanes that
force an un-split strategy), plus ``sg`` bound either way, ``scsg`` and
fare-bounded ``travel`` probed repeatedly through one
:class:`~repro.service.QuerySession` (so later probes reuse the cached
plan), on small family and flight fixtures.  ``pinned_counters.json``
holds what the engine reported before its join stages were compiled
once per plan; compiling must make work cheaper, never different, so
every :meth:`~repro.engine.counters.Counters.as_dict` entry has to
match exactly.  The golden file is data, not a snapshot to refresh:
a mismatch is a behaviour change to explain, not to re-record.
"""

import json
from pathlib import Path

import pytest

from repro.core.planner import Planner
from repro.service import QuerySession
from repro.workloads import (
    APPEND,
    ISORT,
    NQUEENS,
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
from repro.workloads.programs import ANCESTOR

GOLDEN = Path(__file__).with_name("pinned_counters.json")


def _family(program, **kw):
    config = FamilyConfig(
        levels=4, width=8, parents_per_child=2, countries=2, seed=7, **kw
    )
    return lambda: family_database(config, program=program)


_CYCLIC = FlightConfig(airports=7, extra_flights=8, seed=11)
_CHAIN = FlightConfig(airports=8, extra_flights=0, seed=5)


def _ancestor():
    db = load(ANCESTOR)
    for parent, child in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e")]:
        db.add_fact("parent", (parent, child))
    return db


#: One planner run per paper-batch shape: (database, query, forced strategy).
PLANNER_CASES = {
    "E1.scsg_split": (_family(SCSG), "scsg(p0_2, Y)", None),
    "E1.scsg_unsplit": (_family(SCSG), "scsg(p0_3, Y)", "magic_sets"),
    "E2.scsg_selective": (
        _family(SCSG, per_level_countries=True, lonely_fraction=0.25),
        "scsg(p0_3, Y)",
        None,
    ),
    "E7.sg_counting": (_family(SG), "sg(p0_2, Y)", None),
    "E7.sg_magic": (_family(SG), "sg(p0_1, Y)", "magic_sets"),
    "E7.sg_second": (_family(SG), "sg(X, p0_3)", None),
    "E7.sg_free": (_family(SG), "sg(X, Y)", None),
    "E3.append_bbf": (lambda: load(APPEND), "append([5, 3, 9, 1], [1, 2, 3], W)", None),
    "E3.append_ffb": (lambda: load(APPEND), "append(U, V, [5, 3, 9])", None),
    "E4.travel_push_loose": (
        lambda: flight_database(_CYCLIC),
        "travel(L, city0, DT, city6, AT, F), F =< 1200",
        None,
    ),
    "E4.travel_push_tight": (
        lambda: flight_database(_CYCLIC),
        "travel(L, city0, DT, city6, AT, F), F =< 800",
        None,
    ),
    "E4.travel_push_open": (
        lambda: flight_database(_CYCLIC),
        "travel(L, city1, DT, A, AT, F), F =< 600",
        None,
    ),
    "E8.travel_partial": (
        lambda: flight_database(_CHAIN),
        "travel(L, city0, DT, city7, AT, F)",
        None,
    ),
    "E8.travel_buffered": (
        lambda: flight_database(_CHAIN),
        "travel(L, city0, DT, city7, AT, F)",
        "buffered_chain_split",
    ),
    "E8.travel_connected": (
        lambda: flight_database(_CHAIN, program=TRAVEL_CONNECTED),
        "travel(L, city0, DT, city2, AT, F)",
        None,
    ),
    "E5.isort": (lambda: load(ISORT), "isort([7, 2, 9, 4, 1], S)", None),
    "E6.qsort": (lambda: load(QSORT), "qsort([6, 2, 8, 3, 5], S)", None),
    "E9.queens4": (lambda: load(NQUEENS), "queens(4, Qs)", None),
    "ancestor_follow": (_ancestor, "ancestor(a, Y)", None),
    "parent_stored": (_family(SG), "parent(p1_0, Y)", None),
}

#: Repeated probes of one shape through one session: the first plans,
#: the rest reuse the cached plan with new constants.
SESSION_CASES = {
    "sg_bf": (_family(SG), [f"sg(p0_{i}, Y)" for i in range(4)]),
    "sg_fb": (_family(SG), [f"sg(X, p0_{i})" for i in range(4)]),
    "scsg_bf": (_family(SCSG), [f"scsg(p0_{i}, Y)" for i in (2, 3, 5, 6)]),
    "travel_fare": (
        lambda: flight_database(_CYCLIC),
        [
            f"travel(L, city{src}, DT, A, AT, F), F =< {bound}"
            for src, bound in ((0, 700), (1, 600), (0, 900), (2, 500))
        ],
    ),
}


def _record(answers, counters, strategy):
    return {
        "strategy": strategy,
        "answers": sorted(" ".join(str(v) for v in row) for row in answers),
        "counters": counters.as_dict(),
    }


def run_planner_case(name):
    make_db, query, force = PLANNER_CASES[name]
    planner = Planner(make_db())
    plan = planner.plan(query)
    if force:
        plan.strategy = force
    answers, counters = planner.execute(plan)
    return _record(answers.rows(), counters, plan.strategy)


def run_session_case(name):
    make_db, queries = SESSION_CASES[name]
    session = QuerySession(make_db(), result_cache_size=0)
    out = []
    for query in queries:
        result = session.execute(query)
        out.append(_record(result.rows, result.counters, result.strategy))
    return out


def observed():
    return {
        "planner": {name: run_planner_case(name) for name in PLANNER_CASES},
        "session": {name: run_session_case(name) for name in SESSION_CASES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert set(golden["planner"]) == set(PLANNER_CASES)
    assert set(golden["session"]) == set(SESSION_CASES)


@pytest.mark.parametrize("name", sorted(PLANNER_CASES))
def test_planner_counters_are_pinned(name, golden):
    expected = golden["planner"][name]
    assert expected["answers"], "an empty answer set pins nothing"
    assert run_planner_case(name) == expected


@pytest.mark.parametrize("name", sorted(SESSION_CASES))
def test_session_counters_are_pinned(name, golden):
    got = run_session_case(name)
    expected = golden["session"][name]
    assert len(got) == len(expected)
    for probe, (mine, pinned) in enumerate(zip(got, expected)):
        assert pinned["answers"], f"{name} probe {probe} pins nothing"
        assert mine == pinned, f"{name} probe {probe}"
