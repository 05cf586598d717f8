"""An IVM session answers exactly like a plain one.

IVM and the planner read one dependency graph, which classifies the
*rectified* rules.  List recursions (``append``, ``nrev``, ``isort``,
``qsort``) build their heads with ``cons`` once rectified, so they are
functional: IVM must not materialize them (it used to, and answered
``append`` and ``nrev`` with zero rows and ``isort``/``qsort`` with an
``UnsafeRuleError``), and the session falls back to the planner.
Definite closures keep being served from their views.
"""

import pytest

from repro.datalog.literals import Predicate
from repro.service.session import QuerySession
from repro.workloads import (
    ANCESTOR,
    APPEND,
    ISORT,
    NREV,
    QSORT,
    SCSG,
    SG,
    FamilyConfig,
    family_database,
    load,
)

LIST_QUERIES = [
    (APPEND, "append([1, 2], [3], X)"),
    (APPEND, "append(X, Y, [a, b])"),
    (NREV, "nrev([1, 2, 3], R)"),
    (ISORT, "isort([3, 1, 2], Y)"),
    (QSORT, "qsort([3, 1, 2], Y)"),
]


@pytest.mark.parametrize(
    "source, query", LIST_QUERIES, ids=[query for _, query in LIST_QUERIES]
)
def test_list_recursions_answer_like_a_plain_session(source, query):
    plain = QuerySession(load(source)).execute(query)
    ivm = QuerySession(load(source), ivm=True).execute(query)
    assert plain.rows, "an empty answer proves nothing"
    assert (ivm.rows, ivm.strategy) == (plain.rows, plain.strategy)
    assert not ivm.via_view


def _family():
    return family_database(
        FamilyConfig(levels=4, width=6, parents_per_child=2, countries=2, seed=7),
        program=SG + SCSG + ANCESTOR,
    )


@pytest.mark.parametrize("name", ["sg", "scsg", "ancestor"])
def test_definite_closures_still_served_from_views(name):
    query = f"{name}(X, Y)"
    session = QuerySession(_family(), ivm=True)
    result = session.execute(query)
    assert result.via_view
    assert result.rows == QuerySession(_family()).execute(query).rows
    assert session.views.graph.info(Predicate(name, 2)).maintainable


def test_one_graph_for_planner_and_views():
    session = QuerySession(_family(), ivm=True)
    assert session.views.graph is session.planner.graph
    session.load_source("grand(X, Y) :- parent(X, Z), parent(Z, Y).")
    session.execute("grand(X, Y)")
    assert session.views.graph is session.planner.graph


@pytest.mark.parametrize(
    "source", [APPEND, NREV, QSORT], ids=["append", "nrev", "qsort"]
)
def test_append_is_not_subscribable(source):
    session = QuerySession(load(source), ivm=True)
    message = session.subscribable(Predicate("append", 3))
    assert message is not None and "not materializable" in message
    assert not session.views.fixpoints
