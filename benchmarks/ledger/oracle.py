"""The answer oracle: what every reply is checked against.

sg/scsg answers come from one in-process semi-naive fixpoint built at
set-up; the functional programs (travel, append, isort, qsort, queens)
from plain-Python reference computations that share no code with the
engine.  A failed check counts as a failed operation.  On top of that,
``expected/seed-<n>.json`` pins a digest of every expected answer for
the default seed, so a change to the *oracle* shows up in review.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.datalog.parser import parse_query
from repro.datalog.terms import Const
from repro.engine.seminaive import SemiNaiveEvaluator

Rows = List[List[str]]


def rows_of(relation) -> Rows:
    """A relation's rows as the wire renders them: sorted string lists."""
    return sorted([str(value) for value in row] for row in relation.rows())


def digest(rows: Rows) -> str:
    payload = json.dumps(sorted(rows), separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def queens(n: int) -> List[List[int]]:
    """All n-queens placements as lists of columns, one per row."""
    out: List[List[int]] = []

    def place(prefix: List[int]) -> None:
        if len(prefix) == n:
            out.append(list(prefix))
            return
        for column in range(1, n + 1):
            if all(column != c and abs(column - c) != len(prefix) - r
                   for r, c in enumerate(prefix)):
                prefix.append(column)
                place(prefix)
                prefix.pop()

    place([])
    return out


class ProgramOracle:
    """Expected answers for sg/scsg (fixpoint) and travel (path search)."""

    def __init__(self, family_database, flight_database):
        self._fixpoint: Dict[str, Rows] = {}
        if family_database is not None:
            result = SemiNaiveEvaluator(family_database).evaluate()
            for predicate, relation in result.relations.items():
                self._fixpoint[predicate.name] = rows_of(relation)
        self._flights: Dict[str, list] = {}
        if flight_database is not None:
            for row in flight_database.relation("flight", 6).rows():
                fno, dep, dt, arr, at, fare = (v.value for v in row)
                self._flights.setdefault(dep, []).append((fno, dt, arr, at, fare))

    def expected(self, query: str, connected: bool = False) -> Rows:
        literal, *constraints = parse_query(query)
        if literal.predicate.name == "travel":
            return self._travel(literal, constraints, connected)
        rows = self._fixpoint[literal.predicate.name]
        bound = [(i, str(arg)) for i, arg in enumerate(literal.args)
                 if isinstance(arg, Const)]
        return [row for row in rows if all(row[i] == v for i, v in bound)]

    def _travel(self, literal, constraints, connected: bool) -> Rows:
        """Every route (cities may repeat) within the pushed fare bound.

        ``connected`` applies TRAVEL_CONNECTED's check that each onward
        flight departs no earlier than the previous one lands.
        """
        _, dep, _, arr, _, _ = literal.args
        limit = None
        for constraint in constraints:
            if constraint.predicate.name != "=<":
                raise ValueError(f"oracle cannot push {constraint}")
            limit = constraint.args[1].value
        want = arr.value if isinstance(arr, Const) else None
        # Without a bound only an acyclic network terminates, and there
        # no route is longer than the flight table.
        longest = sum(len(v) for v in self._flights.values())
        out: Rows = []

        def extend(city, route, first_dt, landed, fare):
            for fno, dt, nxt, at, cost in self._flights.get(city, ()):
                total = fare + cost
                if limit is not None and total > limit:
                    continue
                if connected and route and dt < landed:
                    continue
                if limit is None and len(route) >= longest:
                    raise ValueError("travel oracle: unbounded query on a cyclic network")
                path = route + [fno]
                start = first_dt if route else dt
                if want is None or nxt == want:
                    out.append([f"[{', '.join(path)}]", dep.value, str(start),
                                nxt, str(at), str(total)])
                extend(nxt, path, start, at, total)

        extend(dep.value, [], None, None, 0)
        return sorted(out)


def reply_ok(envelope: Dict[str, object], slot) -> bool:
    """Does a wire reply satisfy its slot?"""
    if not isinstance(envelope, dict) or envelope.get("ok") is not True:
        return False
    if slot.verb == "QUERY":
        return sorted(envelope.get("answers", [["<missing>"]])) == sorted(slot.expected)
    flag = "added" if slot.verb == "FACT" else "removed"
    return envelope.get(flag) is True
