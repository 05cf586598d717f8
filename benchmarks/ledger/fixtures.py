"""Seeded inputs: program files, request schedules and expected answers.

Everything here is a pure function of ``--seed``.  The program under
test only ever sees the generated program *text* and request *lines*;
the in-process objects built alongside exist for the oracle.

**The seed permutes, it never resizes.**  The driver compares runs made
with different seeds, so a seed must not change how much work a
workload is.  The *shape* of every EDB (who is whose parent, which
flights exist, the order pattern of the lists to sort) comes from the
constant ``STRUCTURE``; ``--seed`` picks the names of people and
cities, the values in the lists and the order of each schedule.  Two
seeds therefore give isomorphic inputs and different request text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.planner import Planner
from repro.engine.database import Database
from repro.workloads import (
    APPEND, ISORT, NQUEENS, QSORT, SCSG, SG, TRAVEL, TRAVEL_CONNECTED,
    FamilyConfig, FlightConfig, family_database, flight_database,
)

from . import oracle

Rows = List[List[str]]

#: Seeds every structural choice; see the module docstring.
STRUCTURE = 1992


class _Family(FamilyConfig):
    """A family whose people are renamed by a seeded per-level shuffle."""

    def __init__(self, names: random.Random, **kw):
        super().__init__(**kw)
        self._names = [names.sample(range(self.width), self.width)
                       for _ in range(self.levels)]

    def person(self, level: int, index: int) -> str:
        return f"p{level}_{self._names[level][index]:02d}"

    def people(self) -> List[str]:
        return [self.person(l, i)
                for l in range(self.levels) for i in range(self.width)]


class _Flights(FlightConfig):
    """A flight network whose cities are renamed by a seeded shuffle."""

    def __init__(self, names: random.Random, **kw):
        super().__init__(**kw)
        self._names = names.sample(range(self.airports), self.airports)

    def airport(self, index: int) -> str:
        return f"city{self._names[index]:02d}"


@dataclass
class Slot:
    """One position in a request schedule."""

    verb: str  # QUERY | FACT | RETRACT
    text: str  # the query, or the fact clause without the final dot
    expected: Optional[Rows] = None  # QUERY only

    @property
    def line(self) -> str:
        return f"{self.verb} {self.text}" + ("" if self.verb == "QUERY" else ".")


def render_facts(database: Database) -> List[str]:
    """Every stored fact as one parseable clause, in a stable order."""
    lines = []
    for predicate in sorted(database.relations, key=str):
        for row in sorted(
            [str(v) for v in row] for row in database.relations[predicate].rows()
        ):
            lines.append(f"{predicate.name}({', '.join(row)}).")
    return lines


def program_text(rules: str, facts: Sequence[str]) -> str:
    return rules.strip() + "\n" + "\n".join(facts) + "\n"


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``SMOKE`` is the under-20-seconds variant."""

    family: tuple = (6, 32, 4)  # levels, width, countries of the serving EDB
    airports: tuple = (10, 14)  # airports, extra flights
    hot: tuple = (64, 256)  # distinct queries, slots
    cold_slots: int = 512
    hot_rounds: int = 6  # rounds of the hot schedule per cycle
    durable: tuple = (4, 12, 30, 8)  # levels, width, facts, queries per fact
    durable_side: tuple = (3, 8, 8, 3)
    epochs: int = 3  # fresh server processes per run (each a cold start)
    probes: int = 6  # recoveries and CLI one-shots per run
    min_cycles: int = 8  # fewer timed cycles than this and the run is void
    smoke: bool = False


FULL = Scale()
# cold_slots must stay above the server's 256-entry result cache.
SMOKE = Scale(family=(4, 22, 2), airports=(8, 6), hot=(16, 32), cold_slots=272,
              hot_rounds=2, durable=(3, 6, 6, 3), durable_side=(3, 6, 4, 2),
              epochs=1, probes=1, min_cycles=2, smoke=True)



# ----------------------------------------------------------------------
# Serving fixture: one family + one flight network, sg/scsg/travel rules
# ----------------------------------------------------------------------
@dataclass
class ServingFixture:
    text: str
    oracle: "oracle.ProgramOracle"
    sg_first: List[str]
    sg_second: List[str]
    scsg: List[str]
    travel: List[str]

    def slot(self, query: str) -> Slot:
        return Slot("QUERY", query, self.oracle.expected(query))

    @property
    def first(self) -> Slot:
        """The query a cold start answers first (the same shape every seed)."""
        return self.slot(self.sg_first[0])


def serving_fixture(seed: int, levels: int, width: int, countries: int,
                    airports: int, extra_flights: int) -> ServingFixture:
    names = random.Random(seed)
    family = _Family(names, levels=levels, width=width, parents_per_child=2,
                     countries=countries, seed=STRUCTURE)
    database = family_database(family, program=SG + SCSG)
    network = _Flights(names, airports=airports, extra_flights=extra_flights,
                       seed=STRUCTURE)
    flights = flight_database(network)
    text = program_text(SG + SCSG + TRAVEL,
                        render_facts(database) + render_facts(flights))
    people = family.people()
    return ServingFixture(
        text=text,
        oracle=oracle.ProgramOracle(database, flights),
        sg_first=[f"sg({p}, Y)" for p in people],
        sg_second=[f"sg(X, {p})" for p in people],
        scsg=[f"scsg({p}, Y)" for p in people],
        travel=[
            f"travel(L, {network.airport(a)}, DT, {network.airport(b)}, AT, F), "
            f"F =< {budget}"
            for a in range(airports) for b in range(airports) if a != b
            for budget in (400, 700)
        ],
    )


def _mix(fixture: ServingFixture, parts: Sequence[int]) -> List[str]:
    """The first ``parts[i]`` queries of each pool: a structural choice
    (pool order follows the family's shape, not the seeded names)."""
    pools = (fixture.sg_first, fixture.sg_second, fixture.scsg, fixture.travel)
    out: List[str] = []
    for pool, n in zip(pools, parts):
        if n > len(pool):
            raise ValueError(f"pool of {len(pool)} cannot supply {n} queries")
        # Stride through the pool so every level / city pair is sampled.
        step = len(pool) / n
        out.extend(pool[int(i * step)] for i in range(n))
    return out


def hot_schedule(fixture: ServingFixture, seed: int, distinct: int = 64,
                 slots: int = 256) -> List[Slot]:
    """``slots`` requests over ``distinct`` queries with Zipf(1.1) counts.

    The popularity rank of each query is structural and the counts are
    the expected Zipf counts, not draws; the seed shuffles the order.
    """
    share = distinct // 8
    queries = _mix(fixture, (3 * share, 2 * share, 2 * share, distinct - 7 * share))
    random.Random(STRUCTURE).shuffle(queries)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(distinct)]
    scale = (slots - distinct) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]  # every query occurs
    counts[0] += slots - sum(counts)
    schedule = [slot for q, n in zip(queries, counts)
                for slot in [fixture.slot(q)] * n]
    random.Random(seed * 7919 + 1).shuffle(schedule)
    return schedule


def cold_schedule(fixture: ServingFixture, seed: int, slots: int = 512) -> List[Slot]:
    """``slots`` distinct probes; the seed fixes their (cycled) order."""
    share = slots // 16
    queries = _mix(fixture, (5 * share, 5 * share, 4 * share, slots - 14 * share))
    random.Random(seed * 7919 + 2).shuffle(queries)
    return [fixture.slot(q) for q in queries]


# ----------------------------------------------------------------------
# Durable read/write fixture
# ----------------------------------------------------------------------
@dataclass
class DurableFixture:
    text: str
    round: List[Slot]  # K/2 x (FACT, queries...) then K/2 RETRACTs
    writes: int  # K: FACT + RETRACT slots per round
    kill_at: int  # slots of the extra round acknowledged before SIGKILL
    kill_fact_bytes: int  # fact text live at the kill point
    after_kill: List[Slot]  # every distinct query, expected at the kill state
    hit_query: Slot  # valid at every round boundary


def durable_fixture(seed: int, levels: int, width: int, facts: int,
                    queries_per_fact: int) -> DurableFixture:
    shape = random.Random(STRUCTURE + 3)
    family = _Family(random.Random(seed * 7919 + 3), levels=levels, width=width,
                     parents_per_child=2, countries=2, seed=STRUCTURE)
    database = family_database(family, program=SG + SCSG)
    fact_lines = render_facts(database)

    existing = {tuple(str(v) for v in row)
                for row in database.relation("parent", 2).rows()}
    new_facts = [
        pair for pair in (
            (family.person(level, c), family.person(level + 1, p))
            for level in range(levels - 1)
            for c in range(width) for p in range(width))
        if pair not in existing
    ]
    if len(new_facts) < facts:
        raise ValueError("family too small for the requested write count")
    new_facts = shape.sample(new_facts, facts)
    people = family.people()
    pool = ([f"sg({p}, Y)" for p in people] + [f"sg(X, {p})" for p in people]
            + [f"scsg({p}, Y)" for p in people])

    def answer(query: str) -> Rows:
        return oracle.rows_of(Planner(database).answer(query))

    asked = [[f"sg({child}, Y)"] + shape.sample(pool, queries_per_fact - 1)
             for child, _ in new_facts]
    distinct = list(dict.fromkeys(q for group in asked for q in group))
    kill_at = (3 * facts * (queries_per_fact + 2)) // 4
    live_bytes = sum(len(line) + 1 for line in fact_lines)
    schedule: List[Slot] = []
    at_kill: Dict[str, object] = {}

    def emit(slot: Slot) -> None:
        schedule.append(slot)
        if len(schedule) == kill_at:
            at_kill["bytes"] = live_bytes
            at_kill["slots"] = [Slot("QUERY", q, answer(q)) for q in distinct]

    for (child, par), queries in zip(new_facts, asked):
        clause = f"parent({child}, {par})"
        database.add_fact("parent", (child, par))
        live_bytes += len(clause) + 2
        emit(Slot("FACT", clause))
        for query in queries:
            emit(Slot("QUERY", query, answer(query)))
    for child, par in new_facts:
        clause = f"parent({child}, {par})"
        database.retract_fact("parent", (child, par))
        live_bytes -= len(clause) + 2
        emit(Slot("RETRACT", clause))
    return DurableFixture(
        text=program_text(SG + SCSG, fact_lines),
        round=schedule,
        writes=2 * facts,
        kill_at=kill_at,
        kill_fact_bytes=at_kill["bytes"],
        after_kill=at_kill["slots"],
        hit_query=Slot("QUERY", distinct[0], answer(distinct[0])),
    )


# ----------------------------------------------------------------------
# Paper batch: E1-E9, one fresh Planner per slot
# ----------------------------------------------------------------------
@dataclass
class PaperSlot:
    name: str  # e.g. "E1.scsg_split"
    build: Callable[[], Database]
    query: str
    expected: Rows
    force: Optional[str] = None  # strategy override (the un-split lanes)
    core: bool = False  # part of the short side lane
    database: Optional[Database] = None  # filled by the lane's set-up


def _int_list(shape: random.Random, names: random.Random, n: int) -> List[int]:
    """``n`` distinct seeded values laid out in a structural order pattern,
    so the sorting work does not depend on the seed."""
    values = sorted(names.sample(range(1000, 10_000), n))
    return [values[rank] for rank in shape.sample(range(n), n)]


def paper_slots(seed: int, smoke: bool = False) -> List[PaperSlot]:
    """The paper's comparisons as 20 slots of roughly 5-200 ms each."""
    shape = random.Random(STRUCTURE + 4)
    names = random.Random(seed * 7919 + 4)
    shrink = 2 if smoke else 1
    slots: List[PaperSlot] = []

    def add(name, build, query, expected, force=None, core=False):
        slots.append(PaperSlot(name, build, query, sorted(expected), force, core))

    def family(levels, width, countries, program, **kw):
        config = _Family(names, levels=levels, width=max(4, width // shrink),
                         parents_per_child=2, countries=countries,
                         seed=STRUCTURE, **kw)
        return config, lambda: family_database(config, program=program)

    def probe(config, build, predicate, second=False, rank=0):
        """Among four level-0 people, the one with the ``rank``-th most
        answers (ties by position): a structural choice."""
        truth = oracle.ProgramOracle(build(), None)
        shape_ = "{0}(X, {1})" if second else "{0}({1}, Y)"
        queries = [shape_.format(predicate, config.person(0, i)) for i in range(4)]
        order = sorted(range(4), key=lambda i: (-len(truth.expected(queries[i])), i))
        return queries[order[rank]], truth.expected(queries[order[rank]])

    # E1: scsg, chain-split magic vs merged-chain (un-split) magic.
    c, b = family(5, 16, 2, SCSG)
    add("E1.scsg_split", b, *probe(c, b, "scsg"), core=True)
    add("E1.scsg_unsplit", b, *probe(c, b, "scsg", rank=1), force="magic_sets")
    c, b = family(5, 32, 4, SCSG)
    add("E1.scsg_split_wide", b, *probe(c, b, "scsg"))
    # E2: the selective end of the crossover (country never spans levels).
    c, b = family(5, 32, 4, SCSG, per_level_countries=True, lonely_fraction=0.25)
    add("E2.scsg_selective", b, *probe(c, b, "scsg"))
    # E7: sg by counting and by magic sets, bound and unbound.
    c, b = family(6, 32, 4, SG)
    add("E7.sg_counting", b, *probe(c, b, "sg"), core=True)
    add("E7.sg_magic", b, *probe(c, b, "sg", rank=1), force="magic_sets")
    add("E7.sg_second", b, *probe(c, b, "sg", second=True))
    c, b = family(5, 12, 4, SG)
    add("E7.sg_free", b, "sg(X, Y)",
        oracle.ProgramOracle(b(), None).expected("sg(X, Y)"))

    # E3: append^bbf and append^ffb through chain-split.
    values = _int_list(shape, names, 96 // shrink)
    add("E3.append_bbf", lambda: _load(APPEND), f"append({values}, [1, 2, 3], W)",
        [[str(values), "[1, 2, 3]", str(values + [1, 2, 3])]], core=True)
    half = values[: len(values) // 2]
    add("E3.append_ffb", lambda: _load(APPEND), f"append(U, V, {half})",
        [[str(half[:i]), str(half[i:]), str(half)] for i in range(len(half) + 1)])

    # E4: travel, partial evaluation with the fare bound pushed (cyclic net).
    net = _Flights(names, airports=10, extra_flights=14, seed=STRUCTURE + 11)
    b = lambda: flight_database(net)  # noqa: E731
    truth = oracle.ProgramOracle(None, b())
    a0, a1, a9 = net.airport(0), net.airport(1), net.airport(9)
    for name, query, core in (
        ("E4.travel_push_loose", f"travel(L, {a0}, DT, {a9}, AT, F), F =< 1700", False),
        ("E4.travel_push_tight", f"travel(L, {a0}, DT, {a9}, AT, F), F =< 1600", False),
        ("E4.travel_push_open", f"travel(L, {a1}, DT, A, AT, F), F =< 900", True),
    ):
        add(name, b, query, truth.expected(query), core=core)
    # E8: buffered vs partial on an acyclic chain.
    chain = _Flights(names, airports=48 // shrink, extra_flights=0, seed=STRUCTURE + 5)
    query = (f"travel(L, {chain.airport(0)}, DT, "
             f"{chain.airport(chain.airports - 1)}, AT, F)")
    b = lambda: flight_database(chain)  # noqa: E731
    expected = oracle.ProgramOracle(None, b()).expected(query)
    add("E8.travel_partial", b, query, expected)
    add("E8.travel_buffered", b, query, expected, force="buffered_chain_split")
    b2 = lambda: flight_database(chain, program=TRAVEL_CONNECTED)  # noqa: E731
    add("E8.travel_connected", b2, query,
        oracle.ProgramOracle(None, b2()).expected(query, connected=True))

    # E5/E6: isort (nested linear) and qsort (nonlinear).
    short = _int_list(shape, names, 20 // shrink)
    add("E5.isort", lambda: _load(ISORT), f"isort({short}, S)",
        [[str(short), str(sorted(short))]], core=True)
    longer = _int_list(shape, names, 24 // shrink)
    add("E6.qsort", lambda: _load(QSORT), f"qsort({longer}, S)",
        [[str(longer), str(sorted(longer))]])
    # E9: n-queens (no seeded input: the program has no EDB).
    for n in ((4,) if smoke else (4, 5)):
        add(f"E9.queens{n}", lambda: _load(NQUEENS), f"queens({n}, Qs)",
            [[str(n), str(s)] for s in oracle.queens(n)])
    return slots


def _load(source: str) -> Database:
    database = Database()
    database.load_source(source)
    return database


def oneshot_fixture(seed: int) -> Tuple[str, Slot]:
    """The scsg program file and query the CLI one-shot lane runs."""
    family = _Family(random.Random(seed * 7919 + 5), levels=5, width=12,
                     parents_per_child=2, countries=2, seed=STRUCTURE)
    database = family_database(family, program=SCSG)
    truth = oracle.ProgramOracle(database, None)
    query = max((f"scsg({family.person(0, i)}, Y)" for i in range(4)),
                key=lambda q: len(truth.expected(q)))
    return (program_text(SCSG, render_facts(database)),
            Slot("QUERY", query, truth.expected(query)))


# ----------------------------------------------------------------------
# One workload's inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    workload: str
    seed: int
    scale: Scale
    serving: Optional[ServingFixture]
    schedule: Optional[List[Slot]]  # the main read schedule (serve-hot/-cold)
    durable: DurableFixture  # main lane on serve-rw, side lane elsewhere
    paper: List[PaperSlot]  # every slot on paper-batch, the core elsewhere
    oneshot: Tuple[str, Slot]

    def pins(self) -> Dict[str, str]:
        """A digest per group of expected answers (see ``expected.py``)."""
        def over(slots: Sequence[Slot]) -> str:
            return oracle.digest([[s.line] + [", ".join(r) for r in s.expected or []]
                                  for s in slots])
        out = {"durable": over(self.durable.round),
               "durable.after_kill": over(self.durable.after_kill),
               "oneshot": over([self.oneshot[1]])}
        if self.schedule is not None:
            out["main"] = over(self.schedule)
        for slot in self.paper:
            out[f"paper.{slot.name}"] = oracle.digest([[slot.query]] + slot.expected)
        return out


def build_inputs(workload: str, seed: int, scale: Scale = FULL) -> Inputs:
    serving = schedule = None
    if workload in ("serve-hot", "serve-cold"):
        serving = serving_fixture(seed, *scale.family, *scale.airports)
        schedule = (hot_schedule(serving, seed, *scale.hot)
                    if workload == "serve-hot"
                    else cold_schedule(serving, seed, scale.cold_slots))
    elif workload not in ("serve-rw", "paper-batch"):
        raise ValueError(f"unknown workload {workload!r}")
    slots = paper_slots(seed, smoke=scale.smoke)
    return Inputs(
        workload=workload,
        seed=seed,
        scale=scale,
        serving=serving,
        schedule=schedule,
        durable=durable_fixture(seed, *(
            scale.durable if workload == "serve-rw" else scale.durable_side)),
        paper=slots if workload == "paper-batch" else [s for s in slots if s.core],
        oneshot=oneshot_fixture(seed),
    )
