#!/usr/bin/env python
"""Engine A/B benchmark: streaming pipeline + delta discipline vs the
pre-overhaul engine.

Compares the current engine (streaming ``evaluate_body``, generation-
window delta discipline, persistent indexes) against a self-contained
reimplementation of the previous engine:

* ``legacy_evaluate_body`` — materializes a full substitution list per
  body literal (the peak list size is the paper's intermediate-relation
  blowup, recorded in ``peak_intermediate`` for comparability);
* ``LegacySemiNaiveEvaluator`` — per-round delta *relations* rebuilt
  from scratch, and every non-delta recursive slot reading the live
  (growing) relation, which re-derives same-round tuple combinations
  once per slot on nonlinear rules.

Workloads: ``sg`` and ``scsg`` (full bottom-up over layered family
data; scsg's weak ``same_country`` linkage is what blows up the
materialized lists), a nonlinear transitive closure (the duplicate-
derivation fix), and ``travel`` (buffered chain-split evaluation, whose
down/exit/up joins all stream now).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out FILE]

Answers are verified identical between engines; the script exits
non-zero on any mismatch, so ``--quick`` doubles as a CI smoke test.
``BENCH_engine.json`` in the repository root holds a committed full
run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datalog.literals import Predicate
from repro.datalog.parser import parse_query
from repro.datalog.rules import Rule
from repro.datalog.terms import is_ground
from repro.datalog.unify import Substitution, apply_substitution
from repro.engine.context import DISABLED, EvalContext
from repro.engine.counters import Counters
from repro.engine.database import Database
from repro.engine.joins import (
    UnsafeRuleError,
    _resolve,
    literal_solutions,
    order_body,
)
from repro.engine.relation import Relation
from repro.engine.seminaive import EvaluationResult, SemiNaiveEvaluator, Stratum
from repro.analysis.normalize import normalize
from repro.core import buffered as buffered_module
from repro.core.buffered import BufferedChainEvaluator
from repro.workloads import (
    SCSG,
    SG,
    FamilyConfig,
    FlightConfig,
    family_database,
    flight_database,
)


# ----------------------------------------------------------------------
# The previous engine, self-contained for the A/B comparison
# ----------------------------------------------------------------------
def legacy_evaluate_body(
    ordered_body,
    lookup,
    registry,
    seed: Substitution,
    counters: Optional[Counters] = None,
    overrides=None,
    idb_solver=None,
    stage_counts: Optional[List[int]] = None,
    ctx=None,
) -> Iterator[Substitution]:
    """The pre-overhaul join: one materialized substitution list per
    body literal.  ``peak_intermediate`` records the largest list.
    ``stage_counts`` (the tracer hook) and ``ctx`` (the evaluation
    context) are accepted for signature compatibility and ignored —
    the legacy engine predates tracing and budgets."""
    substitutions: List[Substitution] = [seed]
    if counters is not None and counters.peak_intermediate < 1:
        counters.peak_intermediate = 1
    for original_index, literal in ordered_body:
        if not substitutions:
            return
        next_substitutions: List[Substitution] = []
        if literal.negated:
            relation = _resolve(literal, lookup, overrides, original_index)
            for subst in substitutions:
                ground_args = tuple(
                    apply_substitution(a, subst) for a in literal.args
                )
                if any(not is_ground(a) for a in ground_args):
                    raise UnsafeRuleError(
                        f"negated literal {literal} not ground at evaluation time"
                    )
                if counters is not None:
                    counters.join_probes += 1
                if relation is None or ground_args not in relation:
                    next_substitutions.append(subst)
        elif registry.is_builtin(literal):
            # Note: the old engine did not count builtin_evals at all —
            # that bug is fixed in the current engine, so totals beyond
            # the shared counters are not compared.
            for subst in substitutions:
                for solution in registry.solve(literal, subst):
                    next_substitutions.append(solution)
        else:
            relation = _resolve(literal, lookup, overrides, original_index)
            if relation is None and idb_solver is not None:
                for subst in substitutions:
                    for solution in idb_solver(literal, subst):
                        next_substitutions.append(solution)
            elif relation is None:
                return
            else:
                for subst in substitutions:
                    for solution in literal_solutions(
                        literal, relation, subst, counters
                    ):
                        next_substitutions.append(solution)
        substitutions = next_substitutions
        if counters is not None:
            counters.intermediate_tuples += len(substitutions)
            if len(substitutions) > counters.peak_intermediate:
                counters.peak_intermediate = len(substitutions)
    for subst in substitutions:
        yield subst


class LegacySemiNaiveEvaluator(SemiNaiveEvaluator):
    """The pre-overhaul semi-naive loop: fresh per-round delta
    relations, and every non-delta recursive slot reading the live
    full relation."""

    def _evaluate_stratum(
        self,
        compiled: Stratum,
        derived: Dict[Predicate, Relation],
        counters: Counters,
        stop_condition=None,
        on_derive=None,
    ) -> bool:
        # Only the stratum's predicates and rules: the legacy engine
        # orders and joins them itself.
        stratum, rules = compiled.predicates, compiled.rules
        for predicate in stratum:
            derived.setdefault(
                predicate, Relation(predicate.name, predicate.arity)
            )
        lookup = self._make_lookup(derived)
        ordered_bodies = {
            id(rule): order_body(rule.body, self.registry) for rule in rules
        }
        recursive_slots: Dict[int, List[int]] = {
            id(rule): [
                i
                for i, lit in enumerate(rule.body)
                if lit.predicate in stratum and not lit.negated
            ]
            for rule in rules
        }

        delta: Dict[Predicate, Relation] = {
            p: Relation(p.name, p.arity) for p in stratum
        }
        for predicate in stratum:
            stored = self.database.get(predicate)
            if stored is not None:
                for row in stored:
                    if derived[predicate].add(row):
                        delta[predicate].add(row)
        for rule in rules:
            for subst in legacy_evaluate_body(
                ordered_bodies[id(rule)], lookup, self.registry, {}, counters
            ):
                row = self._head_row(rule, subst)
                if derived[rule.head.predicate].add(row):
                    counters.derived_tuples += 1
                    delta[rule.head.predicate].add(row)
                else:
                    counters.duplicate_tuples += 1
        counters.iterations += 1
        if stop_condition is not None and stop_condition(derived):
            return True

        while any(len(rel) for rel in delta.values()):
            counters.iterations += 1
            if counters.iterations > self.max_iterations:
                raise RuntimeError(
                    f"fixpoint did not converge within "
                    f"{self.max_iterations} iterations"
                )
            new_delta: Dict[Predicate, Relation] = {
                p: Relation(p.name, p.arity) for p in stratum
            }
            for rule in rules:
                slots = recursive_slots[id(rule)]
                if not slots:
                    continue
                for slot in slots:
                    literal = rule.body[slot]
                    overrides = {slot: delta[literal.predicate]}
                    for subst in legacy_evaluate_body(
                        ordered_bodies[id(rule)],
                        lookup,
                        self.registry,
                        {},
                        counters,
                        overrides=overrides,
                    ):
                        row = self._head_row(rule, subst)
                        if derived[rule.head.predicate].add(row):
                            counters.derived_tuples += 1
                            new_delta[rule.head.predicate].add(row)
                        else:
                            counters.duplicate_tuples += 1
            delta = new_delta
            if stop_condition is not None and stop_condition(derived):
                return True
        return False


# ----------------------------------------------------------------------
# Workload cases
# ----------------------------------------------------------------------
def _counters_record(counters: Counters, seconds: float) -> Dict[str, object]:
    record = counters.as_dict()
    record["wall_ms"] = round(seconds * 1e3, 3)
    return record


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _bottom_up_case(name: str, db: Database, head: str, arity: int):
    """Full bottom-up evaluation, legacy vs current semi-naive."""

    def run(evaluator_cls) -> EvaluationResult:
        return evaluator_cls(db).evaluate()

    legacy, legacy_s = _timed(lambda: run(LegacySemiNaiveEvaluator))
    current, current_s = _timed(lambda: run(SemiNaiveEvaluator))
    if legacy.relation(head, arity) != current.relation(head, arity):
        raise AssertionError(f"{name}: engines disagree on {head}/{arity}")
    return {
        "case": name,
        "answers": len(current.relation(head, arity)),
        "legacy": _counters_record(legacy.counters, legacy_s),
        "current": _counters_record(current.counters, current_s),
    }


def case_sg(quick: bool) -> Dict[str, object]:
    config = FamilyConfig(
        levels=4 if quick else 5,
        width=8 if quick else 16,
        parents_per_child=2,
        countries=2,
        seed=7,
    )
    db = family_database(config, program=SG)
    return _bottom_up_case("sg", db, "sg", 2)


def case_scsg(quick: bool) -> Dict[str, object]:
    config = FamilyConfig(
        levels=4 if quick else 5,
        width=8 if quick else 14,
        parents_per_child=2,
        countries=2,
        seed=7,
    )
    db = family_database(config, program=SCSG)
    return _bottom_up_case("scsg", db, "scsg", 2)


def case_nonlinear(quick: bool) -> Dict[str, object]:
    """Nonlinear transitive closure — the delta-discipline fix: the
    legacy per-slot variants re-derive same-round tuple pairs, so its
    ``duplicate_tuples`` is strictly higher."""
    n = 24 if quick else 60
    db = Database()
    db.load_source(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), path(Z, Y).
        """
    )
    for i in range(n):
        db.add_fact("edge", (f"v{i}", f"v{i + 1}"))
    result = _bottom_up_case("nonlinear_path", db, "path", 2)
    if result["current"]["duplicate_tuples"] >= result["legacy"]["duplicate_tuples"]:
        raise AssertionError(
            "nonlinear delta discipline did not reduce duplicate_tuples: "
            f"{result['current']['duplicate_tuples']} >= "
            f"{result['legacy']['duplicate_tuples']}"
        )
    return result


def case_travel(quick: bool) -> Dict[str, object]:
    """Buffered chain-split evaluation of travel on a path network;
    legacy = the materializing join swapped into the buffered
    evaluator's down/exit/up phases."""
    length = 8 if quick else 14
    db = flight_database(
        FlightConfig(airports=length + 1, extra_flights=0, seed=5)
    )
    rect, compiled = normalize(db.program, Predicate("travel", 6))
    rect_db = Database()
    rect_db.program = rect
    rect_db.relations = db.relations
    query = parse_query(f"travel(L, city0, DT, city{length}, AT, F)")[0]

    def run():
        return BufferedChainEvaluator(rect_db, compiled).evaluate(query)

    original = buffered_module.evaluate_body
    buffered_module.evaluate_body = legacy_evaluate_body
    try:
        (legacy_answers, legacy_counters), legacy_s = _timed(run)
    finally:
        buffered_module.evaluate_body = original
    (current_answers, current_counters), current_s = _timed(run)
    if legacy_answers.rows() != current_answers.rows():
        raise AssertionError("travel: engines disagree on answers")
    return {
        "case": "travel_buffered",
        "answers": len(current_answers),
        "legacy": _counters_record(legacy_counters, legacy_s),
        "current": _counters_record(current_counters, current_s),
    }


CASES = [case_sg, case_scsg, case_nonlinear, case_travel]


def tracer_parity(quick: bool) -> Dict[str, object]:
    """Tracing must not change evaluation: the same scsg bottom-up run
    under the disabled context and with a no-op ``Tracer`` installed
    must produce bit-identical counters and relations, and the
    enabled-but-recording-nothing path must stay within noise of the
    disabled path (bounded generously at 3x — it is no-op hook calls
    and stage counting, not real work)."""
    from repro.observe import Tracer

    config = FamilyConfig(
        levels=4 if quick else 5,
        width=8 if quick else 14,
        parents_per_child=2,
        countries=2,
        seed=7,
    )

    def run(ctx) -> EvaluationResult:
        db = family_database(config, program=SCSG)
        return SemiNaiveEvaluator(db, ctx=ctx).evaluate()

    off, off_s = _timed(lambda: run(DISABLED))
    on, on_s = _timed(lambda: run(EvalContext(tracer=Tracer())))
    if off.counters.as_dict() != on.counters.as_dict():
        raise AssertionError("no-op tracer changed the work counters")
    if off.relation("scsg", 2) != on.relation("scsg", 2):
        raise AssertionError("no-op tracer changed the derived relation")
    overhead = on_s / max(off_s, 1e-9)
    if overhead > 3.0:
        raise AssertionError(
            f"no-op tracer overhead {overhead:.2f}x exceeds the 3x bound"
        )
    return {
        "case": "scsg_tracer_noop",
        "answers": len(on.relation("scsg", 2)),
        "tracer_off_ms": round(off_s * 1e3, 3),
        "tracer_noop_ms": round(on_s * 1e3, 3),
        "overhead_ratio": round(overhead, 3),
        "counters_identical": True,
    }


def profiler_parity(quick: bool) -> Dict[str, object]:
    """Profiling must not change evaluation either: the same sg
    bottom-up run with the profiler off, on, and memory-sampling must
    produce bit-identical counters and relations, and the enabled path
    (timing only, no tracemalloc) must stay under 5% overhead.

    The overhead estimate is the median of 25 *paired* off/on ratios
    (pair order alternating): pairing cancels slow clock drift, the
    median discards the pairs a scheduler hiccup spoiled, and 25 pairs
    keep the estimate stable on noisy shared runners where any single
    ratio can swing tens of percent.  Noise only ever inflates a
    timing, so if the estimate still lands over the bound one retry
    runs and the better (lower) estimate is judged — a genuine per-span
    cost floors both, a noisy phase spoils at most one.  The workload
    is a fixed mid-size sg (not the quick/full A/B config) so the
    measured wall is long enough to resolve 5%."""
    from repro.profile import SpanProfiler

    config = FamilyConfig(
        levels=4 if quick else 5,
        width=8 if quick else 16,
        parents_per_child=2,
        countries=2,
        seed=7,
    )

    def run(cfg, profiler):
        # Build the database outside the timed region: workload
        # construction is RNG + parsing, not engine work, and its
        # jitter would swamp the per-span cost being measured.  A GC
        # pass before the timer keeps garbage from earlier benchmark
        # cases (or the db build itself) from triggering a collection
        # inside the measured window.
        import gc

        db = family_database(cfg, program=SG)
        gc.collect()
        ctx = EvalContext(profiler=profiler)
        return _timed(lambda: SemiNaiveEvaluator(db, ctx=ctx).evaluate())

    off, _ = run(config, None)
    on, _ = run(config, SpanProfiler())
    memory_profiler = SpanProfiler(memory=True)
    try:
        mem, _ = run(config, memory_profiler)
    finally:
        memory_profiler.close()
    for label, other in (("profiler", on), ("memory profiler", mem)):
        if off.counters.as_dict() != other.counters.as_dict():
            raise AssertionError(f"{label} changed the work counters")
        if off.relation("sg", 2) != other.relation("sg", 2):
            raise AssertionError(f"{label} changed the derived relation")

    bench_config = FamilyConfig(
        levels=5, width=24, parents_per_child=2, countries=2, seed=7
    )
    spans = 0

    def estimate():
        nonlocal spans
        off_times, on_times, ratios = [], [], []
        for i in range(25):
            profiler = SpanProfiler()
            if i % 2:
                off_s = run(bench_config, None)[1]
                on_s = run(bench_config, profiler)[1]
            else:
                on_s = run(bench_config, profiler)[1]
                off_s = run(bench_config, None)[1]
            off_times.append(off_s)
            on_times.append(on_s)
            ratios.append(on_s / max(off_s, 1e-9))
            spans = len(profiler.spans())
        import statistics

        return min(off_times), min(on_times), statistics.median(ratios)

    best_off, best_on, overhead = estimate()
    if overhead > 1.05:
        retry_off, retry_on, retry_overhead = estimate()
        if retry_overhead < overhead:
            best_off, best_on, overhead = retry_off, retry_on, retry_overhead
    if overhead > 1.05:
        raise AssertionError(
            f"profiler overhead {overhead:.3f}x exceeds the 1.05x bound"
        )
    return {
        "case": "sg_profiler",
        "answers": len(on.relation("sg", 2)),
        "profiler_off_ms": round(best_off * 1e3, 3),
        "profiler_on_ms": round(best_on * 1e3, 3),
        "overhead_ratio": round(overhead, 3),
        "spans": spans,
        "counters_identical": True,
    }


def run_bench(quick: bool, parity: bool = True) -> Dict[str, object]:
    """One full benchmark run: the A/B cases plus the parity/overhead
    guards, as the JSON-serializable report dict.

    ``benchmarks/regress.py`` calls this directly (several times, for
    the median) instead of shelling out; repeat runs pass
    ``parity=False`` — the parity/overhead guards are pass/fail, not
    timings to median over, so once per gate is enough."""
    report = {
        "benchmark": "engine: streaming pipeline + delta discipline vs legacy",
        "quick": quick,
        "python": sys.version.split()[0],
        "cases": [case(quick) for case in CASES],
    }
    if parity:
        report["tracer_parity"] = tracer_parity(quick)
        report["profiler_parity"] = profiler_parity(quick)
    for case in report["cases"]:
        legacy, current = case["legacy"], case["current"]
        case["peak_intermediate_ratio"] = round(
            legacy["peak_intermediate"] / max(current["peak_intermediate"], 1), 2
        )
        case["speedup"] = round(
            legacy["wall_ms"] / max(current["wall_ms"], 1e-9), 2
        )
        # The streaming peak is bounded by the body length; the legacy
        # peak is the largest materialized list.  On skinny joins the
        # legacy list can be shorter than the body, so the blowup guard
        # only applies where the legacy engine actually materialized.
        if (
            legacy["peak_intermediate"] > 16
            and current["peak_intermediate"] >= legacy["peak_intermediate"]
        ):
            raise AssertionError(
                f"{case['case']}: streaming peak did not beat legacy peak"
            )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads (CI smoke: verifies engine agreement fast)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report to this file (default: stdout only)",
    )
    args = parser.parse_args(argv)

    report = run_bench(args.quick)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
