"""The evaluation tracer: structured events from a running evaluation.

A tracer rides on the evaluation's
:class:`~repro.engine.context.EvalContext` (which also states the
disabled-path discipline); with one installed, the evaluators emit
structured :class:`TraceEvent` records:

==================  ====================================================
event kind          payload
==================  ====================================================
``round_start``     fixpoint round number, stratum predicates
``round_end``       round number, per-predicate delta sizes (tuples
                    newly derived this round)
``rule``            one rule-variant firing: the ordered body, per-join-
                    stage substitution counts in/out (the **observed
                    expansion ratio** per stage), derived/duplicate
                    tuple counts
``chain_down``      one level of a buffered chain-split down phase:
                    depth, frontier size, stage counts over the
                    evaluable portion
``chain_up``        the buffered up phase: resumed calls, stage counts
                    over the delayed portion
``count_down``      one level of a counting-method down phase: depth,
                    frontier size, stage counts over the bound chain
``count_up``        one counting-method up chain, aggregated over the
                    whole ascent: stage counts, climbed seeds
``descent``         one level of partial-evaluation descent: depth,
                    frontier, pruned count, stage counts
``split_decision``  a :class:`~repro.core.split.ChainSplitDecision`:
                    criterion, portions, per-linkage predicted ratios
``strategy``        the planner's strategy choice for a query
``cache``           a plan/result cache hit or miss
``phase``           free-form milestones (magic rewrite, exit phase, …)
==================  ====================================================

:class:`Tracer` is the no-op protocol base (install it to exercise the
traced code path without recording anything); :class:`EngineTracer`
records events into a bounded in-memory ring buffer exportable as JSON.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..datalog.terms import term_variables

__all__ = ["TraceEvent", "Tracer", "EngineTracer", "stage_profile"]


@dataclass
class TraceEvent:
    """One recorded event: a monotone sequence number, a kind tag and a
    JSON-serializable payload."""

    seq: int
    kind: str
    data: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "kind": self.kind, **self.data}


def _finite(ratio: float) -> Optional[float]:
    """Ratios as JSON-safe numbers: infinity becomes ``None`` (strict
    JSON has no Infinity literal)."""
    if ratio != ratio or ratio in (float("inf"), float("-inf")):
        return None
    return ratio


def stage_profile(
    ordered_body, initially_bound: Iterable[str] = ()
) -> List[Dict[str, object]]:
    """The static shape of an ordered body evaluation: for each stage,
    the literal, its predicate, and the argument positions that are
    fully bound when the stage is probed (determined by the seed
    bindings plus the variables of all earlier stages — the streaming
    pipeline binds left to right, so this is fixed per evaluation).

    The bound positions are what make observed ratios comparable with
    :meth:`~repro.analysis.cost.CostModel.literal_expansion` predictions:
    an expansion ratio is only meaningful relative to an adornment.
    """
    bound = set(initially_bound)
    profile: List[Dict[str, object]] = []
    for _, literal in ordered_body:
        positions = [
            i
            for i, arg in enumerate(literal.args)
            if all(v.name in bound for v in term_variables(arg))
        ]
        profile.append(
            {
                "literal": str(literal),
                "predicate": f"{literal.name}/{literal.arity}",
                "bound": positions,
                "negated": literal.negated,
            }
        )
        for var in literal.variables():
            bound.add(var.name)
    return profile


class Tracer:
    """The tracer protocol — every hook is a no-op.

    Subclass and override what you need.  The disabled context holds
    an instance of this base class, so evaluators call the hooks
    without a guard; installed explicitly, it is the "enabled but
    recording nothing" tracer for overhead tests.
    """

    def round_start(self, round_no: int, stratum: Sequence[str] = ()) -> None:
        pass

    def round_end(self, round_no: int, delta_sizes: Dict[str, int]) -> None:
        pass

    def body_evaluated(
        self,
        kind: str,
        ordered_body,
        stage_counts: Optional[List[int]],
        *,
        seeds: int = 1,
        initially_bound: Iterable[str] = (),
        rule=None,
        slot: Optional[int] = None,
        derived: int = 0,
        duplicates: int = 0,
        **extra: object,
    ) -> None:
        """One (aggregated) evaluation of an ordered body.

        ``stage_counts[k]`` is the number of substitutions stage *k*
        produced; ``seeds`` is the number of substitutions fed into
        stage 0, so stage *k*'s input count is ``stage_counts[k-1]``
        (``seeds`` for ``k == 0``) and its observed expansion ratio is
        output/input.
        """
        pass

    def split_decision(self, decision) -> None:
        pass

    def strategy_chosen(
        self,
        query: str,
        strategy: str,
        recursion_class: str,
        notes: Sequence[str] = (),
    ) -> None:
        pass

    def cache_event(self, cache: str, hit: bool) -> None:
        pass

    def phase(self, name: str, **data: object) -> None:
        pass


class EngineTracer(Tracer):
    """Record events into a bounded ring buffer.

    ``capacity`` bounds memory: once full, the oldest events are
    dropped (counted in :attr:`dropped`).  Recording is locked so a
    tracer may be shared across server threads, though the usual
    pattern is one tracer per traced query.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self._round = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, kind: str, data: Dict[str, object]) -> TraceEvent:
        with self._lock:
            self._seq += 1
            if len(self._events) == self.capacity:
                self.dropped += 1
            event = TraceEvent(self._seq, kind, data)
            self._events.append(event)
            return event

    def round_start(self, round_no: int, stratum: Sequence[str] = ()) -> None:
        self._round = round_no
        self._record("round_start", {"round": round_no, "stratum": list(stratum)})

    def round_end(self, round_no: int, delta_sizes: Dict[str, int]) -> None:
        self._record("round_end", {"round": round_no, "delta": dict(delta_sizes)})

    def body_evaluated(
        self,
        kind: str,
        ordered_body,
        stage_counts: Optional[List[int]],
        *,
        seeds: int = 1,
        initially_bound: Iterable[str] = (),
        rule=None,
        slot: Optional[int] = None,
        derived: int = 0,
        duplicates: int = 0,
        **extra: object,
    ) -> None:
        profile = stage_profile(ordered_body, initially_bound)
        counts = stage_counts if stage_counts is not None else [0] * len(profile)
        stages = [
            {**stage, "out": count} for stage, count in zip(profile, counts)
        ]
        data: Dict[str, object] = {
            "round": self._round,
            "rule": str(rule) if rule is not None else None,
            "slot": slot,
            "seeds": seeds,
            "derived": derived,
            "duplicates": duplicates,
            "stages": stages,
        }
        data.update(extra)
        self._record(kind, data)

    def split_decision(self, decision) -> None:
        self._record(
            "split_decision",
            {
                "criterion": decision.criterion,
                "evaluable": [str(l) for l in decision.split.evaluable],
                "delayed": [str(l) for l in decision.split.delayed],
                "buffered_vars": list(decision.split.buffered_vars),
                "decisions": [
                    {
                        "literal": str(d.literal),
                        "predicate": f"{d.literal.name}/{d.literal.arity}",
                        "bound": list(d.bound_positions),
                        "ratio": _finite(d.ratio),
                        "propagate": d.propagate,
                        "reason": d.reason,
                    }
                    for d in decision.linkage_decisions
                ],
            },
        )

    def strategy_chosen(
        self,
        query: str,
        strategy: str,
        recursion_class: str,
        notes: Sequence[str] = (),
    ) -> None:
        self._record(
            "strategy",
            {
                "query": query,
                "strategy": strategy,
                "recursion_class": recursion_class,
                "notes": list(notes),
            },
        )

    def cache_event(self, cache: str, hit: bool) -> None:
        self._record("cache", {"cache": cache, "hit": hit})

    def phase(self, name: str, **data: object) -> None:
        self._record("phase", {"name": name, **data})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def to_json(self) -> Dict[str, object]:
        """The whole ring as a JSON-serializable dict."""
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": [e.as_dict() for e in self.events()],
        }
