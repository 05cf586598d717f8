"""The unified chain-split decision (paper §2).

Two independent criteria force or suggest splitting a chain generating
path, and this module merges them into one decision the planner and
the evaluators consume:

1. **Finiteness** (§2.2, mandatory): if the path is not immediately
   evaluable under the query bindings — some functional predicate
   occurrence has infinitely many solutions — it *must* be split, with
   the non-evaluable literals delayed until the recursive call returns.
2. **Efficiency** (§2.1, cost-based): even a finitely evaluable path
   may contain a weak linkage (join expansion ratio above threshold);
   Algorithm 3.1's modified propagation rule then splits for
   performance.

"Obviously, no chain-split should be performed if the chain is a
down-chain": splitting only applies to the chain(s) actually being
descended with the query bindings, which is what the ``entry_bound``
derivation below encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.literals import Literal
from ..datalog.terms import Var, is_ground
from ..engine.builtins import BuiltinRegistry, default_registry
from ..engine.context import DISABLED, EvalContext
from ..engine.database import Database
from ..analysis.chains import ChainPath, CompiledRecursion
from ..analysis.cost import CostModel, LinkageDecision
from ..analysis.finiteness import (
    NotFinitelyEvaluableError,
    PathSplit,
    is_immediately_evaluable,
    split_path,
)

__all__ = ["ChainSplitDecision", "decide_split"]


@dataclass
class ChainSplitDecision:
    """Outcome of the split analysis for one chain generating path.

    ``criterion`` is ``"none"`` (follow the whole chain),
    ``"finiteness"`` (split is mandatory for safe evaluation) or
    ``"efficiency"`` (split is chosen on cost grounds).
    """

    chain: ChainPath
    split: PathSplit
    criterion: str
    linkage_decisions: List[LinkageDecision] = field(default_factory=list)

    @property
    def is_split(self) -> bool:
        return self.split.needs_split

    def explain(self) -> str:
        lines = [f"criterion: {self.criterion}"]
        lines.append(
            "evaluable portion: "
            + (", ".join(str(l) for l in self.split.evaluable) or "(empty)")
        )
        lines.append(
            "delayed portion:   "
            + (", ".join(str(l) for l in self.split.delayed) or "(none)")
        )
        if self.split.buffered_vars:
            lines.append("buffered variables: " + ", ".join(self.split.buffered_vars))
        for decision in self.linkage_decisions:
            lines.append(f"  {decision}")
        return "\n".join(lines)


def entry_bound_names(compiled: CompiledRecursion, query: Literal) -> Set[str]:
    """Head-variable names bound by the query's ground arguments."""
    names: Set[str] = set()
    for arg, head_arg in zip(query.args, compiled.head_args):
        if is_ground(arg) and isinstance(head_arg, Var):
            names.add(head_arg.name)
    return names


def decide_split(
    database: Database,
    compiled: CompiledRecursion,
    query: Literal,
    chain: Optional[ChainPath] = None,
    cost_model: Optional[CostModel] = None,
    registry: Optional[BuiltinRegistry] = None,
    ctx: EvalContext = DISABLED,
) -> ChainSplitDecision:
    """Decide whether (and how) to split one chain of ``compiled`` for
    ``query``; defaults to the recursion's single generating chain.

    ``ctx``'s tracer receives the decision as a ``split_decision``
    event."""
    registry = registry if registry is not None else default_registry()
    if chain is None:
        chains = compiled.generating_chains()
        if len(chains) != 1:
            raise ValueError(
                "decide_split needs an explicit chain for multi-chain "
                f"recursions ({len(chains)} chains found)"
            )
        chain = chains[0]
    entry = entry_bound_names(compiled, query)

    # 1. Finiteness criterion — mandatory.
    if not is_immediately_evaluable(chain, entry, registry, database):
        split = split_path(
            chain, entry, compiled.recursive_literal, registry, database
        )
        decision = ChainSplitDecision(chain, split, "finiteness")
        ctx.tracer.split_decision(decision)
        return decision

    # 2. Efficiency criterion — cost-based (Algorithm 3.1).
    if cost_model is None:
        cost_model = CostModel(database, registry)
    split, decisions = cost_model.efficiency_split(chain, entry)
    criterion = "efficiency" if split.needs_split else "none"
    decision = ChainSplitDecision(chain, split, criterion, decisions)
    ctx.tracer.split_decision(decision)
    return decision
