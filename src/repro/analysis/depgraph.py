"""The dependency analysis: what each predicate depends on.

One :class:`DependencyGraph` per IDB version owns the strongly connected
components (so recursion), the strata for negation (read off the SCC
condensation), and per predicate its **closure** — every predicate
reachable through rule bodies — with :class:`ClosureInfo` and the
closure's rules, :meth:`DependencyGraph.subprogram`.  Those rules are a
bottom-up *splitting set* (Ben-Eliyahu-Zohary, "How to Split a Logic
Program"): their fixpoint is the whole program's on the closure.

Functional builtins are judged on the **rectified** rules, the program
the planner evaluates: ``append([X|L1], L2, [X|L3])`` calls no builtin
until rectification turns its list terms into ``cons`` literals.  The
rectification is computed on first need, so an evaluator that only asks
for strata never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..datalog.literals import Predicate
from ..datalog.rules import Program, Rule
from ..engine.builtins import BuiltinRegistry, default_registry
from .rectify import rectify_program

__all__ = ["ClosureInfo", "DependencyGraph"]


@dataclass(frozen=True)
class ClosureInfo:
    """What one predicate's rule closure looks like."""

    predicate: Predicate
    #: Every stored/derived predicate in the closure (builtins excluded).
    preds: FrozenSet[Predicate]
    #: The derived (IDB) predicates of the closure.
    idb: FrozenSet[Predicate]
    has_negation: bool
    has_functional: bool

    @property
    def maintainable(self) -> bool:
        """Definite and non-functional: counting/DRed maintenance applies,
        and a plain magic rewrite needs no extra guards."""
        return not self.has_negation and not self.has_functional

    @property
    def materializable(self) -> bool:
        """A finite extension exists (negation OK, functional builtins not)."""
        return not self.has_functional


class DependencyGraph:
    """Dependency analysis over a :class:`Program`, memoized per predicate.

    Built once per IDB version — rule mutations invalidate every cached
    closure, so consumers rebuild the graph instead of patching it.
    """

    def __init__(self, program: Program, registry: Optional[BuiltinRegistry] = None):
        self.program = Program(program)
        self.registry = registry if registry is not None else default_registry()
        #: Head predicates (the IDB).  ``strata()`` fills its sets in this
        #: set's order, and EXPLAIN's per-round tables follow that order.
        self._idb: Set[Predicate] = {rule.head.predicate for rule in self.program}
        #: head -> {body predicate: used negatively somewhere}, both in
        #: first-occurrence order (so the SCC order is deterministic).
        self.edges: Dict[Predicate, Dict[Predicate, bool]] = {}
        self._rules: Dict[Predicate, List[Rule]] = {}
        for rule in self.program:
            self._rules.setdefault(rule.head.predicate, []).append(rule)
            deps = self.edges.setdefault(rule.head.predicate, {})
            for literal in rule.body:
                if literal.negated:
                    deps[literal.predicate] = True
                else:
                    deps.setdefault(literal.predicate, False)
        # The SCC and strata passes run on the IDB numbered in first-
        # occurrence order: integer keys hash for free.
        number = self._number = {p: i for i, p in enumerate(self.edges)}
        self._succ: List[List[Tuple[int, bool]]] = [
            [(number[d], negated) for d, negated in deps.items() if d in number]
            for deps in self.edges.values()
        ]
        self._sccs, self._scc_of = self._tarjan()
        self._closures: Dict[Predicate, FrozenSet[Predicate]] = {}
        self._info: Dict[Predicate, ClosureInfo] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_idb(self, predicate: Predicate) -> bool:
        return predicate in self._idb

    def rules_for(self, predicate: Predicate) -> List[Rule]:
        return self._rules.get(predicate, [])

    @cached_property
    def components(self) -> List[FrozenSet[Predicate]]:
        """The IDB's strongly connected components, dependencies first."""
        nodes = list(self.edges)
        return [frozenset(nodes[i] for i in members) for members in self._sccs]

    @cached_property
    def recursive(self) -> FrozenSet[Predicate]:
        """Predicates on a dependency cycle, self-loops included."""
        return frozenset(
            p for c in self.components for p in c if len(c) > 1 or p in self.edges[p]
        )

    def _tarjan(self) -> Tuple[List[List[int]], List[int]]:
        """Tarjan's algorithm over the numbered IDB, iterative to respect
        recursion limits: the components, each emitted after every
        component it depends on, and each node's component."""
        count = len(self._succ)
        scc_of = [0] * count
        index = [-1] * count
        lowlink = [0] * count
        on_stack = [False] * count
        stack: List[int] = []
        components: List[List[int]] = []
        visited = 0
        for root in range(count):
            if index[root] >= 0:
                continue
            index[root] = lowlink[root] = visited
            visited += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(self._succ[root]))]
            while work:
                node, successors = work[-1]
                for succ, _ in successors:
                    if index[succ] < 0:
                        index[succ] = lowlink[succ] = visited
                        visited += 1
                        stack.append(succ)
                        on_stack[succ] = True
                        work.append((succ, iter(self._succ[succ])))
                        break
                    if on_stack[succ]:
                        lowlink[node] = min(lowlink[node], index[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
                    if lowlink[node] == index[node]:
                        members = []
                        while True:
                            member = stack.pop()
                            on_stack[member] = False
                            scc_of[member] = len(components)
                            members.append(member)
                            if member == node:
                                break
                        components.append(members)
        return components, scc_of

    def strata(self) -> List[Set[Predicate]]:
        """Stratify the program for negation.

        Returns predicate strata bottom-up: each SCC sits one stratum
        above the highest SCC it depends on negatively, and no lower
        than any it depends on positively — the least such assignment.
        Raises :class:`ValueError` when a predicate depends negatively
        on its own SCC (the program is not stratifiable).
        """
        level: List[int] = []
        for position, members in enumerate(self._sccs):
            needed = 0
            for i in members:
                for j, negated in self._succ[i]:
                    other = self._scc_of[j]
                    if other == position:
                        if negated:
                            raise ValueError("program is not stratifiable")
                        continue
                    needed = max(needed, level[other] + negated)
            level.append(needed)
        levels: Dict[int, Set[Predicate]] = {}
        for predicate in self._idb:
            stratum = level[self._scc_of[self._number[predicate]]]
            levels.setdefault(stratum, set()).add(predicate)
        return [levels[i] for i in sorted(levels)]

    # ------------------------------------------------------------------
    # Closures
    # ------------------------------------------------------------------
    def closure(self, predicate: Predicate) -> FrozenSet[Predicate]:
        """Every stored/derived predicate ``predicate`` depends on,
        itself included — the invalidation footprint of a cached answer."""
        cached = self._closures.get(predicate)
        if cached is not None:
            return cached
        preds = {predicate}
        stack = [predicate]
        while stack:
            for dep in self.edges.get(stack.pop(), ()):
                if dep in preds or self.registry.get(dep) is not None:
                    continue
                preds.add(dep)
                if dep in self._idb:
                    stack.append(dep)
        closure = frozenset(preds)
        self._closures[predicate] = closure
        return closure

    def subprogram(self, predicate: Predicate) -> Program:
        """The rules defining ``predicate``'s closure, in program order.

        Its fixpoint equals the whole program's on every predicate of
        the closure; for a stored relation it is empty.
        """
        idb = self.closure(predicate) & self._idb
        return Program(rule for rule in self.program if rule.head.predicate in idb)

    @cached_property
    def rectified(self) -> Program:
        """The program with function symbols eliminated (rule-aligned)."""
        return rectify_program(self.program)

    def info(self, predicate: Predicate) -> ClosureInfo:
        """``predicate``'s closure, classified on the rectified rules."""
        cached = self._info.get(predicate)
        if cached is not None:
            return cached
        preds = self.closure(predicate)
        idb = preds & self._idb
        has_negation = has_functional = False
        for rule in self.rectified:
            if rule.head.predicate not in idb:
                continue
            for literal in rule.body:
                has_negation = has_negation or literal.negated
                if (
                    self.registry.get(literal.predicate) is not None
                    and not literal.is_comparison()
                    and literal.name != "="
                ):
                    # cons / sum / is / ...: the extension is unbounded.
                    has_functional = True
        info = ClosureInfo(predicate, preds, idb, has_negation, has_functional)
        self._info[predicate] = info
        return info
