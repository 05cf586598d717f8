"""Chain compilation: from normalized linear recursions to chain
generating paths.

A compiled n-chain recursion (paper eq. 1.4) is a normalized linear
recursive rule

    p(X...) :- c1(...), ..., cn(...), p(Y...).

whose non-recursive body literals partition into *chain generating
paths*: maximal groups of literals connected through shared variables.
Each path links a subset of the head variables to a subset of the
recursive-call variables; one iteration of the recursion applies every
path once.

This module also classifies recursions the way §4 of the paper does:
``linear`` (one recursive literal), ``nested linear`` (linear, but some
other predicate in the body is itself recursive — ``isort``/``insert``)
and ``nonlinear`` (several recursive literals — ``qsort``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.literals import Literal, Predicate
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term, Var
from ..engine.builtins import BuiltinRegistry, default_registry
from .depgraph import DependencyGraph

__all__ = [
    "ChainPath",
    "CompiledRecursion",
    "CompilationError",
    "compile_recursion",
    "classify_recursion",
    "is_bounded_recursion",
    "RecursionClass",
]


class CompilationError(ValueError):
    """The recursion does not have the required (normalized linear)
    shape for chain compilation."""


class RecursionClass:
    """Symbolic recursion classes (paper §1, §4)."""

    NON_RECURSIVE = "non_recursive"
    LINEAR = "linear"
    NESTED_LINEAR = "nested_linear"
    NONLINEAR = "nonlinear"
    MUTUAL = "mutual"


class ChainPath:
    """One chain generating path of a compiled recursion.

    Attributes
    ----------
    literals:
        The path's literals in original body order.
    variables:
        All variable names occurring in the path.
    head_positions / rec_positions:
        Indexes of head-literal / recursive-literal arguments whose
        variable belongs to this path — the path's entry and exit
        interface.
    """

    def __init__(
        self,
        literals: Sequence[Literal],
        head_positions: Sequence[int],
        rec_positions: Sequence[int],
        variables: Set[str],
    ):
        self.literals = list(literals)
        self.head_positions = tuple(head_positions)
        self.rec_positions = tuple(rec_positions)
        self.variables = set(variables)

    def connects(self) -> bool:
        """True when the path links head to recursive call — i.e. it
        *generates* the chain rather than being a floating filter."""
        return bool(self.head_positions) and bool(self.rec_positions)

    def __repr__(self) -> str:
        lits = ", ".join(str(l) for l in self.literals)
        return (
            f"ChainPath([{lits}], head={self.head_positions}, "
            f"rec={self.rec_positions})"
        )


class CompiledRecursion:
    """A compiled (normalized) linear recursion and its chain paths."""

    def __init__(
        self,
        predicate: Predicate,
        recursive_rule: Rule,
        exit_rules: Sequence[Rule],
        rec_index: int,
        chains: Sequence[ChainPath],
    ):
        self.predicate = predicate
        self.recursive_rule = recursive_rule
        self.exit_rules = list(exit_rules)
        self.rec_index = rec_index
        self.chains = list(chains)

    @property
    def recursive_literal(self) -> Literal:
        return self.recursive_rule.body[self.rec_index]

    @property
    def head_args(self) -> Tuple[Term, ...]:
        return self.recursive_rule.head.args

    @property
    def rec_args(self) -> Tuple[Term, ...]:
        return self.recursive_literal.args

    @property
    def chain_count(self) -> int:
        """Number of chain generating paths (the *n* of n-chain)."""
        return sum(1 for chain in self.chains if chain.connects())

    def is_single_chain(self) -> bool:
        return self.chain_count == 1

    def generating_chains(self) -> List[ChainPath]:
        return [chain for chain in self.chains if chain.connects()]

    def __repr__(self) -> str:
        return (
            f"CompiledRecursion({self.predicate}, {self.chain_count} chain(s), "
            f"{len(self.exit_rules)} exit rule(s))"
        )


def _variable_names(literal: Literal) -> Set[str]:
    return {var.name for var in literal.variables()}


def compile_recursion(
    program: Program,
    predicate: Predicate,
    registry: Optional[BuiltinRegistry] = None,
) -> CompiledRecursion:
    """Compile the (already rectified) definition of ``predicate``.

    Requirements: exactly one recursive rule, in which ``predicate``
    occurs exactly once positively; any number of exit rules.  Raises
    :class:`CompilationError` otherwise.
    """
    registry = registry if registry is not None else default_registry()
    rules = program.rules_for(predicate)
    if not rules:
        raise CompilationError(f"no rules define {predicate}")
    recursive_rules = [r for r in rules if r.is_recursive_on(predicate)]
    exit_rules = [r for r in rules if not r.is_recursive_on(predicate)]
    if len(recursive_rules) != 1:
        raise CompilationError(
            f"{predicate} has {len(recursive_rules)} recursive rules; "
            "chain compilation requires exactly one (a linear recursion)"
        )
    rule = recursive_rules[0]
    rec_indexes = [
        i
        for i, lit in enumerate(rule.body)
        if lit.predicate == predicate and not lit.negated
    ]
    if len(rec_indexes) != 1:
        raise CompilationError(
            f"recursive rule of {predicate} is nonlinear "
            f"({len(rec_indexes)} recursive literals)"
        )
    rec_index = rec_indexes[0]

    head_vars = _variable_names(rule.head)
    rec_vars = _variable_names(rule.body[rec_index])
    others = [
        (i, lit) for i, lit in enumerate(rule.body) if i != rec_index
    ]

    # Union-find over body literals by shared variables.
    parent: Dict[int, int] = {i: i for i, _ in others}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    var_home: Dict[str, int] = {}
    for i, lit in others:
        for name in _variable_names(lit):
            if name in var_home:
                union(i, var_home[name])
            else:
                var_home[name] = i

    groups: Dict[int, List[Tuple[int, Literal]]] = {}
    for i, lit in others:
        groups.setdefault(find(i), []).append((i, lit))

    chains: List[ChainPath] = []
    for members in groups.values():
        members.sort(key=lambda pair: pair[0])
        literals = [lit for _, lit in members]
        variables: Set[str] = set()
        for lit in literals:
            variables |= _variable_names(lit)
        head_positions = [
            pos
            for pos, arg in enumerate(rule.head.args)
            if isinstance(arg, Var) and arg.name in variables
        ]
        rec_positions = [
            pos
            for pos, arg in enumerate(rule.body[rec_index].args)
            if isinstance(arg, Var) and arg.name in variables
        ]
        chains.append(ChainPath(literals, head_positions, rec_positions, variables))

    # Stable order: by first literal's position in the body.
    chains.sort(key=lambda c: rule.body.index(c.literals[0]) if c.literals else 0)
    return CompiledRecursion(predicate, rule, exit_rules, rec_index, chains)


def is_bounded_recursion(compiled: CompiledRecursion) -> bool:
    """Detect the paper's *bounded* compilation outcome (a sound
    special case).

    A linear recursion is bounded — equivalent to a nonrecursive rule
    set, with the semi-naive fixpoint converging in a constant number
    of rounds — when its recursive rule passes no information between
    the head and the recursive call: no chain generating path connects
    them and they share no variables.  The recursive literal then only
    contributes the monotone condition "some p-fact with these
    properties exists", which flips at most once.

    (This is a sufficient condition; deciding boundedness in general
    is undecidable.)
    """
    if compiled.chain_count > 0:
        return False
    head_vars = {
        v.name for v in compiled.recursive_rule.head.variables()
    }
    rec_vars = {v.name for v in compiled.recursive_literal.variables()}
    return not (head_vars & rec_vars)


def classify_recursion(
    program: Union[Program, DependencyGraph], predicate: Predicate
) -> str:
    """Classify ``predicate``'s recursion (paper §1/§4 taxonomy).

    ``program`` may be an already-built :class:`DependencyGraph`, which
    is what the planner passes; rectification adds only builtin
    literals, so the class of the original and rectified rules agree.
    """
    graph = (
        program if isinstance(program, DependencyGraph) else DependencyGraph(program)
    )
    rules = graph.rules_for(predicate)
    if not rules:
        raise CompilationError(f"no rules define {predicate}")
    if predicate not in graph.recursive:
        return RecursionClass.NON_RECURSIVE
    # Mutual recursion: the predicate's cycle passes through another
    # predicate.
    if any(predicate in c and len(c) > 1 for c in graph.components):
        return RecursionClass.MUTUAL

    max_self_occurrences = 0
    for rule in rules:
        count = sum(
            1
            for lit in rule.body
            if lit.predicate == predicate and not lit.negated
        )
        max_self_occurrences = max(max_self_occurrences, count)
    if max_self_occurrences > 1:
        return RecursionClass.NONLINEAR

    # Linear; nested-linear when another recursive predicate occurs in
    # some body of this predicate's rules.
    for rule in rules:
        for lit in rule.body:
            if lit.predicate != predicate and lit.predicate in graph.recursive:
                return RecursionClass.NESTED_LINEAR
    return RecursionClass.LINEAR
