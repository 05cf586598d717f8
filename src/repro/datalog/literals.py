"""Literals: predicate applications occurring in rule heads and bodies.

A literal is ``p(t1, ..., tn)``, possibly negated (``\\+ p(...)``).
Comparison and arithmetic goals (``X > Y``, ``Z is X + 1``) are plain
literals over reserved predicate names; the engine's builtin registry
(:mod:`repro.engine.builtins`) decides how they are evaluated.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .terms import Term, Var, term_variables
from .unify import Substitution, apply_substitution

__all__ = ["Literal", "Predicate", "COMPARISON_PREDICATES", "ARITHMETIC_PREDICATES"]

#: Reserved comparison predicate names (all binary).
COMPARISON_PREDICATES = frozenset({"<", ">", "=<", ">=", "==", "\\==", "="})

#: Reserved arithmetic predicate names.
ARITHMETIC_PREDICATES = frozenset({"is", "sum", "plus", "minus", "times"})


class Predicate:
    """A predicate symbol: name plus arity.

    Hashable and comparable so predicates key dictionaries in the
    catalog, the dependency graph and the adornment machinery.
    """

    __slots__ = ("name", "arity", "_hash")

    def __init__(self, name: str, arity: int):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        self._hash = hash((name, arity))

    def __repr__(self) -> str:
        return f"Predicate({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and self.name == other.name
            and self.arity == other.arity
        )

    def __hash__(self) -> int:
        return self._hash


class Literal:
    """A (possibly negated) predicate application."""

    __slots__ = ("predicate", "args", "negated")

    def __init__(self, name: str, args: Sequence[Term] = (), negated: bool = False):
        self.predicate = Predicate(name, len(args))
        self.args = tuple(args)
        self.negated = negated
        for arg in self.args:
            if not isinstance(arg, Term):
                raise TypeError(f"literal argument {arg!r} is not a Term")

    @property
    def name(self) -> str:
        return self.predicate.name

    @property
    def arity(self) -> int:
        return self.predicate.arity

    def is_comparison(self) -> bool:
        return self.name in COMPARISON_PREDICATES

    def is_arithmetic(self) -> bool:
        return self.name in ARITHMETIC_PREDICATES

    def variables(self) -> List[Var]:
        """Variables in argument order, first occurrence first."""
        seen = set()
        ordered: List[Var] = []
        for arg in self.args:
            for var in term_variables(arg):
                if var.name not in seen:
                    seen.add(var.name)
                    ordered.append(var)
        return ordered

    def substitute(self, subst: Substitution) -> "Literal":
        """Return this literal with ``subst`` applied to every argument."""
        return Literal(
            self.name,
            tuple(apply_substitution(arg, subst) for arg in self.args),
            negated=self.negated,
        )

    def positive(self) -> "Literal":
        """The positive counterpart of a negated literal (self if positive)."""
        if not self.negated:
            return self
        return Literal(self.name, self.args, negated=False)

    def with_args(self, args: Sequence[Term]) -> "Literal":
        """A copy of this literal with its arguments replaced."""
        return Literal(self.name, args, negated=self.negated)

    def __repr__(self) -> str:
        return f"Literal({self.name!r}, {list(self.args)!r}, negated={self.negated})"

    def __str__(self) -> str:
        if self.is_comparison() and self.arity == 2:
            body = f"{self.args[0]} {self.name} {self.args[1]}"
        elif self.name == "is" and self.arity == 2:
            body = f"{self.args[0]} is {self.args[1]}"
        elif self.args:
            body = f"{self.name}({', '.join(str(a) for a in self.args)})"
        else:
            body = self.name
        return f"\\+ {body}" if self.negated else body

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.predicate == other.predicate
            and self.args == other.args
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash((self.predicate, self.args, self.negated))
