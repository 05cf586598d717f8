"""Term representation for the deductive-database language.

The paper works with Datalog extended with function symbols (functional
recursions such as ``append``, ``isort`` and ``qsort`` manipulate list
terms built with ``cons``).  We therefore need a full first-order term
language:

* :class:`Var` — logical variables (``X``, ``Ys``) identified by name.
* :class:`Const` — constants: atoms (``tom``), integers, floats and
  strings.  Constants compare by their payload.
* :class:`Struct` — compound terms ``f(t1, ..., tn)``.  Lists are
  compound terms over the functor ``'.'`` with ``Const('[]')`` as nil,
  exactly the classic Prolog encoding; helpers below hide that.

All terms are immutable and hashable so they can live in relations
(sets of tuples) and serve as dictionary keys in substitutions and
indexes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Term",
    "Var",
    "Const",
    "Struct",
    "NIL",
    "make_list",
    "list_to_python",
    "is_list_term",
    "iter_list",
    "cons",
    "term_variables",
    "is_ground",
    "call_pattern",
    "term_size",
    "term_depth",
    "fresh_variable_factory",
]


class Term:
    """Abstract base class for all terms.

    Concrete terms are :class:`Var`, :class:`Const` and :class:`Struct`.
    The base class only hosts shared conveniences; it is never
    instantiated directly.
    """

    __slots__ = ()

    def is_var(self) -> bool:
        return isinstance(self, Var)

    def is_const(self) -> bool:
        return isinstance(self, Const)

    def is_struct(self) -> bool:
        return isinstance(self, Struct)

    def variables(self) -> List["Var"]:
        """Return the variables of this term in first-occurrence order."""
        return term_variables(self)


class Var(Term):
    """A logical variable, identified by its name.

    Two ``Var`` objects with the same name denote the same variable
    within one rule; renaming-apart is performed explicitly when rules
    are instantiated (see :mod:`repro.datalog.unify`).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("var", self.name))


#: Python payload types a :class:`Const` may wrap.
ConstValue = Union[str, int, float, bool]


class Const(Term):
    """A constant: an atom, number, boolean or quoted string.

    Atoms and strings are both carried as ``str``; the parser marks
    quoted strings by wrapping them in :class:`Const` with
    ``quoted=True`` so they print back faithfully.
    """

    __slots__ = ("value", "quoted")

    def __init__(self, value: ConstValue, quoted: bool = False):
        self.value = value
        self.quoted = quoted

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __str__(self) -> str:
        if self.quoted:
            return f'"{self.value}"'
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Const)
            and self.value == other.value
            and type(self.value) is type(other.value)
        )

    def __hash__(self) -> int:
        return hash(("const", type(self.value).__name__, self.value))


class Struct(Term):
    """A compound term ``functor(arg1, ..., argn)`` with n >= 1.

    Zero-arity symbols are represented as :class:`Const` atoms, not as
    empty structs, which keeps constants cheap and canonical.
    """

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: Sequence[Term]):
        if not functor:
            raise ValueError("functor must be non-empty")
        if not args:
            raise ValueError("Struct requires at least one argument; use Const for atoms")
        self.functor = functor
        self.args = tuple(args)
        for arg in self.args:
            if not isinstance(arg, Term):
                raise TypeError(f"Struct argument {arg!r} is not a Term")

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"Struct({self.functor!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        if self.functor == "." and self.arity == 2:
            return _format_list(self)
        if self.functor in {"+", "-", "*", "/"} and self.arity == 2:
            # Infix with explicit parentheses so the printed form
            # re-parses to the same structure.
            return f"({self.args[0]} {self.functor} {self.args[1]})"
        args = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({args})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Struct)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash(("struct", self.functor, self.args))


#: The empty list ``[]``.
NIL = Const("[]")


def cons(head: Term, tail: Term) -> Struct:
    """Build the list cell ``[head | tail]`` (the paper's ``cons``)."""
    return Struct(".", (head, tail))


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a list term from ``items``, ending in ``tail``.

    ``make_list([a, b])`` is ``[a, b]``; ``make_list([a], X)`` is
    ``[a | X]``.
    """
    result = tail
    for item in reversed(list(items)):
        result = cons(item, result)
    return result


def is_list_term(term: Term) -> bool:
    """True if ``term`` is a *proper* list (ends in ``[]``)."""
    while isinstance(term, Struct) and term.functor == "." and term.arity == 2:
        term = term.args[1]
    return term == NIL


def iter_list(term: Term) -> Iterator[Term]:
    """Yield the elements of a proper list term.

    Raises :class:`ValueError` when the term is not a proper list
    (e.g. has a variable tail), because silently truncating would mask
    bugs in evaluation.
    """
    while True:
        if term == NIL:
            return
        if isinstance(term, Struct) and term.functor == "." and term.arity == 2:
            yield term.args[0]
            term = term.args[1]
        else:
            raise ValueError(f"not a proper list: {term}")


def list_to_python(term: Term) -> List[Term]:
    """Return the elements of a proper list term as a Python list."""
    return list(iter_list(term))


def _format_list(term: Struct) -> str:
    parts = []
    current: Term = term
    while isinstance(current, Struct) and current.functor == "." and current.arity == 2:
        parts.append(str(current.args[0]))
        current = current.args[1]
    if current == NIL:
        return "[" + ", ".join(parts) + "]"
    return "[" + ", ".join(parts) + " | " + str(current) + "]"


def term_variables(term: Term) -> List[Var]:
    """Variables of ``term`` in first-occurrence (left-to-right) order."""
    seen = {}
    stack = [term]
    ordered: List[Var] = []
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            if current.name not in seen:
                seen[current.name] = current
                ordered.append(current)
        elif isinstance(current, Struct):
            # Push in reverse so that args are visited left-to-right.
            stack.extend(reversed(current.args))
    return ordered


def is_ground(term: Term) -> bool:
    """True when ``term`` contains no variables."""
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            return False
        if isinstance(current, Struct):
            stack.extend(current.args)
    return True


def call_pattern(args: Sequence[Term]) -> Tuple[Tuple[object, ...], List[Term]]:
    """The variant key of a call's arguments: ground subterms stay and
    each distinct variable becomes a placeholder numbered by first
    occurrence, so ``p(a, X, X)`` and ``p(a, Y, Y)`` share a key but
    ``p(a, X, Y)`` does not.  Returns the hashable key and the
    generalized arguments (variables renamed ``_Tab0``, ``_Tab1``, ...)."""
    mapping: Dict[str, int] = {}

    def canon(term: Term) -> Tuple[object, Term]:
        if is_ground(term):
            return term, term
        if isinstance(term, Var):
            index = mapping.setdefault(term.name, len(mapping))
            return ("var", index), Var(f"_Tab{index}")
        parts = [canon(arg) for arg in term.args]
        return (
            (term.functor, tuple(part for part, _ in parts)),
            Struct(term.functor, [arg for _, arg in parts]),
        )

    pairs = [canon(arg) for arg in args]
    return tuple(key for key, _ in pairs), [arg for _, arg in pairs]


def term_size(term: Term) -> int:
    """Number of symbols in ``term`` (constants, variables, functors)."""
    size = 0
    stack = [term]
    while stack:
        current = stack.pop()
        size += 1
        if isinstance(current, Struct):
            stack.extend(current.args)
    return size


def term_depth(term: Term) -> int:
    """Nesting depth of ``term``; constants and variables have depth 1."""
    if isinstance(term, Struct):
        return 1 + max(term_depth(arg) for arg in term.args)
    return 1


def fresh_variable_factory(prefix: str = "_G") -> "itertools.count":
    """Return a callable producing fresh variables ``_G0``, ``_G1``, ...

    Each call site gets its own counter so renamings from unrelated
    contexts can never collide as long as user programs avoid the
    reserved ``_G`` prefix.
    """
    counter = itertools.count()

    def fresh() -> Var:
        return Var(f"{prefix}{next(counter)}")

    return fresh
