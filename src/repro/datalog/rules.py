"""Rules and programs.

A :class:`Rule` is a Horn clause ``head :- b1, ..., bn``; a fact is a
rule with an empty body and a ground head.  A :class:`Program` is an
ordered collection of rules with the catalog information the analyses
need: which predicates are intensional (appear in some head) versus
extensional.  Dependency structure — recursion, strata, closures — is
:class:`repro.analysis.depgraph.DependencyGraph`'s.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from .literals import Literal, Predicate
from .terms import Term, Var, is_ground
from .unify import Substitution, rename_apart

__all__ = ["Rule", "Program"]


class Rule:
    """A Horn clause ``head :- body``.

    Body literal order is meaningful to top-down evaluation and to the
    sideways-information-passing analyses, so rules preserve it.
    """

    __slots__ = ("head", "body")

    def __init__(self, head: Literal, body: Sequence[Literal] = ()):
        if head.negated:
            raise ValueError("rule head may not be negated")
        self.head = head
        self.body = tuple(body)

    def is_fact(self) -> bool:
        return not self.body and all(is_ground(a) for a in self.head.args)

    def is_recursive_on(self, predicate: Predicate) -> bool:
        """True if some positive body literal uses ``predicate``."""
        return any(
            lit.predicate == predicate and not lit.negated for lit in self.body
        )

    def is_linear_on(self, predicate: Predicate) -> bool:
        """True if exactly one positive body literal uses ``predicate``."""
        count = sum(
            1 for lit in self.body if lit.predicate == predicate and not lit.negated
        )
        return count == 1

    def variables(self) -> List[Var]:
        seen: Set[str] = set()
        ordered: List[Var] = []
        for lit in (self.head, *self.body):
            for var in lit.variables():
                if var.name not in seen:
                    seen.add(var.name)
                    ordered.append(var)
        return ordered

    def substitute(self, subst: Substitution) -> "Rule":
        return Rule(self.head.substitute(subst), [b.substitute(subst) for b in self.body])

    def rename_apart(self, fresh=None) -> "Rule":
        """A variant of this rule with all variables renamed fresh."""
        all_terms: List[Term] = list(self.head.args)
        for lit in self.body:
            all_terms.extend(lit.args)
        renamed, renaming = rename_apart(all_terms, fresh)
        index = 0
        head_args = renamed[: self.head.arity]
        index = self.head.arity
        body: List[Literal] = []
        for lit in self.body:
            body.append(lit.with_args(renamed[index : index + lit.arity]))
            index += lit.arity
        return Rule(self.head.with_args(head_args), body)

    def __repr__(self) -> str:
        return f"Rule({self.head!r}, {list(self.body)!r})"

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(b) for b in self.body)}."

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rule) and self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))


class Program:
    """An ordered rule collection with catalog-style derived views."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self.rules: List[Rule] = list(rules)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add(self, rule: Rule) -> None:
        self.rules.append(rule)

    def extend(self, rules: Iterable[Rule]) -> None:
        self.rules.extend(rules)

    @classmethod
    def parse(cls, source: str) -> "Program":
        """Parse a program from Prolog-style source text."""
        from .parser import parse_program

        return parse_program(source)

    # ------------------------------------------------------------------
    # Catalog views
    # ------------------------------------------------------------------
    def head_predicates(self) -> Set[Predicate]:
        """Predicates defined by at least one rule (the IDB)."""
        return {rule.head.predicate for rule in self.rules}

    def body_predicates(self) -> Set[Predicate]:
        return {
            lit.predicate
            for rule in self.rules
            for lit in rule.body
        }

    def idb_predicates(self) -> Set[Predicate]:
        """Predicates defined by a rule with a non-empty body."""
        return {rule.head.predicate for rule in self.rules if rule.body}

    def edb_predicates(self) -> Set[Predicate]:
        """Predicates that occur only in bodies (or as facts)."""
        idb = self.idb_predicates()
        edb = {p for p in self.body_predicates() if p not in idb}
        edb.update(
            rule.head.predicate for rule in self.rules
            if not rule.body and rule.head.predicate not in idb
        )
        return edb

    def rules_for(self, predicate: Predicate) -> List[Rule]:
        return [rule for rule in self.rules if rule.head.predicate == predicate]

    def facts(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.is_fact()]

    def proper_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.body]

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:
        return f"Program({self.rules!r})"
