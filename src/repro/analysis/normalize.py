"""Normalization: rectify a program and compile its recursions.

Convenience layer tying :mod:`repro.analysis.rectify` and
:mod:`repro.analysis.chains` together: ``normalize`` rectifies the
whole program (so every rule is function-free with functional
predicates) and compiles the requested predicate's recursion into its
chain form, which is the input every chain-split evaluator consumes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..datalog.literals import Predicate
from ..datalog.rules import Program
from ..engine.builtins import BuiltinRegistry, default_registry
from .chains import CompiledRecursion, classify_recursion, compile_recursion
from .depgraph import DependencyGraph

__all__ = ["normalize", "NormalizedProgram"]


class NormalizedProgram:
    """A rectified program, its dependency graph, and compiled forms for
    its linear recursions, computed on demand and cached."""

    def __init__(self, program: Program, registry: Optional[BuiltinRegistry] = None):
        self.original = program
        self.registry = registry if registry is not None else default_registry()
        #: The one dependency analysis of these rules; it also owns the
        #: rectification, so both are built once per IDB version.
        self.graph = DependencyGraph(program, self.registry)
        self.program = self.graph.rectified
        self._compiled: Dict[Predicate, CompiledRecursion] = {}
        self._classes: Dict[Predicate, str] = {}

    def classify(self, predicate: Predicate) -> str:
        if predicate not in self._classes:
            self._classes[predicate] = classify_recursion(self.graph, predicate)
        return self._classes[predicate]

    def compiled(self, predicate: Predicate) -> CompiledRecursion:
        """Compiled chain form; valid for linear and nested-linear
        recursions (the outer level of a nested recursion is linear)."""
        if predicate not in self._compiled:
            self._compiled[predicate] = compile_recursion(
                self.program, predicate, self.registry
            )
        return self._compiled[predicate]


def normalize(
    program: Program,
    predicate: Predicate,
    registry: Optional[BuiltinRegistry] = None,
) -> Tuple[Program, CompiledRecursion]:
    """Rectify ``program`` and compile ``predicate``'s recursion.

    Returns the rectified program and the compiled recursion.
    """
    normalized = NormalizedProgram(program, registry)
    return normalized.program, normalized.compiled(predicate)
