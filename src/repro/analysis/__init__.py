"""Query analysis: the dependency graph, rectification, chain
compilation, adornment, finiteness analysis and the chain-split cost
model."""

from .adornment import (
    AdornedLiteral,
    AdornedProgram,
    AdornedRule,
    adorn_program,
    adorned_name,
    adornment_for_query,
)
from .chains import (
    ChainPath,
    CompilationError,
    CompiledRecursion,
    RecursionClass,
    classify_recursion,
    compile_recursion,
    is_bounded_recursion,
)
from .cost import CostModel, LinkageDecision
from .depgraph import ClosureInfo, DependencyGraph
from .graphviz import chain_to_dot, program_to_dot, proof_to_dot
from .finiteness import (
    NotFinitelyEvaluableError,
    PathSplit,
    adornment_of,
    bound_positions,
    is_immediately_evaluable,
    split_path,
)
from .normalize import NormalizedProgram, normalize
from .rectify import FUNCTOR_PREDICATES, is_rectified, rectify_program, rectify_rule

__all__ = [
    "AdornedLiteral",
    "AdornedProgram",
    "AdornedRule",
    "ChainPath",
    "ClosureInfo",
    "CompilationError",
    "CompiledRecursion",
    "CostModel",
    "DependencyGraph",
    "chain_to_dot",
    "FUNCTOR_PREDICATES",
    "LinkageDecision",
    "NormalizedProgram",
    "NotFinitelyEvaluableError",
    "PathSplit",
    "RecursionClass",
    "adorn_program",
    "adorned_name",
    "adornment_for_query",
    "adornment_of",
    "bound_positions",
    "classify_recursion",
    "is_bounded_recursion",
    "compile_recursion",
    "is_immediately_evaluable",
    "is_rectified",
    "normalize",
    "program_to_dot",
    "proof_to_dot",
    "rectify_program",
    "rectify_rule",
    "split_path",
]
