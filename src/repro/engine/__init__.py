"""Storage and evaluation engine: relations, database, builtins,
bottom-up (naive/semi-naive) and top-down (SLD) evaluators, statistics.
"""

from .builtins import (
    Builtin,
    BuiltinError,
    BuiltinRegistry,
    default_registry,
    evaluate_arithmetic,
    is_builtin_name,
)
from .context import EvalContext
from .counters import Counters
from .database import Database, FinitenessConstraint
from .io import load_facts_csv, load_program_file, save_facts_csv
from .joins import UnsafeRuleError, evaluate_body, literal_solutions, order_body
from .proofs import ProofNode, ProofTracer
from .relation import Relation, Row, wrap_term
from .seminaive import EvaluationResult, NaiveEvaluator, SemiNaiveEvaluator
from .statistics import CatalogStatistics, RelationStatistics
from .tabling import TabledEvaluator
from .topdown import BudgetExceeded, NotFinitelyEvaluable, TopDownEvaluator

__all__ = [
    "BudgetExceeded",
    "Builtin",
    "BuiltinError",
    "BuiltinRegistry",
    "CatalogStatistics",
    "Counters",
    "Database",
    "EvalContext",
    "EvaluationResult",
    "FinitenessConstraint",
    "NaiveEvaluator",
    "NotFinitelyEvaluable",
    "ProofNode",
    "ProofTracer",
    "Relation",
    "RelationStatistics",
    "Row",
    "SemiNaiveEvaluator",
    "TabledEvaluator",
    "TopDownEvaluator",
    "UnsafeRuleError",
    "default_registry",
    "evaluate_arithmetic",
    "evaluate_body",
    "is_builtin_name",
    "literal_solutions",
    "load_facts_csv",
    "load_program_file",
    "order_body",
    "save_facts_csv",
    "wrap_term",
]
