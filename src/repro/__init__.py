"""repro — Chain-Split Evaluation in Deductive Databases.

A from-scratch reproduction of Jiawei Han's ICDE 1992 paper: a
deductive-database engine (Datalog with function symbols), chain-form
compilation and adornment analyses, and the three chain-split
evaluation techniques — chain-split magic sets (Algorithm 3.1),
buffered chain-split evaluation (Algorithm 3.2) and chain-split
partial evaluation with constraint pushing (Algorithm 3.3).

Quickstart::

    from repro import Database, Planner

    db = Database()
    db.load_source('''
        sg(X, Y) :- sibling(X, Y).
        sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
    ''')
    db.add_fact("parent", ("ann", "bea"))
    ...
    planner = Planner(db)
    print(planner.plan("sg(ann, Y)").explain())
    for row in planner.answer_rows("sg(ann, Y)"):
        print(row)
"""

from .datalog import (
    Literal,
    Predicate,
    Program,
    Rule,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
)
from .engine import (
    BuiltinRegistry,
    Counters,
    Database,
    EvalContext,
    ProofTracer,
    Relation,
    SemiNaiveEvaluator,
    TabledEvaluator,
    TopDownEvaluator,
    default_registry,
)
from .analysis import (
    CostModel,
    NotFinitelyEvaluableError,
    classify_recursion,
    compile_recursion,
    normalize,
    rectify_program,
    split_path,
)
from .core import (
    BufferedChainEvaluator,
    CountingEvaluator,
    ExistenceChecker,
    MagicSetsEvaluator,
    PartialChainEvaluator,
    Planner,
    QueryPlan,
    Strategy,
    decide_split,
    transitive_closure,
)
from .core.planner import adornment_key, plan_cache_key
from .resilience import (
    AdmissionController,
    Budget,
    BudgetExceeded,
    ChaosSchedule,
    CircuitBreaker,
)
from .service import (
    AsyncQueryServer,
    QueryResult,
    QuerySession,
    ServiceMetrics,
    WorkerPool,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AsyncQueryServer",
    "Budget",
    "BudgetExceeded",
    "BufferedChainEvaluator",
    "BuiltinRegistry",
    "ChaosSchedule",
    "CircuitBreaker",
    "CostModel",
    "Counters",
    "CountingEvaluator",
    "Database",
    "EvalContext",
    "ExistenceChecker",
    "Literal",
    "MagicSetsEvaluator",
    "NotFinitelyEvaluableError",
    "PartialChainEvaluator",
    "Planner",
    "Predicate",
    "ProofTracer",
    "Program",
    "QueryPlan",
    "QueryResult",
    "QuerySession",
    "Relation",
    "Rule",
    "SemiNaiveEvaluator",
    "ServiceMetrics",
    "WorkerPool",
    "TabledEvaluator",
    "Strategy",
    "TopDownEvaluator",
    "adornment_key",
    "classify_recursion",
    "compile_recursion",
    "decide_split",
    "default_registry",
    "normalize",
    "parse_program",
    "parse_query",
    "parse_rule",
    "parse_term",
    "plan_cache_key",
    "rectify_program",
    "split_path",
    "transitive_closure",
]
