"""The compiled join against a reference join, on random bodies.

:func:`repro.testing.assert_join_matches` runs a body compiled once by
:func:`~repro.engine.joins.compile_body` and the per-row
``unify_sequences`` join below over the same order, and compares their
solutions, work counters and per-stage counts.  The bodies mix repeated
variables (``e(X, X)``), constants, list (``cons``) arguments, negated
and builtin stages; the seeds bind variables to constants, to other
variables and to non-ground lists; some predicates are read through a
generation window of their relation, as semi-naive rounds read them.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, example, given, settings

from repro.datalog.literals import Literal, Predicate
from repro.datalog.terms import NIL, Const, Var, cons, is_ground, make_list
from repro.datalog.unify import apply_substitution, unify_sequences
from repro.engine.builtins import default_registry
from repro.engine.counters import Counters
from repro.engine.database import Database
from repro.engine.joins import UnsafeRuleError, compile_body
from repro.testing import assert_join_matches

ATOMS = [Const(name) for name in ("a", "b", "c")]
LISTS = [NIL, make_list([ATOMS[0]]), make_list(ATOMS[:2]), make_list([ATOMS[1]])]
NAMES = ["X", "Y", "Z", "H", "T"]
REGISTRY = default_registry()


def reference_join(order, lookup, registry, seed):
    """Stage by stage over materialized lists: every stored row is
    unified with the literal under every substitution, no index."""
    counters = Counters()
    stage_counts = [0] * len(order)
    current = [seed]
    for stage, (index, literal) in enumerate(order):
        if current:
            # evaluate_body's stack is stage + 1 deep while this stage
            # has input.
            counters.peak_intermediate = stage + 1
        produced = []
        for subst in current:
            if literal.negated:
                row = tuple(apply_substitution(a, subst) for a in literal.args)
                if not all(is_ground(v) for v in row):
                    raise UnsafeRuleError(f"{literal} not ground")
                counters.join_probes += 1
                relation = lookup(literal.predicate)
                if relation is None or row not in relation:
                    produced.append(subst)
            elif registry.is_builtin(literal):
                counters.builtin_evals += 1
                produced.extend(registry.solve(literal, subst))
            else:
                relation = lookup(literal.predicate)
                if relation is None:
                    continue
                counters.join_probes += 1
                for row in relation:
                    result = unify_sequences(literal.args, row, subst)
                    if result is not None:
                        produced.append(result)
        stage_counts[stage] = len(produced)
        counters.intermediate_tuples += len(produced)
        current = produced
    return current, counters, stage_counts


variables = st.sampled_from(NAMES).map(Var)
atom_terms = st.one_of(variables, st.sampled_from(ATOMS))
list_terms = st.one_of(
    variables,
    st.sampled_from(LISTS),
    st.builds(cons, atom_terms, variables),  # [H | T]: a compound argument
)

positive = st.one_of(
    st.builds(lambda a, b: Literal("e", (a, b)), atom_terms, atom_terms),
    st.builds(lambda a: Literal("e", (a, a)), variables),  # e(X, X)
    st.builds(
        lambda a, b, c: Literal("g", (a, b, c)), atom_terms, atom_terms, atom_terms
    ),
    st.builds(lambda a, b: Literal("l", (a, b)), atom_terms, list_terms),
)
negated = st.builds(
    lambda a, b: Literal("e", (a, b), negated=True), variables, atom_terms
)
builtin = st.one_of(
    st.builds(lambda a, b: Literal("\\==", (a, b)), variables, atom_terms),
    st.builds(lambda a, b: Literal("==", (a, b)), variables, variables),
    # L distinct from H and T: cons(X, Z, X) only has a cyclic solution.
    st.builds(
        lambda h, t, l: Literal("cons", (h, t, l)), atom_terms, variables, variables
    ).filter(lambda literal: literal.args[2] not in literal.args[:2]),
)
bodies = st.lists(
    st.one_of(positive, positive, negated, builtin), min_size=1, max_size=4
)

seed_values = st.one_of(
    st.sampled_from(ATOMS),
    st.sampled_from(LISTS),
    st.just(Var("Q")),  # bound to another variable
    st.just(cons(Var("Q"), NIL)),  # bound to a non-ground list
)
seeds = st.dictionaries(st.sampled_from(NAMES), seed_values, max_size=3)

facts = st.fixed_dictionaries({
    "e": st.lists(st.tuples(*[st.sampled_from(ATOMS)] * 2), max_size=8),
    "g": st.lists(st.tuples(*[st.sampled_from(ATOMS)] * 3), max_size=8),
    "l": st.lists(
        st.tuples(st.sampled_from(ATOMS), st.sampled_from(LISTS)), max_size=6
    ),
})


def database(rows):
    db = Database()
    for name, tuples in rows.items():
        relation = db.relation(name, 3 if name == "g" else 2)
        for row in tuples:
            relation.add(row)
    return db


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    body=bodies,
    seed=seeds,
    rows=facts,
    bound=st.sampled_from(["none", "ground", "all"]),
    windows=st.dictionaries(
        st.sampled_from(["e", "g", "l"]), st.tuples(st.integers(0, 8), st.integers(0, 8)),
        max_size=2,
    ),
)
@example(  # a seed binding that the compiled stage expected free
    body=[Literal("e", (Var("X"), Var("Y")))],
    seed={"X": ATOMS[0]},
    rows={"e": [(ATOMS[0], ATOMS[1]), (ATOMS[1], ATOMS[2])], "g": [], "l": []},
    bound="none",
    windows={},
)
@example(  # a repeated variable against rows that disagree
    body=[Literal("e", (Var("X"), Var("X")))],
    seed={},
    rows={"e": [(ATOMS[0], ATOMS[0]), (ATOMS[0], ATOMS[1])], "g": [], "l": []},
    bound="none",
    windows={},
)
def test_compiled_join_matches_reference(body, seed, rows, bound, windows):
    initially_bound = {
        "none": set(),
        "ground": {name for name, value in seed.items() if is_ground(value)},
        "all": set(seed),
    }[bound]
    try:
        compile_body(body, REGISTRY, initially_bound)
    except UnsafeRuleError:
        assume(False)
    db = database(rows)
    read = dict(db.relations)
    for name, (lo, hi) in windows.items():
        predicate = Predicate(name, 3 if name == "g" else 2)
        hi = min(hi, read[predicate].mark())
        read[predicate] = read[predicate].window(min(lo, hi), hi)

    assert_join_matches(
        body, read.get, REGISTRY, seed, reference_join,
        initially_bound=initially_bound,
    )


def test_seed_bound_to_a_variable_and_a_non_ground_list():
    """The two seed shapes the unifier fallback exists for, pinned."""
    db = database({"e": [(ATOMS[0], ATOMS[1])], "g": [], "l": [(ATOMS[0], LISTS[1])]})
    body = [Literal("e", (Var("X"), Var("Y"))), Literal("l", (Var("X"), Var("T")))]
    to_var = assert_join_matches(
        body, db.get, REGISTRY, {"Y": Var("Q")}, reference_join,
        initially_bound={"Y"},
    )
    assert [apply_substitution(Var("Q"), s) for s in to_var] == [ATOMS[1]]
    to_list = assert_join_matches(
        body, db.get, REGISTRY, {"T": cons(Var("Q"), NIL)}, reference_join,
        initially_bound={"T"},
    )
    assert [apply_substitution(Var("Q"), s) for s in to_list] == [ATOMS[0]]
