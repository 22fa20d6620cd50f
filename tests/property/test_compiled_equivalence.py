"""Compiled kernel ≡ interpreted evaluation, everywhere.

The compiled plans of :mod:`repro.compile.kernel` must be bit-for-bit
equivalent to the interpreted paths they replaced:

* **violations** — per constraint, the compiled enumeration equals the
  index-backed interpreter (``compiled=False``) and the nested-loop
  reference (``naive=True``), as sets *and* in count, on every paper
  scenario and generated workload;
* **seeded / binding-pattern delta plans** — after any mutation the
  seeded enumeration equals the interpreted one, for every fact;
* **query answers** — compiled, interpreted (memoised-schedule) and
  naive paths agree on every query, under both null conventions;
* **end-to-end** — repairs and CQA through ``ConsistentDatabase``
  (whose tracker and engines execute compiled plans) equal the
  ``naive`` repair mode (which never touches the kernel), repair lists
  including order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConsistentDatabase
from repro.constraints.ic import ConstraintSet, NotNullConstraint
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.cqa import consistent_answers
from repro.core.repairs import RepairEngine
from repro.core.satisfaction import (
    all_violations,
    seeded_violations,
    violations,
    violations_under_assignment,
)
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    key_violation_workload,
    scenarios,
)

WORKLOADS = {
    "foreign_key_null_heavy": lambda: foreign_key_workload(
        n_parents=4, n_children=10, violation_ratio=0.5, null_ratio=0.4, seed=5
    ),
    "key_violation_null_heavy": lambda: key_violation_workload(
        n_rows=12, duplicate_ratio=0.4, null_ratio=0.4, seed=7
    ),
    "grouped_key": lambda: grouped_key_workload(
        n_groups=3, group_size=3, n_clean=6, seed=11
    ),
}


def all_cases():
    for name, scenario in sorted(scenarios.all_scenarios().items()):
        yield name, scenario.instance, scenario.constraints
    for name, factory in WORKLOADS.items():
        instance, constraints = factory()
        yield name, instance, constraints


CASES = list(all_cases())
CASE_IDS = [name for name, _, _ in CASES]


def generic_queries(instance):
    queries = []
    for predicate in instance.predicates:
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        queries.append(parse_query(f"ans({variables}) <- {predicate}({variables})"))
        queries.append(parse_query(f"ans(x0) <- {predicate}({variables})"))
    return queries


# --------------------------------------------------------------------------- violations
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_violations_match_both_interpreters(name, instance, constraints):
    for constraint in constraints:
        compiled = violations(instance, constraint)
        interpreted = violations(instance, constraint, compiled=False)
        naive = violations(instance, constraint, naive=True)
        assert set(compiled) == set(interpreted) == set(naive)
        # Same count too: no duplicates appear or disappear.
        assert len(compiled) == len(set(compiled))
        assert len(interpreted) == len(set(interpreted))
    assert set(all_violations(instance, constraints)) == set(
        all_violations(instance, constraints, compiled=False)
    )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_violation_payloads_are_identical(name, instance, constraints):
    """Bindings and body_facts — not just equality as opaque objects."""

    for constraint in constraints:
        by_key = {
            (v.bindings, v.body_facts): v
            for v in violations(instance, constraint, compiled=False)
        }
        for violation in violations(instance, constraint):
            assert (violation.bindings, violation.body_facts) in by_key
            names = [variable.name for variable, _ in violation.bindings]
            assert names == sorted(names)  # reported sorted by variable name
            assert len(violation.body_facts) == (
                1
                if isinstance(constraint, NotNullConstraint)
                else len(constraint.body)
            )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_seeded_delta_plans_match_interpreter(name, instance, constraints):
    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        for fact in instance.facts():
            compiled = set(seeded_violations(instance, constraint, fact))
            interpreted = set(
                seeded_violations(instance, constraint, fact, compiled=False)
            )
            assert compiled == interpreted, (name, constraint, fact)


# --------------------------------------------------------------------------- queries
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_query_answers_match_both_interpreters(name, instance, constraints):
    for query in generic_queries(instance):
        for null_is_unknown in (False, True):
            compiled = query.answers(instance, null_is_unknown=null_is_unknown)
            interpreted = query.answers(
                instance, null_is_unknown=null_is_unknown, compiled=False
            )
            naive = query.answers(
                instance, null_is_unknown=null_is_unknown, naive=True
            )
            assert compiled == interpreted == naive, (name, query, null_is_unknown)


def test_compiled_query_with_negation_and_comparisons():
    instance = DatabaseInstance.from_dict(
        {
            "P": [("a", 1), ("b", 2), ("c", NULL), ("a", 3)],
            "Q": [("a",), ("c",)],
        }
    )
    texts = [
        "ans(x, y) <- P(x, y), not Q(x)",
        "ans(x) <- P(x, y), y > 1",
        "ans(x, y) <- P(x, y), not Q(x), y != 2",
        "ans(x) <- P(x, y), Q(x)",
    ]
    for text in texts:
        query = parse_query(text)
        for null_is_unknown in (False, True):
            assert query.answers(instance, null_is_unknown=null_is_unknown) == (
                query.answers(instance, null_is_unknown=null_is_unknown, naive=True)
            ), (text, null_is_unknown)


# --------------------------------------------------------------------------- hypothesis
CONSTRAINTS = ConstraintSet(
    [
        parse_constraint("P(x, y) -> R(x, z)"),
        parse_constraint("R(x, y), R(x, z) -> y = z"),
        parse_constraint("P(x, x), R(x, y) -> false"),
        parse_constraint("P(x, y), P(y, z) -> R(x, z)"),
    ]
)

VALUES = st.sampled_from(["a", "b", NULL])
FACTS = st.tuples(st.sampled_from(["P", "R"]), VALUES, VALUES).map(
    lambda t: Fact(t[0], (t[1], t[2]))
)

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common_settings
@given(facts=st.lists(FACTS, max_size=8))
def test_random_instances_compiled_equals_interpreted(facts):
    instance = DatabaseInstance.from_facts(facts)
    for constraint in CONSTRAINTS:
        compiled = violations(instance, constraint)
        interpreted = violations(instance, constraint, compiled=False)
        naive = violations(instance, constraint, naive=True)
        assert set(compiled) == set(interpreted) == set(naive)


@common_settings
@given(facts=st.lists(FACTS, max_size=6), seed=FACTS)
def test_random_seeded_enumeration_matches(facts, seed):
    instance = DatabaseInstance.from_facts(facts)
    instance.add(seed)
    for constraint in CONSTRAINTS:
        compiled = set(seeded_violations(instance, constraint, seed))
        interpreted = set(seeded_violations(instance, constraint, seed, compiled=False))
        assert compiled == interpreted


@common_settings
@given(facts=st.lists(FACTS, max_size=6), value=VALUES)
def test_random_partial_assignments_match(facts, value):
    from repro.constraints.terms import Variable

    instance = DatabaseInstance.from_facts(facts)
    for constraint in CONSTRAINTS:
        for variable in sorted(constraint.body_variables(), key=lambda v: v.name):
            partial = {variable: value}
            compiled = set(violations_under_assignment(instance, constraint, partial))
            interpreted = set(
                violations_under_assignment(instance, constraint, partial, compiled=False)
            )
            assert compiled == interpreted
    # A partial mentioning a non-body variable falls back to the
    # interpreter and keeps its extra-binding semantics.
    constraint = CONSTRAINTS[0]
    foreign = {Variable("zz_not_in_body"): value}
    compiled = list(violations_under_assignment(instance, constraint, foreign))
    interpreted = list(
        violations_under_assignment(instance, constraint, foreign, compiled=False)
    )
    assert set(compiled) == set(interpreted)


# --------------------------------------------------------------------------- end to end
@common_settings
@given(facts=st.lists(FACTS, max_size=5))
def test_end_to_end_repairs_and_cqa_match_naive_mode(facts):
    instance = DatabaseInstance.from_facts(facts)
    production = RepairEngine(CONSTRAINTS).repairs(instance)
    reference = RepairEngine(CONSTRAINTS, method="naive").repairs(instance)
    # Bit-for-bit: the same repairs in the same discovery order.
    assert [r.fact_set() for r in production] == [r.fact_set() for r in reference]

    db = ConsistentDatabase(instance, CONSTRAINTS)
    session_repairs = [r.fact_set() for r in db.iter_repairs()]
    assert session_repairs == [r.fact_set() for r in reference]
    query = parse_query("ans(x) <- P(x, y)")
    assert db.consistent_answers(query, method="direct") == consistent_answers(
        instance, CONSTRAINTS, query, repair_mode="naive"
    )


@pytest.mark.parametrize(
    "name",
    [n for n, s in sorted(scenarios.all_scenarios().items()) if s.expected_repairs],
)
def test_scenario_repairs_identical_across_kernel_and_naive(name):
    scenario = scenarios.all_scenarios()[name]
    reference = RepairEngine(scenario.constraints, method="naive").repairs(
        scenario.instance
    )
    compiled = RepairEngine(scenario.constraints).repairs(scenario.instance)
    assert [r.fact_set() for r in compiled] == [r.fact_set() for r in reference]
    expected = {r.fact_set() for r in scenario.expected_repairs}
    assert {r.fact_set() for r in compiled} == expected
