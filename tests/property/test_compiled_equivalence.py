"""Compiled kernel ≡ the naive reference, everywhere.

Every compiled plan of :mod:`repro.compile.kernel` runs through its
generated executor (:mod:`repro.compile.codegen`), the one fast path.
It must be bit-for-bit equivalent to the ``naive=True`` nested-loop
reference, which never executes a compiled plan (checked last, so the
cross-validation cannot become circular):

* **violations** — per constraint, the compiled enumeration equals the
  nested-loop reference, as sets *and* in count, bindings and body facts
  included, on every paper scenario and null-heavy generated workload;
* **seeded delta plans** — the violations seeded from one fact equal
  the naive violations whose ``body_facts`` contain that fact, for the
  instance's facts and for null-carrying variants inserted as seeds;
* **binding-pattern delta plans** — the violations under a partial
  assignment equal the naive violations whose bindings agree with it;
* **the tracker** — deleting and restoring every fact in turn through a
  ``ViolationTracker`` (which runs both kinds of delta plan) keeps its
  store equal to the naive sweep;
* **query answers** — compiled and naive paths agree on every query,
  single-atom scans and the joins of every constraint antecedent alike,
  under both null conventions;
* **end-to-end** — repairs and CQA through ``ConsistentDatabase``
  (whose tracker and engines execute compiled plans) equal the
  ``naive`` repair mode, repair lists including order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConsistentDatabase
from repro.compile import codegen
from repro.compile.kernel import compiled_constraint
from repro.constraints.ic import ConstraintSet, NotNullConstraint
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.cqa import consistent_answers
from repro.core.repairs import (
    RepairEngine,
    ViolationTracker,
    _lost_witness_assignments,
)
from repro.core.satisfaction import all_violations, violations
from repro.core.semantics import Semantics, violations_under
from repro.logic.queries import ConjunctiveQuery
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


def body_join_queries(constraint):
    """Conjunctive queries over a constraint's antecedent: the join itself,
    its projection on one variable, the join filtered by the consequent's
    built-ins and the join minus the consequent atoms it fully binds."""

    head = tuple(sorted(constraint.body_variables(), key=lambda v: v.name))
    queries = [
        ConjunctiveQuery(head_variables=head, positive_atoms=constraint.body),
        ConjunctiveQuery(head_variables=head[:1], positive_atoms=constraint.body),
    ]
    if constraint.head_comparisons:
        queries.append(
            ConjunctiveQuery(
                head_variables=head,
                positive_atoms=constraint.body,
                comparisons=constraint.head_comparisons,
            )
        )
    bound = tuple(a for a in constraint.head_atoms if a.variables() <= set(head))
    if bound:
        queries.append(
            ConjunctiveQuery(
                head_variables=head,
                positive_atoms=constraint.body,
                negative_atoms=bound,
            )
        )
    return queries


def null_variants(fact):
    """*fact* with one position replaced by ``NULL``, for each position
    that is not null already."""

    for position, value in enumerate(fact.values):
        if value is not NULL:
            values = list(fact.values)
            values[position] = NULL
            yield Fact(fact.predicate, values)


def naive_seeded(instance, constraint, fact):
    """The naive violations a fact takes part in."""

    return {
        v for v in violations(instance, constraint, naive=True) if fact in v.body_facts
    }


def naive_under(instance, constraint, partial):
    """The naive violations whose bindings agree with *partial*."""

    return {
        v
        for v in violations(instance, constraint, naive=True)
        if all(v.assignment[variable] == value for variable, value in partial.items())
    }


# --------------------------------------------------------------------------- violations
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_violations_match_naive(name, instance, constraints):
    for constraint in constraints:
        compiled = violations(instance, constraint)
        naive = violations(instance, constraint, naive=True)
        assert set(compiled) == set(naive)
        # Same count too: no duplicates appear or disappear.
        assert len(compiled) == len(set(compiled))
        assert len(naive) == len(set(naive))
    assert set(all_violations(instance, constraints)) == set(
        all_violations(instance, constraints, naive=True)
    )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_violation_payloads_are_identical(name, instance, constraints):
    """Bindings and body_facts — not just equality as opaque objects."""

    for constraint in constraints:
        by_key = {
            (v.bindings, v.body_facts): v
            for v in violations(instance, constraint, naive=True)
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
def test_seeded_delta_plans_match_naive(name, instance, constraints):
    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        unit = compiled_constraint(constraint)
        for fact in instance.facts():
            seeded = set(unit.seeded_violations(instance, fact))
            assert seeded == naive_seeded(instance, constraint, fact), (
                name,
                constraint,
                fact,
            )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_seeded_delta_plans_match_naive_on_null_seeds(name, instance, constraints):
    """A seed carrying a null goes through the seed atom's null guards."""

    working = instance.copy()
    checked = 0
    for fact in list(instance.facts()):
        for variant in null_variants(fact):
            inserted = variant not in working
            if inserted:
                working.add(variant)
            for constraint in constraints:
                if isinstance(constraint, NotNullConstraint):
                    continue
                unit = compiled_constraint(constraint)
                seeded = set(unit.seeded_violations(working, variant))
                assert seeded == naive_seeded(working, constraint, variant), (
                    name,
                    constraint,
                    variant,
                )
                checked += 1
            if inserted:
                working.discard(variant)
    assert checked
    assert set(working.facts()) == set(instance.facts())


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_binding_pattern_delta_plans_match_naive(name, instance, constraints):
    """The partial assignments a deleted witness pins (the tracker's own)."""

    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        unit = compiled_constraint(constraint)
        for fact in instance.facts():
            for partial in _lost_witness_assignments(constraint, fact):
                found = set(unit.violations_under(instance, partial))
                assert found == naive_under(instance, constraint, partial), (
                    name,
                    constraint,
                    partial,
                )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_tracker_matches_naive_on_every_deletion(name, instance, constraints):
    """Each fact deleted, then restored: deletions from a consequent
    predicate re-enumerate through the binding-pattern plans, insertions
    into an antecedent predicate through the seeded plans."""

    working = instance.copy()
    tracker = ViolationTracker(working, constraints)

    def check(step, fact):
        tracked = tracker.violations()
        assert len(tracked) == len(set(tracked)), (name, step, fact)
        assert set(tracked) == set(
            all_violations(working, constraints, naive=True)
        ), (name, step, fact)

    check("initial", None)
    for fact in list(instance.facts()):
        working.discard(fact)
        tracker.notify_removed(fact)
        check("deleted", fact)
        working.add(fact)
        tracker.notify_added(fact)
        check("restored", fact)


# --------------------------------------------------------------------------- queries
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_query_answers_match_naive(name, instance, constraints):
    for query in generic_queries(instance):
        for null_is_unknown in (False, True):
            compiled = query.answers(instance, null_is_unknown=null_is_unknown)
            naive = query.answers(
                instance, null_is_unknown=null_is_unknown, naive=True
            )
            assert compiled == naive, (name, query, null_is_unknown)


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_constraint_body_joins_match_naive(name, instance, constraints):
    """Multi-atom joins on each case's own data, nulls in join positions
    included."""

    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        for query in body_join_queries(constraint):
            for null_is_unknown in (False, True):
                compiled = query.answers(instance, null_is_unknown=null_is_unknown)
                naive = query.answers(
                    instance, null_is_unknown=null_is_unknown, naive=True
                )
                assert compiled == naive, (name, query, null_is_unknown)


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


def test_generated_executors_are_built_once():
    """Re-running a sweep generates nothing new: the executor memo is
    process-wide, next to the compiled plans."""

    instance, constraints = grouped_key_workload(
        n_groups=2, group_size=3, n_clean=4, seed=13
    )
    first = all_violations(instance, constraints)
    stats = codegen.codegen_statistics()
    generated = stats.plans_generated
    again = all_violations(instance, constraints)
    assert set(first) == set(again)
    assert codegen.codegen_statistics().plans_generated == generated


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
def test_random_instances_compiled_equals_naive(facts):
    instance = DatabaseInstance.from_facts(facts)
    for constraint in CONSTRAINTS:
        compiled = violations(instance, constraint)
        naive = violations(instance, constraint, naive=True)
        assert set(compiled) == set(naive)


@common_settings
@given(facts=st.lists(FACTS, max_size=6), seed=FACTS)
def test_random_seeded_enumeration_matches(facts, seed):
    instance = DatabaseInstance.from_facts(facts)
    instance.add(seed)
    for constraint in CONSTRAINTS:
        seeded = set(compiled_constraint(constraint).seeded_violations(instance, seed))
        assert seeded == naive_seeded(instance, constraint, seed)


@common_settings
@given(facts=st.lists(FACTS, max_size=6), value=VALUES)
def test_random_partial_assignments_match(facts, value):
    instance = DatabaseInstance.from_facts(facts)
    for constraint in CONSTRAINTS:
        unit = compiled_constraint(constraint)
        for variable in sorted(constraint.body_variables(), key=lambda v: v.name):
            partial = {variable: value}
            found = set(unit.violations_under(instance, partial))
            assert found == naive_under(instance, constraint, partial)


@common_settings
@given(facts=st.lists(FACTS, max_size=6), seed=FACTS)
def test_random_mutations_keep_compiled_in_sync(facts, seed):
    """The generated executors see every mutation: the hash indexes they
    probe are maintained in place, generation by generation."""

    instance = DatabaseInstance.from_facts(facts)

    def snapshot():
        reference = set(all_violations(instance, CONSTRAINTS, naive=True))
        assert set(all_violations(instance, CONSTRAINTS)) == reference
        return reference

    was_present = seed in set(instance.facts())
    before = snapshot()
    instance.add(seed)
    snapshot()
    instance.remove(seed)
    restored = snapshot()
    if not was_present:  # set semantics: removing a pre-existing seed shrinks
        assert restored == before


@common_settings
@given(facts=st.lists(FACTS, max_size=6))
def test_random_join_queries_match_naive(facts):
    instance = DatabaseInstance.from_facts(facts)
    query = parse_query("ans(x, y) <- P(x, y), R(y, z)")
    for null_is_unknown in (False, True):
        assert query.answers(instance, null_is_unknown=null_is_unknown) == (
            query.answers(instance, null_is_unknown=null_is_unknown, naive=True)
        ), null_is_unknown


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


# --------------------------------------------------------------------------- the oracle
@pytest.mark.parametrize("name", sorted(scenarios.all_scenarios()))
def test_naive_reference_executes_no_compiled_plan(name, monkeypatch):
    """``naive=True`` shares its modules with the fast path, so a per-module
    import rule cannot keep it kernel-free; forbidding plan execution can."""

    scenario = scenarios.all_scenarios()[name]
    instance, constraints = scenario.instance, scenario.constraints
    # Building the engine compiles the program (ViolationIndex); allowed.
    engine = RepairEngine(constraints, method="naive")

    def refuse(plan):
        raise AssertionError("the naive reference executed a compiled plan")

    monkeypatch.setattr(codegen, "matcher", refuse)
    all_violations(instance, constraints, naive=True)
    for query in generic_queries(instance):
        for null_is_unknown in (False, True):
            query.answers(instance, null_is_unknown=null_is_unknown, naive=True)
    engine.repairs(instance)
    # The alternative semantics are references too: the property suites
    # compare them with the compiled PAPER semantics.
    for semantics in Semantics:
        if semantics is not Semantics.PAPER:
            for constraint in constraints:
                violations_under(instance, constraint, semantics)
    with pytest.raises(AssertionError, match="compiled plan"):  # the patch bites
        violations(instance, parse_constraint("Probe(x) -> false"))
