"""Generated executors ≡ plan interpreter ≡ naive.

:mod:`repro.compile.codegen` specialises every join plan to a generated
Python closure replacing the step interpreter's ``iter_plan_matches``,
and it must be invisible except for speed.

This suite drives the same public entry points through both executors
(codegen — the default — and the step interpreter it falls back to) and
pins them against the ``compiled=False`` interpreter and the
``naive=True`` nested-loop reference, which lint rule INV006 keeps
codegen-free so the oracle can never become circular.  Payloads
(bindings, body facts), seeded delta plans and query answers under both
null conventions are compared, on the paper scenarios, the null-heavy
generated workloads and hypothesis-random instances.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import codegen
from repro.constraints.ic import ConstraintSet, NotNullConstraint
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.satisfaction import all_violations, seeded_violations, violations
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    key_violation_workload,
    scenarios,
)

#: Every executor the kernel can run a plan with, as codegen overrides:
#: the shipped default and the step interpreter it falls back to.
BACKENDS = {
    "codegen": True,
    "plan-interp": False,
}

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


def per_backend(fn):
    """``{backend name: fn()}`` with the matching overrides active."""

    results = {}
    for name, use_codegen in BACKENDS.items():
        with codegen.overridden(use_codegen):
            results[name] = fn()
    return results


# --------------------------------------------------------------------------- violations
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_every_backend_matches_the_interpreters(name, instance, constraints):
    for constraint in constraints:
        reference = set(violations(instance, constraint, naive=True))
        assert reference == set(violations(instance, constraint, compiled=False))
        for backend, result in per_backend(
            lambda: violations(instance, constraint)
        ).items():
            assert set(result) == reference, (name, backend, constraint)
            assert len(result) == len(set(result)), (name, backend, constraint)
    full = set(all_violations(instance, constraints))
    for backend, result in per_backend(
        lambda: all_violations(instance, constraints)
    ).items():
        assert set(result) == full, (name, backend)


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_violation_payloads_are_identical_across_backends(name, instance, constraints):
    """Bindings and body_facts — not just equality as opaque objects."""

    for constraint in constraints:
        by_key = {
            (v.bindings, v.body_facts)
            for v in violations(instance, constraint, compiled=False)
        }
        for backend, result in per_backend(
            lambda: violations(instance, constraint)
        ).items():
            for violation in result:
                assert (violation.bindings, violation.body_facts) in by_key, (
                    name,
                    backend,
                )
                assert len(violation.body_facts) == (
                    1
                    if isinstance(constraint, NotNullConstraint)
                    else len(constraint.body)
                )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_seeded_delta_plans_match_on_every_backend(name, instance, constraints):
    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        for fact in instance.facts():
            reference = set(
                seeded_violations(instance, constraint, fact, compiled=False)
            )
            for backend, result in per_backend(
                lambda: set(seeded_violations(instance, constraint, fact))
            ).items():
                assert result == reference, (name, backend, constraint, fact)


# --------------------------------------------------------------------------- queries
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_query_answers_match_on_every_backend(name, instance, constraints):
    for predicate in sorted(instance.predicates):
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        for text in (
            f"ans({variables}) <- {predicate}({variables})",
            f"ans(x0) <- {predicate}({variables})",
        ):
            query = parse_query(text)
            for null_is_unknown in (False, True):
                reference = query.answers(
                    instance, null_is_unknown=null_is_unknown, naive=True
                )
                for backend, result in per_backend(
                    lambda: query.answers(instance, null_is_unknown=null_is_unknown)
                ).items():
                    assert result == reference, (name, backend, text, null_is_unknown)


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
def test_random_instances_agree_on_every_backend(facts):
    instance = DatabaseInstance.from_facts(facts)
    for constraint in CONSTRAINTS:
        reference = set(violations(instance, constraint, naive=True))
        for backend, result in per_backend(
            lambda: set(violations(instance, constraint))
        ).items():
            assert result == reference, backend


@common_settings
@given(facts=st.lists(FACTS, max_size=6), seed=FACTS)
def test_random_mutations_keep_backends_in_sync(facts, seed):
    """Both executors see every mutation: the hash indexes they probe
    are maintained in place, generation by generation."""

    instance = DatabaseInstance.from_facts(facts)

    def snapshot():
        reference = set(all_violations(instance, CONSTRAINTS, naive=True))
        for backend, result in per_backend(
            lambda: set(all_violations(instance, CONSTRAINTS))
        ).items():
            assert result == reference, backend
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
def test_random_queries_agree_on_every_backend(facts):
    instance = DatabaseInstance.from_facts(facts)
    query = parse_query("ans(x, y) <- P(x, y), R(y, z)")
    for null_is_unknown in (False, True):
        reference = query.answers(
            instance, null_is_unknown=null_is_unknown, naive=True
        )
        for backend, result in per_backend(
            lambda: query.answers(instance, null_is_unknown=null_is_unknown)
        ).items():
            assert result == reference, (backend, null_is_unknown)


def test_generated_source_is_cached_and_equivalent():
    """One source text per plan, and running it equals the interpreter."""

    instance, constraints = grouped_key_workload(
        n_groups=2, group_size=3, n_clean=4, seed=13
    )
    first = all_violations(instance, constraints)
    stats = codegen.codegen_statistics()
    again = all_violations(instance, constraints)
    assert set(first) == set(again)
    # Re-running generated nothing new: the executor memo is process-wide.
    assert codegen.codegen_statistics().plans_generated == stats.plans_generated
