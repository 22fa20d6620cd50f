"""The size-pruned ``≤_D`` filter, case by case.

:meth:`DeltaMinimality.dominated` asks ``j <_D i`` only of the rivals
``j`` whose null-free part is smaller than ``|∆(i)|`` and lies inside
``∆(i)``.  ``tests/property/test_delta_minimality.py`` pins the verdicts
to Definition 6; here, on every paper scenario, on chained denials and
null witnesses that a denial deletes again (the cases whose candidates
dominate each other) and on null-heavy workloads:

* **the pruning** — each candidate's ``dominated`` call makes exactly
  the ``leq`` calls its size-bounded subset rivals need (an undominated
  candidate asks all of them, a dominated one stops at its first
  dominator), so the bounds neither drop a rival nor keep one they may
  skip;
* **the order** — the verdicts do not lean on the search's discovery
  order: reversed or shuffled, the candidates get the permuted flags,
  and those are still Definition 6's;
* **the counters** — both engine methods report as
  ``leq_d_comparisons`` and ``repairs_found`` exactly what the filter
  counts and keeps on their own candidates, and keep those candidates
  in discovery order.
"""

import random

import pytest

from repro.constraints.parser import parse_constraint
from repro.core.repairs import (
    REPAIR_METHODS,
    DeltaMinimality,
    RepairEngine,
    leq_deltas,
    minimal_flags_counted,
)
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    key_violation_workload,
    scenarios,
)


def chained_denials(n, with_nulls=False):
    """``P(x) ∧ Q(x)`` and ``Q(x) ∧ R(x)`` both denied: deleting ``Q(a)``
    alone resolves both conflicts of ``a``, so candidates that delete
    ``P(a)`` and ``R(a)`` are dominated.  Null rows join nothing."""

    constraints = [
        parse_constraint("P(x), Q(x) -> false"),
        parse_constraint("Q(x), R(x) -> false"),
    ]
    rows = [(f"a{i}",) for i in range(n)] + ([(NULL,)] if with_nulls else [])
    return DatabaseInstance.from_dict({p: rows for p in "PQR"}), constraints


def denied_witnesses(n):
    """``P(x) → ∃y Q(x, y)`` and ``P(x) ∧ Q(x, y)`` denied: inserting the
    witness ``Q(a, null)`` forces deleting ``P(a)`` anyway, so a candidate
    whose delta is another's null-free delta plus null atoms is dominated
    by it, and only the size bound spares the comparison the other way."""

    constraints = [
        parse_constraint("P(x) -> Q(x, y)"),
        parse_constraint("P(x), Q(x, y) -> false"),
    ]
    rows = [(f"a{i}",) for i in range(n)]
    return DatabaseInstance.from_dict({"P": rows}), constraints


WORKLOADS = {
    "chained_denials": lambda: chained_denials(3),
    "denied_witnesses": lambda: denied_witnesses(2),
    "chained_denials_with_nulls": lambda: chained_denials(2, with_nulls=True),
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


def candidate_deltas(instance, constraints, method=REPAIR_METHODS[0]):
    """The symmetric differences of the search's candidates, in order."""

    candidates = RepairEngine(constraints, method=method).candidates(instance)
    return [instance.symmetric_difference(candidate) for candidate in candidates]


def strictly_dominated(deltas, index):
    """Definition 6 written out: some other delta is ``<_D`` this one."""

    return any(
        leq_deltas(delta, deltas[index]) and not leq_deltas(deltas[index], delta)
        for other, delta in enumerate(deltas)
        if other != index
    )


def definition_6_flags(deltas):
    return [not strictly_dominated(deltas, index) for index in range(len(deltas))]


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_each_candidate_asks_exactly_its_size_bounded_subset_rivals(
    name, instance, constraints
):
    deltas = candidate_deltas(instance, constraints)
    plains = [frozenset(f for f in delta if not f.has_null()) for delta in deltas]
    context = DeltaMinimality(deltas)
    for index, delta in enumerate(deltas):
        rivals = [
            other
            for other, plain in enumerate(plains)
            if other != index and len(plain) < len(delta) and plain <= delta
        ]
        # One call per rival, and the converse check where it is ≤_D.
        needed = len(rivals) + sum(leq_deltas(deltas[other], delta) for other in rivals)
        before = context.comparisons
        dominated = context.dominated(index)
        asked = context.comparisons - before
        assert dominated == strictly_dominated(deltas, index), (name, index)
        if dominated:
            assert 2 <= asked <= needed, (name, index)
        else:
            assert asked == needed, (name, index)


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_permuted_candidates_get_the_permuted_definition_6_flags(
    name, instance, constraints
):
    deltas = candidate_deltas(instance, constraints)
    flags, _ = minimal_flags_counted(deltas)
    order = list(range(len(deltas)))
    shuffled = order[:]
    random.Random(0).shuffle(shuffled)
    for permutation in (order[::-1], shuffled):
        permuted = [deltas[index] for index in permutation]
        permuted_flags, _ = minimal_flags_counted(permuted)
        assert permuted_flags == [flags[index] for index in permutation], name
        assert permuted_flags == definition_6_flags(permuted), name


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_both_engine_methods_report_the_filters_own_counts(
    name, instance, constraints
):
    for method in REPAIR_METHODS:
        deltas = candidate_deltas(instance, constraints, method)
        flags, comparisons = minimal_flags_counted(deltas)
        engine = RepairEngine(constraints, method=method)
        repairs = engine.repairs(instance)
        stats = engine.statistics
        assert stats.candidates_found == len(deltas), (name, method)
        assert stats.repairs_found == len(repairs) == sum(flags), (name, method)
        assert stats.leq_d_comparisons == comparisons, (name, method)
        assert [instance.symmetric_difference(repair) for repair in repairs] == [
            delta for delta, keep in zip(deltas, flags) if keep
        ], (name, method)
