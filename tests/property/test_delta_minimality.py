"""``DeltaMinimality`` decides ``≤_D`` exactly as Definition 6 does.

The production search, the naive repair reference, ``brute_force_repairs``
and the program route all filter their candidates through the cover
tables of :class:`~repro.core.repairs.DeltaMinimality`, so comparing the
engines with each other cannot catch a cover-table error.  Here the
tables are pinned to :func:`~repro.core.repairs.leq_deltas`, Definition 6
written out over two symmetric differences:

* for every ordered pair of deltas, the diagonal included,
  ``DeltaMinimality(deltas).leq(i, j) == leq_deltas(deltas[i], deltas[j])``;
* ``minimal_flags_counted`` keeps exactly the deltas that no other delta
  strictly ``<_D``-dominates under ``leq_deltas``.

The deltas come from the candidates of every paper scenario and of the
null-heavy workloads, and from a generator of null-bearing deltas over
a small vocabulary, so that null atoms often share their non-null
projection with atoms of other deltas.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.repairs import (
    DeltaMinimality,
    RepairEngine,
    leq_deltas,
    minimal_flags_counted,
)
from repro.relational.domain import NULL
from repro.relational.instance import Fact
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


def assert_matches_definition_6(deltas):
    context = DeltaMinimality(deltas)
    for i, first in enumerate(deltas):
        for j, second in enumerate(deltas):
            assert context.leq(i, j) == leq_deltas(first, second), (first, second)
    expected = [
        not any(
            j != i
            and leq_deltas(deltas[j], deltas[i])
            and not leq_deltas(deltas[i], deltas[j])
            for j in range(len(deltas))
        )
        for i in range(len(deltas))
    ]
    flags, _ = minimal_flags_counted(deltas)
    assert flags == expected


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_cover_tables_decide_leq_d_on_every_case(name, instance, constraints):
    candidates = RepairEngine(constraints).candidates(instance)
    assert_matches_definition_6(
        [instance.symmetric_difference(candidate) for candidate in candidates]
    )


VALUES = st.sampled_from(["a", "b", NULL])
FACTS = st.one_of(
    st.tuples(VALUES, VALUES).map(lambda values: Fact("P", values)),
    st.tuples(VALUES, VALUES, VALUES).map(lambda values: Fact("Q", values)),
)
DELTAS = st.frozensets(FACTS, max_size=5)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(deltas=st.lists(DELTAS, min_size=1, max_size=6))
def test_cover_tables_decide_leq_d_on_null_bearing_deltas(deltas):
    assert_matches_definition_6(deltas)


class TestDeltaInterning:
    """The search builds fresh ``Fact`` objects for the facts it inserts,
    while deleted facts are the base instance's own: ``≤_D`` must not
    care."""

    #: Every non-empty subset of these is a delta: null atoms with and
    #: without a cover, and plain facts, so both conditions of
    #: Definition 6 decide some verdicts.
    POOL = (
        Fact("R", ("a", 1)),
        Fact("R", ("b", 2)),
        Fact("S", ("a", NULL)),
        Fact("S", ("a", 1)),
        Fact("S", ("b", NULL)),
    )

    @classmethod
    def _distinct_deltas(cls):
        """Every delta built from its own, fresh ``Fact`` objects."""

        return [
            frozenset(
                Fact(fact.predicate, fact.values)
                for bit, fact in enumerate(cls.POOL)
                if mask >> bit & 1
            )
            for mask in range(1, 2 ** len(cls.POOL))
        ]

    def test_distinct_and_shared_facts_give_the_same_verdicts(self):
        distinct = self._distinct_deltas()
        shared = [
            frozenset(fact for fact in self.POOL if fact in delta)
            for delta in distinct
        ]
        flags, comparisons = minimal_flags_counted(shared)
        assert 1 < sum(flags) < len(flags)  # both verdicts occur
        assert minimal_flags_counted(distinct) == (flags, comparisons)
