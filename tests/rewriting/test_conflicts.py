"""Conflict graphs: one classifier over one violation list.

The session builds its graph from the warm tracker's violations; every
graph must equal the one built from the nested-loop reference
(``all_violations(..., naive=True)``), marks with their ``forced`` flag,
edges per constraint and the repair-count estimate alike.
"""

import pytest

from repro import ConsistentDatabase
from repro.constraints.parser import parse_constraint
from repro.core.satisfaction import all_violations
from repro.explore.sources.corpus import corpus_entries
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.rewriting import ConflictGraph
from repro.workloads import (
    cyclic_ric_workload,
    foreign_key_workload,
    grouped_key_workload,
    independence_workload,
    key_violation_workload,
    scaled_course_student,
    scenarios,
)


def _signature(graph):
    """Marks with ``forced``, edges per constraint, and the estimate."""

    marks = sorted((repr(m.fact), repr(m.constraint), m.forced) for m in graph.marks)
    edges = sorted(
        (repr(e.constraint), *sorted((repr(e.first), repr(e.second))))
        for e in graph.edges
    )
    return marks, edges, graph.estimated_repair_count()


def _key_and_check():
    instance, constraints = grouped_key_workload(n_groups=2, group_size=3, n_clean=4, seed=1)
    return instance, [*constraints, parse_constraint("Emp(e, d, s) -> s > 0")]


def _chained_denials_with_nulls():
    constraints = [
        parse_constraint("P(x), Q(x) -> false"),
        parse_constraint("Q(x), R(x) -> false"),
    ]
    rows = [("a0",), ("a1",), (NULL,)]
    return DatabaseInstance.from_dict({p: rows for p in "PQR"}), constraints


WORKLOADS = {
    "foreign_key": lambda: foreign_key_workload(
        n_parents=8, n_children=16, violation_ratio=0.3, null_ratio=0.2, seed=3
    ),
    "key_violation": lambda: key_violation_workload(
        n_rows=16, duplicate_ratio=0.3, null_ratio=0.2, seed=5
    ),
    "course_student": lambda: scaled_course_student(
        n_courses=12, dangling_ratio=0.3, seed=7
    ),
}

CASE_FACTORIES = {
    **{
        name: (lambda scenario=scenario: (scenario.instance, scenario.constraints))
        for name, scenario in sorted(scenarios.all_scenarios().items())
    },
    **WORKLOADS,
    "foreign_key_null_heavy": lambda: foreign_key_workload(
        n_parents=4, n_children=10, violation_ratio=0.5, null_ratio=0.4, seed=5
    ),
    "key_violation_null_heavy": lambda: key_violation_workload(
        n_rows=12, duplicate_ratio=0.4, null_ratio=0.4, seed=7
    ),
    "grouped_key": lambda: grouped_key_workload(n_groups=3, group_size=3, n_clean=6, seed=11),
    "key_and_check": _key_and_check,
    "cyclic_ric": lambda: cyclic_ric_workload(n_rows=8, violation_ratio=0.4, seed=2),
    "independence": lambda: independence_workload(n_emp=8, n_log=6, seed=2),
    "chained_denials_with_nulls": _chained_denials_with_nulls,
    **{
        f"corpus:{path.stem}": (lambda case=case: (case.instance, case.constraints))
        for path, case, _ in corpus_entries()
    },
}


@pytest.mark.parametrize("name", list(CASE_FACTORIES))
def test_tracker_graph_equals_the_naive_graph(name):
    instance, constraints = CASE_FACTORIES[name]()
    expected = _signature(
        ConflictGraph.build(all_violations(instance, constraints, naive=True))
    )
    db = ConsistentDatabase(instance, constraints)
    assert _signature(db.conflict_graph()) == expected
    assert _signature(ConflictGraph.build(all_violations(instance, constraints))) == expected


def test_the_cases_cover_every_kind_of_entry():
    """Forced and choice marks and edges all occur somewhere in the suite."""

    kinds = set()
    for factory in CASE_FACTORIES.values():
        graph = ConflictGraph.build(all_violations(*factory(), naive=True))
        kinds.update("forced" if m.forced else "choice" for m in graph.marks)
        if graph.edges:
            kinds.add("edge")
    assert kinds == {"forced", "choice", "edge"}


def test_a_violation_joins_each_pair_of_its_distinct_facts():
    """Three distinct facts make three edges; a fact repeated in the body
    counts once, so a violation of one fact is a mark."""

    denial = parse_constraint("P(x), Q(x), R(x) -> false")
    self_denial = parse_constraint("S(x, y), S(x, z) -> false")
    instance = DatabaseInstance.from_dict(
        {"P": [("a",)], "Q": [("a",)], "R": [("a",)], "S": [("b", 1)]}
    )
    graph = ConflictGraph.build(all_violations(instance, [denial, self_denial]))
    assert sorted(sorted((repr(e.first), repr(e.second))) for e in graph.edges) == [
        ["P(a)", "Q(a)"], ["P(a)", "R(a)"], ["Q(a)", "R(a)"],
    ]
    assert [(repr(m.fact), m.forced) for m in graph.marks] == [("S(b, 1)", True)]
    assert graph.estimated_repair_count() == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_conflicting_facts_match_violation_enumeration(name):
    instance, constraints = WORKLOADS[name]()
    graph = ConflictGraph.build(all_violations(instance, constraints))
    expected = set()
    for violation in all_violations(instance, constraints):
        expected.update(violation.body_facts)
    assert set(graph.conflicting_facts()) == expected


def test_example_19_structure():
    scenario = scenarios.example_19()
    graph = ConflictGraph.build(all_violations(scenario.instance, scenario.constraints))
    # One key conflict between R(a, b) and R(a, c), one dangling S tuple.
    assert len(graph.edges) == 1
    assert len(graph.marks) == 1
    assert not graph.marks[0].forced  # dangling: delete or insert
    # 2 choices for the key group × 2 for the dangling child = 4 repairs.
    assert graph.estimated_repair_count() == 4


def test_forced_marks_for_not_null_and_checks():
    scenario = scenarios.example_6()
    violating = scenarios.example_6_violating_row()
    clean_graph = ConflictGraph.build(all_violations(scenario.instance, scenario.constraints))
    assert clean_graph.is_consistent()
    graph = ConflictGraph.build(all_violations(violating, scenario.constraints))
    assert [m.forced for m in graph.marks] == [True]


def test_consistent_instance_has_empty_graph():
    instance, constraints = foreign_key_workload(
        n_parents=6, n_children=10, violation_ratio=0.0, null_ratio=0.0, seed=1
    )
    graph = ConflictGraph.build(all_violations(instance, constraints))
    assert graph.is_consistent()
    assert graph.estimated_repair_count() == 1


def test_per_constraint_counts_are_labelled():
    instance, constraints = scaled_course_student(
        n_courses=12, dangling_ratio=0.3, seed=7
    )
    graph = ConflictGraph.build(all_violations(instance, constraints))
    counts = graph.per_constraint_counts()
    assert counts.get("course_student", 0) == len(graph.marks)
