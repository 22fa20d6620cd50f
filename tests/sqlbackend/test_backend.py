"""Tests for the SQLite backend: violation SQL, native acceptance and query SQL."""

from collections import Counter

import pytest

from repro.constraints.ic import NotNullConstraint
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.repairs import repairs
from repro.core.satisfaction import satisfies, violations
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.sqlbackend.backend import SQLiteBackend, conjunctive_query_sql, violation_sql
from repro.workloads import (
    foreign_key_workload,
    key_violation_workload,
    scaled_course_student,
    scenarios,
)


def _body_facts(constraint, row):
    """The facts of one violation row: the joined antecedent rows, sliced
    at the atom arities (a NOT-NULL row is the offending fact itself)."""

    if isinstance(constraint, NotNullConstraint):
        return (Fact(constraint.predicate, row),)
    facts = []
    cursor = 0
    for atom in constraint.body:
        facts.append(Fact(atom.predicate, row[cursor : cursor + atom.arity]))
        cursor += atom.arity
    return tuple(facts)


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


class TestViolationSQL:
    @pytest.mark.parametrize(
        "scenario_name",
        [
            "example_4",
            "example_4_psi2",
            "example_5",
            "example_6",
            "example_9",
            "example_11",
            "example_12",
            "example_13",
            "example_14",
            "example_17",
            "example_19",
        ],
    )
    def test_sql_rewriting_agrees_with_in_memory_semantics(self, all_scenarios, scenario_name):
        """The violation SQL implements |=_N: it flags exactly the violated constraints."""

        scenario = all_scenarios[scenario_name]
        with SQLiteBackend(scenario.instance, scenario.constraints) as backend:
            for constraint in scenario.constraints:
                in_memory = satisfies(scenario.instance, constraint)
                via_sql = not backend.violations(constraint)
                assert in_memory == via_sql, f"{constraint!r} disagrees"

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_violation_rows_are_the_compiled_violations(self, name):
        """Each row the violation SQL returns holds exactly the body facts
        of one compiled violation, and every compiled violation has a row."""

        instance, constraints = WORKLOADS[name]()
        found = 0
        with SQLiteBackend(instance, constraints) as backend:
            for constraint in constraints:
                rows = backend.violations(constraint)
                compiled = violations(instance, constraint)
                assert Counter(_body_facts(constraint, row) for row in rows) == Counter(
                    violation.body_facts for violation in compiled
                ), constraint
                found += len(compiled)
        assert found  # every workload violates something

    def test_is_consistent_matches_scenario_verdict(self, all_scenarios):
        for name in ("example_5", "example_6", "example_11", "example_14", "example_19"):
            scenario = all_scenarios[name]
            with SQLiteBackend(scenario.instance, scenario.constraints) as backend:
                assert backend.is_consistent() == scenario.expected_consistent

    def test_not_null_violation_sql(self):
        nnc = parse_constraint("Emp(i, n, s), isnull(s) -> false")
        db = DatabaseInstance.from_dict({"Emp": [(1, "a", NULL), (2, "b", 10)]})
        with SQLiteBackend(db, [nnc]) as backend:
            assert len(backend.violations(nnc)) == 1

    def test_violation_sql_text_contains_not_exists(self):
        ric = parse_constraint("Course(i, c) -> Student(i, n)")
        db = scenarios.example_14().instance
        sql = violation_sql(ric, db.schema)
        assert "NOT EXISTS" in sql
        assert "IS NOT NULL" in sql


class TestNativeAcceptance:
    def test_consistent_paper_examples_are_accepted(self, all_scenarios):
        for name in ("example_5", "example_6"):
            scenario = all_scenarios[name]
            with SQLiteBackend(scenario.instance, scenario.constraints) as backend:
                assert backend.accepts_natively()

    def test_repairs_are_accepted_natively(self, example_19):
        """The paper's claim: repaired instances pass a commercial engine's checks."""

        for repair in repairs(example_19.instance, example_19.constraints):
            with SQLiteBackend(repair, example_19.constraints) as backend:
                assert backend.accepts_natively()

    def test_inconsistent_instance_is_rejected_natively(self, example_19):
        with SQLiteBackend(example_19.instance, example_19.constraints) as backend:
            assert not backend.accepts_natively()

    def test_example_5_rejected_insert_is_rejected(self):
        scenario = scenarios.example_5()
        extended = scenarios.example_5_rejected_insert()
        with SQLiteBackend(extended, scenario.constraints) as backend:
            assert not backend.accepts_natively()


class TestQuerySQL:
    def test_conjunctive_query_matches_in_memory(self):
        db = scenarios.example_14().instance
        query = parse_query("ans(c) <- Course(i, c), Student(i, n)")
        with SQLiteBackend(db) as backend:
            assert backend.answers(query) == query.answers(db)

    def test_query_with_comparison_and_negation(self):
        db = DatabaseInstance.from_dict(
            {"Emp": [("ann", 120), ("bob", 80)], "Mgr": [("ann",)]}
        )
        query = parse_query("ans(x) <- Emp(x, s), not Mgr(x), s > 50")
        with SQLiteBackend(db) as backend:
            assert backend.answers(query) == frozenset({("bob",)})

    def test_boolean_query(self):
        db = scenarios.example_14().instance
        query = parse_query("ans() <- Course(i, 'C18')")
        with SQLiteBackend(db) as backend:
            assert backend.answers(query) == frozenset({()})

    def test_sql_text_generation(self):
        db = scenarios.example_14().instance
        query = parse_query("ans(c) <- Course(i, c), not Student(i, 'Ann')")
        sql = conjunctive_query_sql(query, db.schema)
        assert sql.startswith("SELECT DISTINCT")
        assert "NOT EXISTS" in sql

    def test_raw_execute(self):
        db = scenarios.example_14().instance
        with SQLiteBackend(db) as backend:
            rows = backend.execute('SELECT COUNT(*) FROM "Course"')
            assert rows == [(2,)]
