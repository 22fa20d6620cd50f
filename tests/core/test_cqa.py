"""Tests for consistent query answering (Definition 8)."""

import pytest

from repro.constraints.parser import parse_constraint, parse_constraints, parse_query
from repro.core.cqa import (
    consistent_answers,
    consistent_answers_report,
    consistent_boolean_answer,
    is_consistent_answer,
)
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.workloads import scenarios


@pytest.fixture()
def course_student(example_14):
    return example_14.instance, example_14.constraints


class TestCourseStudentQueries:
    def test_certain_course_codes(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(c) <- Course(i, c)")
        # C18's course row is deleted in one repair, so only C15 is certain.
        assert consistent_answers(instance, constraints, query) == frozenset({("C15",)})

    def test_student_names_are_all_certain(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(n) <- Student(i, n)")
        assert consistent_answers(instance, constraints, query) == frozenset(
            {("Ann",), ("Paul",)}
        )

    def test_student_ids_include_inserted_null_tuple(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(i) <- Student(i, n)")
        # Student 34 exists only in the insertion repair, so it is not certain.
        answers = consistent_answers(instance, constraints, query)
        assert answers == frozenset({(21,), (45,)})

    def test_boolean_query(self, course_student):
        instance, constraints = course_student
        certain = parse_query("ans() <- Course(i, 'C15')")
        uncertain = parse_query("ans() <- Course(i, 'C18')")
        assert consistent_boolean_answer(instance, constraints, certain) is True
        assert consistent_boolean_answer(instance, constraints, uncertain) is False

    def test_is_consistent_answer(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(c) <- Course(i, c)")
        assert is_consistent_answer(instance, constraints, query, ("C15",))
        assert not is_consistent_answer(instance, constraints, query, ("C18",))

    def test_report_contains_statistics(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(c) <- Course(i, c)")
        report = consistent_answers_report(instance, constraints, query)
        assert report.repair_count == 2
        assert report.method == "direct"


class TestMethodsAgree:
    @pytest.mark.parametrize(
        "scenario_name, query_text",
        [
            ("example_14", "ans(c) <- Course(i, c)"),
            ("example_17", "ans(x) <- P(x, y)"),
            ("example_19", "ans(u) <- S(u, v)"),
            ("example_19", "ans(x) <- R(x, y)"),
        ],
    )
    def test_direct_and_program_methods_agree(self, all_scenarios, scenario_name, query_text):
        scenario = all_scenarios[scenario_name]
        query = parse_query(query_text)
        direct = consistent_answers(scenario.instance, scenario.constraints, query, method="direct")
        via_program = consistent_answers(
            scenario.instance, scenario.constraints, query, method="program"
        )
        assert direct == via_program

    def test_unknown_method_rejected(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(c) <- Course(i, c)")
        with pytest.raises(ValueError):
            consistent_answers(instance, constraints, query, method="quantum")


class TestConsistentDatabases:
    def test_cqa_on_consistent_database_is_plain_answering(self):
        scenario = scenarios.example_11()
        query = parse_query("ans(x) <- P(x, y, z)")
        answers = consistent_answers(scenario.instance, scenario.constraints, query)
        assert answers == query.answers(scenario.instance)

    def test_query_retrieving_nulls(self):
        scenario = scenarios.example_17()
        query = parse_query("ans(x, y) <- P(x, y)")
        answers = consistent_answers(scenario.instance, scenario.constraints, query)
        # P(a, null) survives in every repair; P(b, c) does not.
        assert ("a", NULL) in answers
        assert ("b", "c") not in answers


class TestJoinsAndNegation:
    def test_join_query_over_repairs(self, example_19):
        query = parse_query("ans(u, y) <- S(u, v), R(v, y)")
        answers = consistent_answers(example_19.instance, example_19.constraints, query)
        # S(e, f) is deleted in two repairs and R(f, null) only exists in the others;
        # S(null, a) joins R(a, b) in some repairs and R(a, c) in the others.
        assert answers == frozenset()

    def test_negation_query(self, course_student):
        instance, constraints = course_student
        query = parse_query("ans(i) <- Student(i, n), not Course(i, 'C15')")
        answers = consistent_answers(instance, constraints, query)
        assert (45,) in answers
        assert (21,) not in answers
