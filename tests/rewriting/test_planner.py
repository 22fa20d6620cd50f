"""The planner and the ``method="auto"`` dispatcher."""

import pytest

from repro.analysis.independence import independence_diagnostic
from repro.constraints.parser import parse_query
from repro.core.cqa import consistent_answers, consistent_answers_report
from repro.rewriting import RewritingUnsupportedError, plan_cqa, rewrite_query
from repro.session import ConsistentDatabase
from repro.workloads import foreign_key_workload, scaled_course_student, scenarios


def _generic_queries(instance):
    queries = []
    for predicate in instance.predicates:
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        queries.append(parse_query(f"ans({variables}) <- {predicate}({variables})"))
        queries.append(parse_query(f"ans(x0) <- {predicate}({variables})"))
    return queries


class TestPlanning:
    def test_supported_pair_plans_rewriting(self):
        _, constraints = foreign_key_workload(seed=0)
        query = parse_query("ans(c) <- Child(c, p, d)")
        plan = plan_cqa(constraints, query)
        assert plan.method == "rewriting"
        assert plan.supported
        assert plan.rewritten is not None
        assert plan.unsupported is None

    def test_unsupported_pair_falls_back_with_reason(self):
        scenario = scenarios.example_18()  # UIC with a consequent atom + cyclic RIC
        query = parse_query("ans(x) <- T(x)")
        plan = plan_cqa(scenario.constraints, query)
        assert plan.method == "direct"
        assert not plan.supported
        assert plan.unsupported_reason
        assert plan.unsupported_reason in plan.reason

    def test_unsupported_query_also_falls_back(self):
        _, constraints = scaled_course_student(n_courses=6, seed=0)
        query = parse_query("ans(c) <- Course(i, c), not Student(i, c)")
        plan = plan_cqa(constraints, query)
        assert not plan.supported
        assert "negated" in plan.unsupported_reason

    def test_the_plan_is_frozen(self):
        _, constraints = foreign_key_workload(seed=0)
        plan = plan_cqa(constraints, parse_query("ans(c) <- Child(c, p, d)"))
        with pytest.raises(AttributeError):
            plan.method = "direct"

    @pytest.mark.parametrize("name", sorted(scenarios.all_scenarios()))
    def test_auto_routes_by_constraints_and_query_alone(self, name):
        """``independent`` exactly when I302 holds, else ``rewriting``
        exactly when the rewriting succeeds, else ``direct``."""

        scenario = scenarios.all_scenarios()[name]
        db = ConsistentDatabase(scenario.instance, scenario.constraints)
        for query in _generic_queries(scenario.instance):
            if independence_diagnostic(scenario.constraints, query) is not None:
                expected = "independent"
            else:
                try:
                    rewrite_query(query, scenario.constraints)
                    expected = "rewriting"
                except RewritingUnsupportedError:
                    expected = "direct"
            assert plan_cqa(scenario.constraints, query).method == expected, (name, query)
            assert db.explain(query).method == expected, (name, query)
            if expected != "direct":  # the routes that cannot fail on the data
                assert db.report(query).method == expected, (name, query)


class TestAutoDispatch:
    @pytest.mark.parametrize("name", sorted(scenarios.all_scenarios()))
    def test_auto_never_raises_and_matches_direct(self, name):
        """The acceptance criterion: ``auto`` never raises, always agrees."""

        scenario = scenarios.all_scenarios()[name]
        for query in _generic_queries(scenario.instance):
            try:
                expected = consistent_answers(
                    scenario.instance, scenario.constraints, query
                )
            except Exception:
                continue  # e.g. conflicting sets where enumeration itself fails
            got = consistent_answers(
                scenario.instance, scenario.constraints, query, method="auto"
            )
            assert got == expected, (name, query)

    def test_auto_report_carries_the_plan(self):
        instance, constraints = scaled_course_student(
            n_courses=10, dangling_ratio=0.3, seed=1
        )
        query = parse_query("ans(c) <- Course(i, c)")
        report = consistent_answers_report(
            instance, constraints, query, method="auto"
        )
        assert report.method == "rewriting"
        assert report.plan is not None
        assert report.plan.method == "rewriting"
        assert report.repair_count_estimated
        assert report.repair_count >= 1

    def test_forced_rewriting_raises_outside_the_fragment(self):
        scenario = scenarios.example_18()
        query = parse_query("ans(x) <- T(x)")
        with pytest.raises(RewritingUnsupportedError):
            consistent_answers(
                scenario.instance, scenario.constraints, query, method="rewriting"
            )

    def test_auto_on_fallback_reports_enumeration_method(self):
        scenario = scenarios.example_16()  # parent carries a check: fallback
        query = parse_query("ans(x, y) <- P(x, y)")
        report = consistent_answers_report(
            scenario.instance, scenario.constraints, query, method="auto"
        )
        assert report.method == "direct"
        assert not report.repair_count_estimated
        assert report.plan is not None and not report.plan.supported


class TestMaxStatesThreading:
    def test_is_consistent_answer_accepts_max_states(self):
        instance, constraints = scaled_course_student(
            n_courses=8, dangling_ratio=0.5, seed=3
        )
        query = parse_query("ans(c) <- Course(i, c)")
        from repro.core.cqa import is_consistent_answer
        from repro.core.repairs import RepairSearchBudgetExceeded

        answers = consistent_answers(instance, constraints, query)
        some = next(iter(answers))
        assert is_consistent_answer(instance, constraints, query, some)
        with pytest.raises(RepairSearchBudgetExceeded):
            is_consistent_answer(
                instance, constraints, query, some, max_states=2
            )

    def test_consistent_boolean_answer_accepts_max_states(self):
        instance, constraints = scaled_course_student(
            n_courses=8, dangling_ratio=0.5, seed=3
        )
        query = parse_query("ans() <- Course(i, c)")
        from repro.core.cqa import consistent_boolean_answer
        from repro.core.repairs import RepairSearchBudgetExceeded

        assert consistent_boolean_answer(instance, constraints, query) in (True, False)
        with pytest.raises(RepairSearchBudgetExceeded):
            consistent_boolean_answer(instance, constraints, query, max_states=2)
