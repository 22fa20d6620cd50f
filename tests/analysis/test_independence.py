"""Constraint–query independence: the closure, the plan, the engine.

A query whose predicates are disjoint from the affected-predicate closure
of a *non-conflicting* constraint set reads only relations every repair
agrees on, so its consistent answers are its plain answers.  These tests
pin the three layers: the closure computation, the planner short-circuit
(``CQAPlan.method == "independent"`` carrying the ``I302`` diagnostic),
and the registered engine that executes the fast path.
"""

import pytest

from repro import ConsistentDatabase
from repro.analysis import (
    ConstraintProgramError,
    QueryNotIndependentError,
    affected_predicates,
    independence_diagnostic,
    is_independent,
    query_predicates,
)
from repro.constraints.parser import parse_constraints, parse_query

KEY = ["Emp(e, d), Emp(e, f) -> d = f"]
DATA = {
    "Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "it")],
    "Log": [(1, "e1", "login"), (2, "e2", "logout")],
}
FREE_QUERY = "ans(t, a) <- Log(t, e, a)"
BOUND_QUERY = "ans(e) <- Emp(e, d)"


class TestClosure:
    def test_affected_predicates_cover_every_constrained_relation(self):
        constraints = parse_constraints(
            ["Emp(e, d) -> Dept(d)", "Audit(a), isnull(a) -> false"]
        )
        assert affected_predicates(constraints) == {"Emp", "Dept", "Audit"}

    def test_query_predicates_include_negated_atoms(self):
        query = parse_query("ans(e) <- Log(t, e, a), not Emp(e, a)")
        assert query_predicates(query) == {"Log", "Emp"}

    def test_independence_requires_disjointness(self):
        constraints = parse_constraints(KEY)
        assert is_independent(constraints, parse_query(FREE_QUERY))
        assert not is_independent(constraints, parse_query(BOUND_QUERY))

    def test_negated_overlap_defeats_independence(self):
        constraints = parse_constraints(KEY)
        query = parse_query("ans(t) <- Log(t, e, a), not Emp(e, a)")
        assert not is_independent(constraints, query)

    def test_conflicting_sets_are_never_independent(self):
        conflicting = parse_constraints(
            ["Emp(e, d) -> Mgr(e, m)", "Mgr(e, m), isnull(m) -> false"]
        )
        assert not is_independent(conflicting, parse_query("ans(t, a) <- Log(t, e, a)"))
        assert independence_diagnostic(conflicting, parse_query(FREE_QUERY)) is None

    def test_diagnostic_carries_both_closures(self):
        constraints = parse_constraints(KEY)
        diagnostic = independence_diagnostic(constraints, parse_query(FREE_QUERY))
        assert diagnostic.code == "I302"
        assert diagnostic.detail("affected_predicates") == "['Emp']"
        assert diagnostic.detail("query_predicates") == "['Log']"


class TestPlanner:
    def test_independent_plan_short_circuits(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        plan = db.explain(parse_query(FREE_QUERY))
        assert plan.method == "independent"
        assert plan.independence is not None
        assert plan.independence.code == "I302"
        assert "I302" in plan.reason

    def test_dependent_plan_has_no_independence_record(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        plan = db.explain(parse_query(BOUND_QUERY))
        assert plan.method != "independent"
        assert plan.independence is None

    def test_fragment_fallback_carries_the_i301_diagnostic(self):
        constraints = parse_constraints(
            ["Emp(e, d, s), Emp(e, f, t) -> d = f", "Emp(e, d, s) -> s > 0"]
        )
        db = ConsistentDatabase({"Emp": [("e1", "sales", 10)]}, constraints)
        plan = db.explain(parse_query("ans(e) <- Emp(e, d, s)"))
        assert plan.method in ("direct", "program")
        assert not plan.supported
        assert plan.unsupported_diagnostic is not None
        assert plan.unsupported_diagnostic.code == "I301"
        assert plan.unsupported_diagnostic.clause == "check-on-keyed-predicate"


class TestEngine:
    def test_independent_equals_direct_bit_for_bit(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        query = parse_query(FREE_QUERY)
        fast = db.report(query, method="independent")
        slow = db.report(query, method="direct")
        assert fast.answers == slow.answers
        assert fast.method == "independent"
        assert fast.repair_count_estimated

    def test_auto_routes_through_the_fast_path(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        result = db.report(parse_query(FREE_QUERY), method="auto")
        assert result.plan is not None and result.plan.method == "independent"
        assert result.answers == db.report(parse_query(FREE_QUERY), method="direct").answers

    def test_dependent_query_is_refused(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        with pytest.raises(QueryNotIndependentError):
            db.report(parse_query(BOUND_QUERY), method="independent")

    def test_boolean_queries(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        assert db.certain(parse_query("ans() <- Log(t, e, a)"), method="independent")
        assert not db.certain(
            parse_query("ans() <- Log(t, e, 'reboot')"), method="independent"
        )

    def test_only_report_estimates_repairs(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        query = parse_query(FREE_QUERY)
        db.consistent_answers(query, method="independent")
        assert not [key for key in db._cache._data if key[0] == "conflicts"]
        result = db.report(query, method="independent")
        assert result.repair_count_estimated
        assert result.repair_count == db.conflict_graph().estimated_repair_count()


class TestSessionAnalyze:
    def test_analyze_is_cached_per_fingerprint(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        first = db.analyze()
        assert db.analyze() is first
        assert first.diagnostics == ()

    def test_analyze_with_query_reports_i302(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        assert db.analyze(parse_query(FREE_QUERY)).codes() == ("I302",)

    def test_check_strict_raises_on_errors(self):
        cyclic = parse_constraints(["P(x, y) -> T(x)", "T(x) -> P(y, x)"])
        db = ConsistentDatabase({"P": [("a", "b")]}, cyclic)
        report = db.check()
        assert report.has_errors and "E101" in report.codes()
        with pytest.raises(ConstraintProgramError):
            db.check(strict=True)

    def test_check_is_quiet_on_clean_programs(self):
        db = ConsistentDatabase(DATA, parse_constraints(KEY))
        assert db.check(strict=True).diagnostics == ()
