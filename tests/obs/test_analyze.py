"""``ConsistentDatabase.explain(analyze=True)``: a view of the request's spans.

The report's phases are the self times of the request's own span tree,
so together with ``unattributed`` (the root span's own self time) they
partition the root span exactly — on every pinned scenario, on the
729-repair reference request, and when the tracer's child cap drops
spans.  The repair-search line is the request's own
``RepairStatistics``.
"""

import pytest

from repro.constraints.parser import parse_query
from repro.obs import trace
from repro.obs.analyze import ExplainReport
from repro.rewriting import CQAPlan
from repro.session import ConsistentDatabase
from repro.workloads import grouped_key_workload


def scenario_query(scenario):
    """A total projection over the scenario's first populated predicate."""

    fact = min(scenario.instance.facts(), key=lambda f: f.sort_key())
    variables = ", ".join(f"x{index}" for index in range(fact.arity))
    return parse_query(f"ans({variables}) <- {fact.predicate}({variables})")


def span_names(record):
    """Every span name below *record*, dropped children's included."""

    names = set(record.dropped_seconds)
    for child in record.children:
        names.add(child.name)
        names |= span_names(child)
    return names


def assert_partition(report, label=""):
    """Phases plus unattributed add up to the root span; none is negative."""

    total = sum(report.phases.values()) + report.unattributed
    assert total == pytest.approx(report.trace.duration, abs=1e-6), label
    for name, seconds in report.phases.items():
        assert seconds >= 0.0, f"{label}: phase {name} is negative ({seconds})"
    assert report.unattributed >= 0.0, label


class TestExplainAnalyze:
    def make_session(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=2, n_clean=4, seed=3
        )
        return ConsistentDatabase(instance, constraints)

    def test_returns_a_report_not_a_plan(self):
        db = self.make_session()
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        plan = db.explain(query)
        report = db.explain(query, analyze=True)
        assert isinstance(plan, CQAPlan)
        assert isinstance(report, ExplainReport)
        assert report.plan.method == plan.method

    def test_phases_are_the_self_times_of_the_span_tree(self):
        db = self.make_session()
        report = db.explain(
            parse_query("ans(e, d) <- Emp(e, d, s)"), analyze=True, method="direct"
        )
        assert set(report.phases) == span_names(report.trace)
        assert list(report.phases)[:2] == ["session.plan", "session.report"]
        assert_partition(report)

    def test_repair_statistics_are_the_requests_own_search(self):
        db = self.make_session()
        query = parse_query("ans(e, d) <- Emp(e, d, s)")
        report = db.explain(query, analyze=True, method="direct")
        assert report.result.answers == db.report(query, method="direct").answers
        statistics = report.repair_statistics
        assert statistics is db.last_repair_statistics
        assert statistics.repairs_found == report.result.repair_count == 4
        assert statistics.violation_updates > 0
        assert statistics.constraints_reevaluated > 0

    def test_a_request_served_without_a_search_reports_none(self):
        db = self.make_session()
        query = parse_query("ans(e, d) <- Emp(e, d, s)")
        first = db.explain(query, analyze=True, method="direct")
        assert first.repair_statistics is not None
        # The answer cache serves the repeat: no search runs, and the
        # previous request's statistics are not reported as this one's.
        second = db.explain(query, analyze=True, method="direct")
        assert second.answer_cache_hit is True
        assert second.repair_statistics is None
        assert "session.report" not in second.phases
        assert_partition(second)

    def test_answer_cache_hit_flips_on_the_second_call(self):
        db = self.make_session()
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        first = db.explain(query, analyze=True)
        second = db.explain(query, analyze=True)
        assert first.answer_cache_hit is False
        assert second.answer_cache_hit is True

    def test_trace_record_is_captured_without_polluting_the_tracer(self):
        with trace.tracing(False):
            trace.reset()
            db = self.make_session()
            report = db.explain(
                parse_query("ans(e, d, s) <- Emp(e, d, s)"), analyze=True
            )
            assert report.trace is not None
            assert report.trace.name == "explain.analyze"
            assert report.trace.children  # the phases recorded under it
            # The tracer was only on for the call: nothing leaks into the
            # process-wide roots and the flag is restored.
            assert trace.tracer().roots == []
            assert not trace.enabled()

    def test_trace_stays_in_the_tracer_when_already_enabled(self):
        with trace.tracing(True):
            trace.reset()
            db = self.make_session()
            db.explain(parse_query("ans(e, d, s) <- Emp(e, d, s)"), analyze=True)
            assert [root.name for root in trace.tracer().roots] == [
                "explain.analyze"
            ]

    def test_render_is_a_complete_text_block(self):
        db = self.make_session()
        report = db.explain(
            parse_query("ans(e, d) <- Emp(e, d, s)"), analyze=True, method="direct"
        )
        rendered = report.render()
        assert rendered.startswith("EXPLAIN ANALYZE")
        assert "Phases (self time of" in rendered
        assert "(unattributed)" in rendered
        for name in report.phases:
            assert f"  {name} " in rendered
        assert "Repair search: " in rendered
        assert "tracker updates" in rendered
        assert "Answers:" in rendered

    def test_overrides_reach_the_executed_request(self):
        db = self.make_session()
        report = db.explain(
            parse_query("ans(e, d, s) <- Emp(e, d, s)"),
            analyze=True,
            method="direct",
        )
        # The plan stays advisory (it may recommend another engine); the
        # *executed* request must honour the override.
        assert report.result.method == "direct"


class TestPartition:
    @pytest.mark.parametrize("method", ["auto", "direct"])
    def test_phases_partition_the_root_on_every_pinned_scenario(
        self, all_scenarios, method
    ):
        for name, scenario in sorted(all_scenarios.items()):
            db = ConsistentDatabase(scenario.instance, scenario.constraints)
            report = db.explain(scenario_query(scenario), analyze=True, method=method)
            assert_partition(report, f"{name}/{method}")

    def test_dropped_children_keep_their_time(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_CHILD_SPANS", 2)
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=20, seed=1
        )
        db = ConsistentDatabase(instance, constraints)
        report = db.explain(
            parse_query("ans(e, d) <- Emp(e, d, s)"), analyze=True, method="direct"
        )
        engine = report.trace.children[1].children[0]
        assert engine.name == "engine.direct"
        assert engine.dropped_children > 0
        # Dropped spans leave the tree but keep their phase.
        assert "answers.assemble" in engine.dropped_seconds
        assert "answers.assemble" in report.phases
        assert_partition(report)


class TestReferenceRequest:
    """The 729-repair request: search, ≤_D, materialisation and evaluation
    are separate phases, and almost nothing is left unattributed."""

    @pytest.fixture(scope="class")
    def report(self):
        instance, constraints = grouped_key_workload(
            n_groups=6, group_size=3, n_clean=200
        )
        db = ConsistentDatabase(instance, constraints)
        return db.explain(
            parse_query("ans(e, d) <- Emp(e, d, s)"), analyze=True, method="direct"
        )

    def test_phases_and_unattributed_add_up_to_the_root(self, report):
        assert_partition(report)

    def test_unattributed_is_at_most_five_percent(self, report):
        assert report.unattributed <= 0.05 * report.trace.duration

    def test_every_repair_layer_is_its_own_phase(self, report):
        for name in (
            "repair.search",
            "repair.minimality",
            "repair.materialise",
            "query.eval",
            "answers.assemble",
        ):
            assert report.phases.get(name, 0.0) > 0.0, name

    def test_the_search_line_shows_the_searchs_own_tracker_updates(self, report):
        statistics = report.repair_statistics
        assert statistics.repairs_found == 729
        assert statistics.violation_updates == 1820
        assert "1820 tracker updates" in report.render()
