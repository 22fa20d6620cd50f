"""The process-wide metrics registry (``repro.obs.metrics``)."""

import pytest

from repro.core.repairs import RepairStatistics
from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("repro_test_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_increment_raises(self):
        counter = Counter("repro_test_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_test_size")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == pytest.approx(13.0)


class TestHistogram:
    def test_observe_tracks_count_and_sum(self):
        histogram = Histogram("repro_test_seconds")
        histogram.observe(0.002)
        histogram.observe(0.2)
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.202)

    def test_one_observation_lands_in_exactly_one_bucket(self):
        histogram = Histogram("repro_test_seconds")
        histogram.observe(0.0005)  # below the smallest bound
        assert sum(histogram.bucket_counts) == 1
        assert histogram.bucket_counts[0] == 1

    def test_observation_above_every_bound_only_counts(self):
        histogram = Histogram("repro_test_seconds")
        histogram.observe(10_000.0)
        assert sum(histogram.bucket_counts) == 0
        assert histogram.count == 1

    def test_custom_buckets_are_sorted(self):
        histogram = Histogram("repro_test_seconds", buckets=(5.0, 1.0))
        assert histogram.buckets == (1.0, 5.0)


class TestRegistry:
    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_demo_total", "demo")
        second = registry.counter("repro_demo_total")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total")
        with pytest.raises(TypeError, match="already registered as counter"):
            registry.gauge("repro_demo_total")

    def test_get_and_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_b_total")
        registry.gauge("repro_a_size")
        assert registry.get("repro_b_total") is counter
        assert registry.get("repro_missing") is None
        assert registry.names() == ("repro_a_size", "repro_b_total")

    def test_snapshot_is_flat_and_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total").inc(3)
        registry.histogram("repro_demo_seconds").observe(0.5)
        assert registry.snapshot() == {
            "repro_demo_total": 3.0,
            "repro_demo_seconds_count": 1.0,
            "repro_demo_seconds_sum": 0.5,
        }

    def test_reset_zeroes_metrics_in_place(self):
        # Call sites hold module-level metric objects; reset must zero the
        # existing objects, never replace them.
        registry = MetricsRegistry()
        counter = registry.counter("repro_demo_total")
        histogram = registry.histogram("repro_demo_seconds")
        counter.inc(7)
        histogram.observe(1.0)
        registry.reset()
        assert registry.counter("repro_demo_total") is counter
        assert counter.value == 0.0
        assert histogram.count == 0 and histogram.sum == 0.0
        assert sum(histogram.bucket_counts) == 0


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "a demo counter").inc(3)
        registry.gauge("repro_demo_size").set(2.5)
        text = registry.prometheus_text()
        assert "# HELP repro_demo_total a demo counter" in text
        assert "# TYPE repro_demo_total counter" in text
        assert "\nrepro_demo_total 3\n" in text
        assert "# TYPE repro_demo_size gauge" in text
        assert "repro_demo_size 2.5" in text

    def test_histogram_buckets_are_cumulative_and_monotone(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_demo_seconds")
        histogram.observe(0.0005)  # ≤ every bound
        histogram.observe(0.3)  # ≤ 0.5 and up
        histogram.observe(10_000.0)  # above every bound
        text = registry.prometheus_text()
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_demo_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        # One le="..." line per bound plus +Inf, non-decreasing, ending at count.
        assert len(counts) == len(DEFAULT_BUCKETS) + 1
        assert counts == sorted(counts)
        assert counts[0] == 1  # le="0.001" sees only the tiny observation
        assert counts[-1] == 3  # +Inf is the total observation count
        assert 'le="+Inf"} 3' in text
        assert "repro_demo_seconds_count 3" in text


class TestModuleRegistry:
    def test_module_accessors_share_one_registry(self):
        counter = metrics.counter("repro_test_module_total", "module-level demo")
        before = counter.value
        metrics.counter("repro_test_module_total").inc(2)
        assert metrics.registry().get("repro_test_module_total").value == before + 2


class TestColumnStoreCounters:
    NAMES = ("repro_columnar_store_builds_total", "repro_columnar_store_rows_total")

    def test_registered_on_import_and_never_incremented(self):
        """Traced benchmark runs read both names; no column store exists."""

        from repro import ConsistentDatabase
        from repro.constraints.parser import parse_constraint, parse_query

        before = [metrics.registry().get(name).value for name in self.NAMES]
        db = ConsistentDatabase(
            {"Emp": [("e1", "sales"), ("e1", "hr")], "Log": [("u1",)]},
            [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        )
        db.consistent_answers(parse_query("ans(e) <- Emp(e, d)"), method="direct")
        db.consistent_answers(parse_query("ans(u) <- Log(u)"), method="auto")
        after = [metrics.registry().get(name).value for name in self.NAMES]
        assert after == before

    def test_batch_run_counter_is_unregistered(self):
        assert metrics.registry().get("repro_columnar_batch_runs_total") is None
        assert all(name in metrics.registry().names() for name in self.NAMES)


class TestAbsorbAndViews:
    def make_stats(self) -> RepairStatistics:
        return RepairStatistics(
            states_explored=10,
            candidates_found=4,
            repairs_found=2,
            dead_branches=1,
            violation_updates=20,
            constraints_reevaluated=30,
            leq_d_comparisons=12,
            search_seconds=0.25,
            minimality_seconds=0.05,
        )

    def test_absorb_repair_statistics_publishes_every_counter(self):
        registry = metrics.registry()
        registry.reset()
        metrics.absorb_repair_statistics(self.make_stats())
        snapshot = registry.snapshot()
        assert snapshot["repro_repair_runs_total"] == 1.0
        assert snapshot["repro_repair_states_explored_total"] == 10.0
        assert snapshot["repro_repair_repairs_found_total"] == 2.0
        assert snapshot["repro_repair_search_seconds_count"] == 1.0
        assert snapshot["repro_repair_search_seconds_sum"] == pytest.approx(0.25)

    def test_repair_statistics_view_round_trips(self):
        registry = metrics.registry()
        registry.reset()
        stats = self.make_stats()
        metrics.absorb_repair_statistics(stats)
        view = metrics.repair_statistics_view()
        assert view.states_explored == stats.states_explored
        assert view.candidates_found == stats.candidates_found
        assert view.repairs_found == stats.repairs_found
        assert view.leq_d_comparisons == stats.leq_d_comparisons
        assert view.search_seconds == pytest.approx(stats.search_seconds)

    def test_session_statistics_view_reads_session_counters(self):
        registry = metrics.registry()
        registry.reset()
        metrics.counter("repro_session_queries_total").inc(5)
        metrics.counter("repro_session_mutations_total").inc(3)
        metrics.counter("repro_session_tracker_rebuilds_total").inc(1)
        view = metrics.session_statistics_view()
        assert view.queries == 5
        assert view.mutations == 3
        assert view.tracker_rebuilds == 1
        assert view.batches_rolled_back == 0

    def test_compiler_statistics_view_reads_compile_counters(self):
        registry = metrics.registry()
        registry.reset()
        metrics.counter("repro_compile_constraints_total").inc(4)
        metrics.counter("repro_compile_programs_total").inc(2)
        view = metrics.compiler_statistics_view()
        assert view.constraints_compiled == 4
        assert view.programs_compiled == 2
        assert view.queries_compiled == 0
