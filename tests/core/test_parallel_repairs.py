"""The production repair search (``method="parallel"``), inline and pooled.

Covers the frontier-task decomposition of :mod:`repro.core.parallel`:
bit-identical output against the naive reference (list equality —
same repairs, same discovery order), the sibling-exclusion partitioning
on denial-only constraint sets, deferred-task splitting under tiny
chunk budgets, process-pool execution, the explicit per-worker
:meth:`RepairStatistics.merge`, and the anytime stream/short-circuit
surface of the session.
"""

import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.parallel as parallel_module
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.parallel import (
    AnytimeRepairStream,
    FrontierTask,
    ParallelRepairSearch,
    exclusion_safe,
    frontier_could_dominate,
    parallel_minimal_flags,
)
from repro.core.repairs import (
    PARALLEL_METHOD,
    REPAIR_METHODS,
    RepairEngine,
    RepairSearchBudgetExceeded,
    RepairStatistics,
    ViolationTracker,
    minimal_flags_counted,
    violation_choice_key,
)
from repro.core.satisfaction import Violation
from repro.engines import CQAConfig
from repro.obs import trace
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.session import ConsistentDatabase
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    scenarios,
)


def naive_repairs(instance, constraints, **kwargs):
    return RepairEngine(constraints, method="naive", **kwargs).repairs(instance)


def parallel_repairs(instance, constraints, **kwargs):
    return RepairEngine(constraints, method=PARALLEL_METHOD, **kwargs).repairs(
        instance
    )


class TestBitIdenticalOutput:
    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_every_scenario_matches_naive_exactly(self, all_scenarios, chunk):
        """Same repair *list* — contents and discovery order — per scenario."""

        for name, scenario in sorted(all_scenarios.items()):
            if not scenario.constraints.is_non_conflicting():
                continue
            reference = naive_repairs(scenario.instance, scenario.constraints)
            parallel = parallel_repairs(
                scenario.instance, scenario.constraints, chunk_states=chunk
            )
            assert parallel == reference, f"scenario {name} diverged at chunk={chunk}"

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_grouped_key_workload_exclusion_partitioning(self, chunk):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=6, seed=3
        )
        assert exclusion_safe(constraints)
        reference = naive_repairs(instance, constraints)
        assert parallel_repairs(instance, constraints, chunk_states=chunk) == reference

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_foreign_key_workload_overlapping_subtrees(self, chunk):
        """RICs insert null witnesses: no exclusions, path-dedup reconciles."""

        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=7, violation_ratio=0.4, null_ratio=0.3, seed=1
        )
        assert not exclusion_safe(constraints)
        reference = naive_repairs(instance, constraints)
        assert parallel_repairs(instance, constraints, chunk_states=chunk) == reference

    def test_process_pool_matches_inline(self):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        reference = naive_repairs(instance, constraints)
        with_processes = parallel_repairs(
            instance, constraints, workers=2, chunk_states=7
        )
        assert with_processes == reference

    def test_process_pool_with_null_insertions(self):
        """Null facts and constraint objects round-trip through pickling."""

        instance, constraints = foreign_key_workload(
            n_parents=3, n_children=5, violation_ratio=0.5, null_ratio=0.4, seed=7
        )
        reference = naive_repairs(instance, constraints)
        assert (
            parallel_repairs(instance, constraints, workers=2, chunk_states=5)
            == reference
        )

    def test_parallel_minimality_slicing_matches(self):
        """An 81-candidate pool search (≤_D filtered in-process) equals naive."""

        instance, constraints = grouped_key_workload(
            n_groups=4, group_size=3, n_clean=4, seed=2
        )
        reference = naive_repairs(instance, constraints)
        assert len(reference) == 81  # below the sliced-filter threshold
        # A chunk below the 121-state tree splits the root onto the pool.
        engine = RepairEngine(
            constraints, method=PARALLEL_METHOD, workers=2, chunk_states=27
        )
        assert engine.repairs(instance) == reference
        assert engine.statistics.instance_ship_bytes > 0

    def test_method_validation(self):
        assert REPAIR_METHODS == (PARALLEL_METHOD, "naive")
        assert RepairEngine(ConstraintSet()).method == PARALLEL_METHOD
        for removed in ("incremental", "indexed"):
            with pytest.raises(ValueError, match=removed):
                RepairEngine(ConstraintSet(), method=removed)
        with pytest.raises(ValueError, match="turbo"):
            RepairEngine(ConstraintSet(), method="turbo")
        RepairEngine(ConstraintSet(), method=PARALLEL_METHOD)  # accepted

    def test_budget_applies_to_the_task_sum(self):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        with pytest.raises(RepairSearchBudgetExceeded):
            parallel_repairs(instance, constraints, max_states=10, chunk_states=4)


class TestMinimalityThreshold:
    """``RepairEngine.repairs`` slices ``≤_D`` across a pool only from
    ``_PARALLEL_MINIMALITY_MIN`` candidates up; smaller sets stay in-process."""

    @staticmethod
    def _deltas(instance, constraints):
        ordered = ParallelRepairSearch(instance, constraints).collect()
        return [inserted | deleted for _, inserted, deleted in ordered]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: grouped_key_workload(n_groups=4, group_size=3, n_clean=4, seed=2),
            lambda: foreign_key_workload(
                n_parents=4, n_children=10, violation_ratio=0.5, null_ratio=0.4, seed=5
            ),
        ],
        ids=["grouped_key", "foreign_key_nulls"],
    )
    def test_sliced_filter_matches_the_sequential_one(self, factory):
        deltas = self._deltas(*factory())
        assert len(deltas) > 8  # several slices per worker
        assert parallel_minimal_flags(deltas, 2) == minimal_flags_counted(deltas)

    def test_small_pool_search_never_starts_the_minimality_pool(self, monkeypatch):
        def refuse(deltas, workers):
            raise AssertionError(f"minimality pool started for {len(deltas)} candidates")

        monkeypatch.setattr(parallel_module, "parallel_minimal_flags", refuse)
        instance, constraints = grouped_key_workload(
            n_groups=4, group_size=3, n_clean=4, seed=2
        )
        found = parallel_repairs(instance, constraints, workers=2)
        assert len(found) == 81 < RepairEngine._PARALLEL_MINIMALITY_MIN

    def test_search_at_the_threshold_slices_the_filter(self, monkeypatch):
        calls = []
        real = parallel_module.parallel_minimal_flags

        def spy(deltas, workers):
            calls.append((len(deltas), workers))
            return real(deltas, workers)

        monkeypatch.setattr(parallel_module, "parallel_minimal_flags", spy)
        monkeypatch.setattr(RepairEngine, "_PARALLEL_MINIMALITY_MIN", 81)
        instance, constraints = grouped_key_workload(
            n_groups=4, group_size=3, n_clean=4, seed=2
        )
        found = parallel_repairs(instance, constraints, workers=2)
        assert calls == [(81, 2)]
        assert found == naive_repairs(instance, constraints)


def span_nodes(span):
    yield span
    for child in span.children:
        yield from span_nodes(child)


class TestPoolSchedule:
    """Tasks run inline until the frontier first holds
    ``_POOL_MIN_OPEN_TASKS`` tasks; only then does the pool start."""

    @staticmethod
    def _workload():
        return grouped_key_workload(n_groups=3, group_size=3, n_clean=5, seed=0)

    def test_a_search_that_fits_its_root_chunk_starts_no_pool(self):
        instance, constraints = self._workload()
        engine = RepairEngine(constraints, method=PARALLEL_METHOD, workers=2)
        assert engine.repairs(instance) == naive_repairs(instance, constraints)
        assert engine.statistics.instance_ship_bytes == 0
        assert engine.statistics.tasks_shipped == 0

    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_a_split_search_runs_its_root_in_the_driver(self, chunk):
        instance, constraints = self._workload()
        engine = RepairEngine(
            constraints, method=PARALLEL_METHOD, workers=2, chunk_states=chunk
        )
        with trace.tracing(True):
            trace.reset()
            pooled = engine.repairs(instance)
            roots = trace.tracer().roots
        trace.reset()
        tasks = [
            node
            for root in roots
            for node in span_nodes(root)
            if node.name == "repair.task"
        ]
        (root_task,) = [node for node in tasks if node.attributes["path"] == "()"]
        assert root_task.pid == os.getpid()
        assert any(node.pid != os.getpid() for node in tasks)
        # Exactly one pool start: one facts payload, no respawn.
        assert engine.statistics.instance_ship_bytes == len(
            pickle.dumps(tuple(instance.facts()), pickle.HIGHEST_PROTOCOL)
        )
        assert engine.statistics.tasks_shipped > 0
        inline = parallel_repairs(instance, constraints, chunk_states=chunk)
        assert pooled == inline == naive_repairs(instance, constraints)

    @pytest.mark.parametrize("pool_min_open_tasks", [1, 2])
    def test_a_pooled_session_query_starts_from_the_warm_tracker(
        self, monkeypatch, pool_min_open_tasks
    ):
        monkeypatch.setattr(
            ParallelRepairSearch, "_POOL_MIN_OPEN_TASKS", pool_min_open_tasks
        )
        instance, constraints = self._workload()
        db = ConsistentDatabase(instance, constraints, method="direct", workers=2)
        assert db.violation_count() > 0  # the session's own sweep, once
        seeds = []
        original = ViolationTracker.__init__

        def recording(self, instance, constraints, seed=None):
            seeds.append(seed)
            original(self, instance, constraints, seed=seed)

        monkeypatch.setattr(ViolationTracker, "__init__", recording)
        query = parse_query("ans(e) <- Emp(e, d, s)")
        answers = db.consistent_answers(query)
        assert seeds, "the driver built no tracker"
        assert all(seed is not None for seed in seeds), "a driver tracker swept"
        assert db.last_repair_statistics.instance_ship_bytes == (
            0 if pool_min_open_tasks == 2 else len(
                pickle.dumps(tuple(instance.facts()), pickle.HIGHEST_PROTOCOL)
            )
        )
        assert answers == ConsistentDatabase(
            instance, constraints, method="direct"
        ).consistent_answers(query)


class TestChoiceKeyMemo:
    @staticmethod
    def _violations():
        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=6, violation_ratio=0.5, null_ratio=0.3, seed=5
        )
        return ViolationTracker(instance, constraints).violations()

    def test_the_key_is_built_once_per_violation(self, monkeypatch):
        violations = self._violations()
        assert violations
        keyed = []
        real = Fact.sort_key

        def counting(fact):
            keyed.append(fact)
            return real(fact)

        monkeypatch.setattr(Fact, "sort_key", counting)
        keys = [violation_choice_key(violation) for violation in violations]
        for _ in range(3):
            assert [violation_choice_key(v) for v in violations] == keys
        assert len(keyed) == sum(len(v.body_facts) for v in violations)

    def test_the_memo_changes_neither_equality_nor_hashing(self):
        violations = self._violations()
        keys = [violation_choice_key(violation) for violation in violations]
        fresh = [
            Violation(v.constraint, v.bindings, v.body_facts) for v in violations
        ]
        for violation, copy, key in zip(violations, fresh, keys):
            assert copy == violation and hash(copy) == hash(violation)
            assert violation_choice_key(copy) == key
        assert set(fresh) == set(violations)
        assert min(fresh, key=violation_choice_key) == min(
            violations, key=violation_choice_key
        )


class TestHypothesisEquivalence:
    CONSTRAINTS = ConstraintSet(
        [
            parse_constraint("P(x, y) -> R(x, z)"),
            parse_constraint("R(x, y), R(x, z) -> y = z"),
        ]
    )
    VALUES = st.sampled_from(["a", "b", NULL])

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.lists(st.tuples(VALUES, VALUES), max_size=3),
        st.lists(st.tuples(VALUES, VALUES), max_size=2),
        st.integers(min_value=1, max_value=9),
    )
    def test_parallel_equals_naive_on_generated_instances(
        self, p_rows, r_rows, chunk
    ):
        instance = DatabaseInstance.from_dict({"P": p_rows, "R": r_rows})
        reference = naive_repairs(instance, self.CONSTRAINTS)
        assert (
            parallel_repairs(instance, self.CONSTRAINTS, chunk_states=chunk)
            == reference
        )


class TestStatisticsMerge:
    def test_merge_sums_counters_but_not_wall_clock(self):
        """Counters and task CPU sum; wall-clock stays the driver's own.

        Summing per-task wall clock under ``method="parallel"`` would
        report more elapsed time than actually passed — the driver owns
        ``search_seconds``/``minimality_seconds``, tasks contribute
        ``task_cpu_seconds``.
        """

        first = RepairStatistics(
            states_explored=10,
            candidates_found=2,
            repairs_found=1,
            dead_branches=3,
            violation_updates=40,
            constraints_reevaluated=80,
            leq_d_comparisons=5,
            search_seconds=0.25,
            minimality_seconds=0.5,
            task_cpu_seconds=0.2,
        )
        second = RepairStatistics(
            states_explored=7,
            candidates_found=1,
            dead_branches=2,
            violation_updates=13,
            constraints_reevaluated=20,
            search_seconds=0.75,
            task_cpu_seconds=0.6,
        )
        merged = first.merge(second)
        assert merged is first
        assert first.states_explored == 17
        assert first.candidates_found == 3
        assert first.repairs_found == 1
        assert first.dead_branches == 5
        assert first.violation_updates == 53
        assert first.constraints_reevaluated == 100
        assert first.leq_d_comparisons == 5
        assert first.search_seconds == pytest.approx(0.25)
        assert first.minimality_seconds == pytest.approx(0.5)
        assert first.task_cpu_seconds == pytest.approx(0.8)

    def test_workers_never_share_a_statistics_object(self):
        """Every task result carries its own object; the driver merges."""

        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        search = ParallelRepairSearch(instance, constraints, chunk_states=4)
        stats_objects = []
        total_states = 0
        for batch in search.batches():
            total_states = batch.states_explored
        # The aggregate equals the per-task sum, i.e. nothing was lost to
        # racy in-place sharing.
        assert search.statistics.states_explored == total_states
        assert total_states > 0

    def test_engine_statistics_are_aggregated(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        engine = RepairEngine(constraints, method=PARALLEL_METHOD, chunk_states=4)
        found = engine.repairs(instance)
        stats = engine.statistics
        assert stats.repairs_found == len(found) == 9
        assert stats.candidates_found == 9
        assert stats.states_explored > 0
        assert stats.violation_updates > 0
        assert stats.leq_d_comparisons > 0
        assert stats.search_seconds > 0


class TestAnytimeStream:
    def test_streams_every_repair_before_search_completes(self):
        """On a ≥100-repair instance the stream yields mid-search."""

        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=5, n_clean=8, seed=1
        )
        reference = RepairEngine(constraints, max_states=2_000_000).repairs(instance)
        assert len(reference) == 125
        search = ParallelRepairSearch(
            instance, constraints, max_states=2_000_000, chunk_states=50
        )
        stream = AnytimeRepairStream(search)
        streamed = list(stream)
        assert stream.ordered_repairs == reference
        assert {r.fact_set() for r in streamed} == {
            r.fact_set() for r in reference
        }
        assert stream.yields_before_completion > 0
        assert stream.states_at_first_yield < search.statistics.states_explored

    def test_stream_set_matches_on_insertion_workload(self):
        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=6, violation_ratio=0.5, null_ratio=0.3, seed=5
        )
        reference = RepairEngine(constraints).repairs(instance)
        search = ParallelRepairSearch(instance, constraints, chunk_states=6)
        stream = AnytimeRepairStream(search)
        streamed = list(stream)
        assert stream.ordered_repairs == reference
        assert len(streamed) == len(reference)

    def test_streamed_repairs_are_built_once(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        stream = AnytimeRepairStream(ParallelRepairSearch(instance, constraints))
        streamed = list(stream)
        assert stream.ordered_repairs == naive_repairs(instance, constraints)
        assert {id(r) for r in stream.ordered_repairs} == {id(r) for r in streamed}

    @pytest.mark.parametrize("degrade", [True, False])
    def test_proof_pass_checks_the_budget_per_candidate(self, degrade):
        """A budget spent mid-pass stops the proofs, as the search would."""

        from repro.errors import QueryCancelledError
        from repro.resilience import Budget

        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        budget = Budget(degrade=degrade)
        # One task covers the whole tree, so all 9 repairs arrive in one batch.
        stream = AnytimeRepairStream(
            ParallelRepairSearch(instance, constraints, budget=budget)
        )
        iterator = iter(stream)
        next(iterator)
        budget.cancel()
        if degrade:
            assert list(iterator) == []
            assert stream.degradation.reason == "cancelled"
            assert stream.degradation.proven == 1
            assert stream.ordered_repairs is None
        else:
            with pytest.raises(QueryCancelledError):
                next(iterator)

    def test_seeded_search_skips_the_sweep(self):
        from repro.core.repairs import ViolationTracker
        from repro.obs import metrics

        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=6, violation_ratio=0.5, null_ratio=0.3, seed=5
        )
        tracker = ViolationTracker(instance, constraints)
        sweeps = metrics.registry().get("repro_tracker_sweeps_total")
        before = sweeps.value
        seeded = ParallelRepairSearch(
            instance, constraints, chunk_states=6, seed_tracker=tracker
        ).collect()
        assert sweeps.value == before
        assert seeded == ParallelRepairSearch(instance, constraints, chunk_states=6).collect()

    def test_frontier_domination_certificate(self):
        fact = Fact("R", ("a", "b"))
        other = Fact("R", ("a", "c"))
        null_fact = Fact("R", ("a", NULL))
        # A frontier committed to a fact outside the candidate delta can
        # never dominate it.
        assert not frontier_could_dominate(
            frozenset({other}), frozenset({fact})
        )
        assert frontier_could_dominate(frozenset({fact}), frozenset({fact}))
        # Null atoms only need a same-non-null-projection cover.
        assert frontier_could_dominate(
            frozenset({null_fact}), frozenset({fact})
        )
        assert not frontier_could_dominate(
            frozenset({Fact("R", ("z", NULL))}), frozenset({fact})
        )

    def test_frontier_task_delta(self):
        task = FrontierTask(
            (0, 1),
            frozenset({Fact("Q", ("a", NULL))}),
            frozenset({Fact("E", ("a", "b"))}),
        )
        assert task.delta() == frozenset(
            {Fact("Q", ("a", NULL)), Fact("E", ("a", "b"))}
        )


RIC = parse_constraint("Course(i, c) -> Student(i, n)")
KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")


class TestSessionSurface:
    def make_grouped(self, **kwargs):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        return ConsistentDatabase(instance, constraints, method="direct", **kwargs)

    def test_iter_repairs_defaults_to_the_canonical_list(self):
        db = self.make_grouped(repair_mode="parallel")
        listed = list(db.iter_repairs())  # no stream unless asked for
        reference = naive_repairs(db.instance, db.constraints)
        assert listed == reference
        assert db.repairs_list("direct", db.config) == reference

    def test_stream_warms_the_repair_cache(self):
        db = self.make_grouped(repair_mode="parallel")
        list(db.iter_repairs(stream=True))
        query = parse_query("ans(e) <- Emp(e, d, s)")
        db.consistent_answers(query)
        stats = db.last_repair_statistics
        assert stats is not None and stats.repairs_found == 27
        # The answer call must have reused the streamed list: no second
        # enumeration ran, so the counters are still the stream's.
        assert db.cache_info().hits >= 1

    def test_stream_drained_after_a_write_caches_nothing(self):
        db = self.make_grouped()
        stream = db.iter_repairs(stream=True)
        next(stream)
        db.insert("Emp", ("late", "d", 1))  # the stream's generation is gone
        assert len(list(stream)) == 26
        assert not [key for key in db._cache._data if key[0] == "repairs"]
        assert db.repair_count() == 27

    def test_explicit_stream_matches_the_list(self):
        db = self.make_grouped()
        streamed = list(db.iter_repairs(stream=True))
        listed = list(db.iter_repairs(stream=False))
        assert {r.fact_set() for r in streamed} == {r.fact_set() for r in listed}

    def test_stream_requires_direct_method(self):
        db = self.make_grouped()
        with pytest.raises(ValueError, match="stream"):
            db.iter_repairs(method="program", stream=True)

    def test_certain_anytime_matches_standard(self):
        db = self.make_grouped(repair_mode="parallel")
        query = parse_query("ans(e) <- Emp(e, d, s)")
        refuted = parse_query("ans(d) <- Emp(e, d, s)")
        assert db.certain(query, ("e0",), anytime=True) is True
        assert db.certain(query, ("e0",)) is True
        assert db.certain(refuted, ("dept0_0",), anytime=True) is False
        assert db.certain(refuted, ("dept0_0",)) is False

    def test_certain_anytime_boolean_query(self):
        db = ConsistentDatabase(
            {"Course": [(21, "C15"), (34, "C18")], "Student": [(21, "Ann")]},
            [RIC],
            method="direct",
        )
        held = parse_query("ans() <- Student(i, n)")
        assert db.certain(held, anytime=True) == db.certain(held)

    def test_certain_anytime_through_auto_and_rewriting(self):
        db = ConsistentDatabase(
            {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]},
            [KEY],
            method="auto",
        )
        query = parse_query("ans(e) <- Emp(e, d)")
        assert db.certain(query, ("e2",), anytime=True) is True
        assert db.certain(query, ("e2",)) is True
        open_refuted = parse_query("ans(d) <- Emp(e, d)")
        assert db.certain(open_refuted, ("sales",), anytime=True) is False

    def test_config_carries_workers_and_anytime(self):
        db = self.make_grouped(repair_mode="parallel", workers=3, anytime=True)
        assert db.config.workers == 3
        assert db.config.anytime is True
        assert db.config.cache_key()[-1] == 3  # workers segment the cache
        with pytest.raises(TypeError, match="unknown CQA option"):
            db.consistent_answers(
                parse_query("ans(e) <- Emp(e, d, s)"), turbo=True
            )


class TestAutoPlansParallel:
    @staticmethod
    def cyclic(**kwargs):
        from repro.workloads import cyclic_ric_workload

        instance, constraints = cyclic_ric_workload(
            n_rows=6, violation_ratio=0.5, seed=2
        )
        return ConsistentDatabase(instance, constraints, method="auto", **kwargs)

    def test_plan_does_not_depend_on_workers(self):
        """One repair search runs either way: the plan picks no repair mode."""

        query = parse_query("ans(x) <- P(x, y)")  # cyclic RICs: unsupported
        pooled = self.cyclic(workers=4).explain(query)
        inline = self.cyclic().explain(query)
        assert pooled.method == inline.method == "direct"
        assert (pooled.costs, pooled.reason) == (inline.costs, inline.reason)
        assert not hasattr(pooled, "repair_mode")
        assert "parallel" not in pooled.costs

    def test_auto_with_workers_matches_direct(self):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        auto = ConsistentDatabase(instance, constraints, method="auto", workers=2)
        direct = ConsistentDatabase(instance, constraints, method="direct")
        query = parse_query("ans(e) <- Emp(e, d, s)")
        assert auto.consistent_answers(query) == direct.consistent_answers(query)
