"""The production repair search (``method="parallel"``).

Covers the depth-first search of :mod:`repro.core.parallel`:
bit-identical output against the naive reference (list equality —
same repairs, same discovery order), also when the search pauses every
few states, the size-pruned ``≤_D`` filter, the engine's statistics,
and the anytime stream/short-circuit surface of the session.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_query
from repro.core import parallel
from repro.core.parallel import (
    AnytimeRepairStream,
    ParallelRepairSearch,
    frontier_could_dominate,
)
from repro.core.repairs import (
    PARALLEL_METHOD,
    REPAIR_METHODS,
    RepairEngine,
    RepairSearchBudgetExceeded,
    RepairSequence,
    ViolationTracker,
    minimal_flags_counted,
    violation_choice_key,
)
from repro.core.satisfaction import Violation
from repro.engines import CQAConfig
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


def denial_chain(values):
    """``P(x), Q(x) → ⊥`` and ``Q(x), R(x) → ⊥`` over *values* constants.

    Each constant is repaired by deleting ``Q``, ``P`` and ``Q``, or
    ``P`` and ``R``, so there are ``3^values`` candidates, and the
    ``2^values`` that never delete both ``P`` and ``Q`` are the repairs.
    """

    instance = DatabaseInstance.from_dict(
        {predicate: [(f"a{i}",) for i in range(values)] for predicate in "PQR"}
    )
    return instance, [
        parse_constraint("P(x), Q(x) -> false"),
        parse_constraint("Q(x), R(x) -> false"),
    ]


class TestBitIdenticalOutput:
    @pytest.mark.parametrize("pause", [1, 3, 1024])
    def test_every_scenario_matches_naive_exactly(
        self, all_scenarios, pause, monkeypatch
    ):
        """Same repair *list* — contents and discovery order — per scenario."""

        monkeypatch.setattr(parallel, "PAUSE_STATES", pause)
        for name, scenario in sorted(all_scenarios.items()):
            if not scenario.constraints.is_non_conflicting():
                continue
            reference = naive_repairs(scenario.instance, scenario.constraints)
            found = parallel_repairs(scenario.instance, scenario.constraints)
            assert found == reference, f"scenario {name} diverged at pause={pause}"

    @pytest.mark.parametrize("pause", [5, 64])
    def test_grouped_key_workload_matches_naive(self, pause, monkeypatch):
        monkeypatch.setattr(parallel, "PAUSE_STATES", pause)
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=6, seed=3
        )
        reference = naive_repairs(instance, constraints)
        assert parallel_repairs(instance, constraints) == reference

    @pytest.mark.parametrize("pause", [5, 64])
    def test_foreign_key_workload_matches_naive(self, pause, monkeypatch):
        """RICs insert null witnesses, so subtrees reach shared states."""

        monkeypatch.setattr(parallel, "PAUSE_STATES", pause)
        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=7, violation_ratio=0.4, null_ratio=0.3, seed=1
        )
        reference = naive_repairs(instance, constraints)
        assert parallel_repairs(instance, constraints) == reference

    def test_production_filter_matches_naive_everywhere(self, all_scenarios):
        """Every scenario and null-heavy workload, order included."""

        cases = [
            (name, scenario.instance, scenario.constraints)
            for name, scenario in sorted(all_scenarios.items())
            if scenario.constraints.is_non_conflicting()
        ]
        for seed in range(3):
            cases.append(
                (f"foreign_key_{seed}",)
                + foreign_key_workload(
                    n_parents=4, n_children=8, violation_ratio=0.5,
                    null_ratio=0.5, seed=seed,
                )
            )
        # Chained denials: 27 candidates, 19 of them dominated.
        cases.append(("denial_chain",) + denial_chain(3))
        for name, instance, constraints in cases:
            reference = naive_repairs(instance, constraints)
            assert parallel_repairs(instance, constraints) == reference, (
                f"{name} diverged"
            )

    def test_method_validation(self):
        assert REPAIR_METHODS == (PARALLEL_METHOD, "naive")
        assert RepairEngine(ConstraintSet()).method == PARALLEL_METHOD
        for removed in ("incremental", "indexed"):
            with pytest.raises(ValueError, match=removed):
                RepairEngine(ConstraintSet(), method=removed)
        with pytest.raises(ValueError, match="turbo"):
            RepairEngine(ConstraintSet(), method="turbo")
        RepairEngine(ConstraintSet(), method=PARALLEL_METHOD)  # accepted

    def test_budget_caps_the_states_entered(self, monkeypatch):
        monkeypatch.setattr(parallel, "PAUSE_STATES", 4)
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        engine = RepairEngine(constraints, max_states=10)
        with pytest.raises(RepairSearchBudgetExceeded):
            engine.repairs(instance)
        assert engine.statistics.states_explored == 11


class TestMinimalityPruning:
    """``DeltaMinimality.dominated`` compares a candidate only with rivals
    whose null-free part is smaller than its delta and lies inside it."""

    def test_a_dominator_with_a_smaller_delta_is_found(self):
        """``{R(a)}`` strictly dominates ``{R(a), S(b, null)}`` although
        both null-free parts have size 1: the bound is on ``|∆(i)|``."""

        plain = frozenset({Fact("R", ("a",))})
        with_null = plain | {Fact("S", ("b", NULL))}
        assert minimal_flags_counted([plain, with_null]) == ([True, False], 2)
        assert minimal_flags_counted([with_null, plain]) == ([False, True], 2)

    def test_equal_size_candidates_make_no_comparisons(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        ordered = ParallelRepairSearch(instance, constraints).collect()
        deltas = [inserted | deleted for inserted, deleted in ordered]
        assert len(deltas) == 9
        assert minimal_flags_counted(deltas) == ([True] * 9, 0)

    def test_only_subset_rivals_are_compared(self):
        instance, constraints = denial_chain(3)
        engine = RepairEngine(constraints)
        assert engine.repairs(instance) == naive_repairs(instance, constraints)
        stats = engine.statistics
        assert (stats.candidates_found, stats.repairs_found) == (27, 8)
        assert stats.leq_d_comparisons == 38


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
        self, p_rows, r_rows, pause
    ):
        instance = DatabaseInstance.from_dict({"P": p_rows, "R": r_rows})
        reference = naive_repairs(instance, self.CONSTRAINTS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "PAUSE_STATES", pause)
            assert parallel_repairs(instance, self.CONSTRAINTS) == reference


class TestEngineStatistics:
    @pytest.fixture(autouse=True)
    def pause_every_four_states(self, monkeypatch):
        monkeypatch.setattr(parallel, "PAUSE_STATES", 4)

    def test_engine_statistics_are_the_searchs_own(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        engine = RepairEngine(constraints, method=PARALLEL_METHOD)
        found = engine.repairs(instance)
        stats = engine.statistics
        assert stats.repairs_found == len(found) == 9
        assert stats.candidates_found == 9
        assert stats.states_explored > 0
        assert stats.violation_updates == stats.states_explored - 1
        # Equal-size candidates: the size bound leaves no rival to compare.
        assert stats.leq_d_comparisons == 0
        assert stats.search_seconds > 0

    def test_engine_statistics_count_the_leq_d_checks(self):
        instance, constraints = denial_chain(3)
        engine = RepairEngine(constraints, method=PARALLEL_METHOD)
        found = engine.repairs(instance)
        stats = engine.statistics
        assert stats.repairs_found == len(found) == 8
        assert stats.candidates_found == 27
        assert stats.leq_d_comparisons > 0


class TestAnytimeStream:
    def test_streams_every_repair_before_search_completes(self, monkeypatch):
        """On a ≥100-repair instance the stream yields mid-search."""

        monkeypatch.setattr(parallel, "PAUSE_STATES", 50)
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=5, n_clean=8, seed=1
        )
        reference = RepairEngine(constraints, max_states=2_000_000).repairs(instance)
        assert len(reference) == 125
        search = ParallelRepairSearch(instance, constraints, max_states=2_000_000)
        stream = AnytimeRepairStream(search)
        streamed = list(stream)
        assert stream.ordered_repairs == reference
        assert {r.fact_set() for r in streamed} == {
            r.fact_set() for r in reference
        }
        assert stream.yields_before_completion > 0
        assert stream.states_at_first_yield < search.statistics.states_explored

    def test_stream_set_matches_on_insertion_workload(self, monkeypatch):
        monkeypatch.setattr(parallel, "PAUSE_STATES", 6)
        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=6, violation_ratio=0.5, null_ratio=0.3, seed=5
        )
        reference = RepairEngine(constraints).repairs(instance)
        search = ParallelRepairSearch(instance, constraints)
        stream = AnytimeRepairStream(search)
        streamed = list(stream)
        assert stream.ordered_repairs == reference
        assert len(streamed) == len(reference)

    def test_streamed_repairs_are_built_once(self, monkeypatch):
        built = []
        with_delta = DatabaseInstance.with_delta

        def counting(base, inserted, deleted):
            built.append(base)
            return with_delta(base, inserted, deleted)

        monkeypatch.setattr(DatabaseInstance, "with_delta", counting)
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        stream = AnytimeRepairStream(ParallelRepairSearch(instance, constraints))
        streamed = list(stream)
        assert len(built) == len(streamed) == 9
        # The drained stream keeps the proven deltas, not the instances.
        assert isinstance(stream.ordered_repairs, RepairSequence)
        assert len(stream.ordered_repairs) == 9 and len(built) == 9
        assert stream.ordered_repairs == streamed
        assert stream.ordered_repairs == naive_repairs(instance, constraints)

    def test_each_repair_is_handed_over_once_its_own_proof_finishes(self, monkeypatch):
        """The proof pass decides, materialises and yields one candidate at
        a time: the first repair arrives before a second one is decided."""

        decided = []
        dominated = parallel.DeltaMinimality.dominated

        def recording(context, index):
            decided.append(index)
            return dominated(context, index)

        monkeypatch.setattr(parallel.DeltaMinimality, "dominated", recording)
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        # One batch holding all 9 candidates, none of them dominated.
        iterator = iter(AnytimeRepairStream(ParallelRepairSearch(instance, constraints)))
        next(iterator)
        assert decided == [0]
        assert len(list(iterator)) == 8 and decided == list(range(9))

    @pytest.mark.parametrize("degrade", [True, False])
    def test_proof_pass_checks_the_budget_per_candidate(self, degrade):
        """A budget spent mid-pass stops the proofs, as the search would."""

        from repro.errors import QueryCancelledError
        from repro.resilience import Budget

        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        budget = Budget(degrade=degrade)
        # The search ends before its first pause, so all 9 repairs arrive
        # in one batch.
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

    def test_seeded_search_skips_the_sweep(self, monkeypatch):
        from repro.obs import metrics

        monkeypatch.setattr(parallel, "PAUSE_STATES", 6)
        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=6, violation_ratio=0.5, null_ratio=0.3, seed=5
        )
        tracker = ViolationTracker(instance, constraints)
        sweeps = metrics.registry().get("repro_tracker_sweeps_total")
        before = sweeps.value
        seeded = ParallelRepairSearch(
            instance, constraints, seed_tracker=tracker
        ).collect()
        assert sweeps.value == before
        assert seeded == ParallelRepairSearch(instance, constraints).collect()

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

    def test_a_refuted_anytime_certain_publishes_its_search(self):
        """An abandoned stream still reports the states its search entered."""

        from repro.obs import metrics

        instance, constraints = grouped_key_workload(n_groups=4, group_size=3, n_clean=100, seed=1)
        db = ConsistentDatabase(instance, constraints)
        states = metrics.registry().counter("repro_repair_states_explored_total")
        before = states.value
        refuted = parse_query("ans(d) <- Emp(e, d, s)")
        assert db.certain(refuted, ("dept0_0",), anytime=True) is False
        statistics = db.last_repair_statistics
        assert statistics is not None and statistics.states_explored > 0
        assert states.value - before == statistics.states_explored
        # Abandoned mid-stream: fewer repairs proven than the 81 there are,
        # and nothing cached as the repair list.
        assert statistics.repairs_found < 81
        assert not [key for key in db._cache._data if key[0] == "repairs"]

    def test_search_seconds_count_only_the_searchs_batches(self):
        """Not the proof passes or the consumer's time between pauses."""

        from repro.obs import trace

        instance, constraints = grouped_key_workload(n_groups=6, group_size=3, n_clean=40, seed=17)
        db = ConsistentDatabase(instance, constraints)
        with trace.tracing(True):
            trace.reset()
            with trace.span("stream"):
                assert len(list(db.stream_repairs())) == 729
            (root,) = trace.tracer().roots
        search_spans = [span for span in root.children if span.name == "repair.search"]
        assert len(search_spans) >= 2  # at least one pause before the end
        in_spans = sum(span.duration for span in search_spans)
        assert 0 < db.last_repair_statistics.search_seconds <= in_spans + 1e-3

    def test_config_carries_anytime(self):
        db = self.make_grouped(repair_mode="parallel", anytime=True)
        assert db.config.anytime is True
        with pytest.raises(TypeError, match="unknown CQA option"):
            db.consistent_answers(
                parse_query("ans(e) <- Emp(e, d, s)"), turbo=True
            )

    def test_the_session_ignores_workers(self):
        db = self.make_grouped(workers=2)
        assert db.config == self.make_grouped().config
        query = parse_query("ans(e) <- Emp(e, d, s)")
        with pytest.raises(TypeError, match="unknown CQA option"):
            db.report(query, workers=2)
        assert db.consistent_answers(query) == (
            self.make_grouped().consistent_answers(query)
        )
