"""Fault tolerance of the sliced ``≤_D`` filter, the library's one process pool.

Worker exceptions, kills and pool breakage must never change the flags
or leak a process: a slice that raised, and every unfinished slice of a
broken pool, is recomputed inline, and slice flags are a pure function
of the deltas.  Every test here asserts that a pool started (the
``pool_starts`` fixture records each one); the request-level tests reach
it through ``minimality_pool``, which lowers
``RepairEngine._PARALLEL_MINIMALITY_MIN``.
"""

import multiprocessing
import time

import pytest

import repro.core.parallel as parallel_module
from repro.core.parallel import parallel_minimal_flags
from repro.core.repairs import RepairEngine, minimal_flags_counted
from repro.constraints.parser import parse_constraint
from repro.errors import QueryCancelledError
from repro.relational.instance import DatabaseInstance
from repro.resilience import Budget, FaultSpec, chaos, using_budget

def assert_no_leaked_children(grace=1.0):
    """Every pool child must be reaped shortly after a filter returns."""

    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked worker processes: {leaked}"


def sliced_under(spec, deltas):
    with chaos(spec):
        return parallel_minimal_flags(deltas, 2)


class TestWorkerExceptions:
    def test_failed_slices_are_recomputed_to_the_same_flags(
        self, pool_starts, mixed_verdict_deltas
    ):
        spec = FaultSpec(seed=101, rate=0.3, kinds=("exception",), max_faults=5)
        got = sliced_under(spec, mixed_verdict_deltas)
        assert got == minimal_flags_counted(mixed_verdict_deltas)
        assert len(pool_starts) == 1
        assert_no_leaked_children()

    def test_permanent_failure_recomputes_every_slice_inline(
        self, pool_starts, mixed_verdict_deltas
    ):
        # rate=1.0, no fault cap: every slice raises in its worker.
        spec = FaultSpec(seed=102, rate=1.0, kinds=("exception",), max_faults=10**9)
        got = sliced_under(spec, mixed_verdict_deltas)
        assert got == minimal_flags_counted(mixed_verdict_deltas)
        assert len(pool_starts) == 1
        assert_no_leaked_children()


class TestWorkerKills:
    def test_a_killed_worker_loses_only_slices_recomputed_inline(
        self, pool_starts, mixed_verdict_deltas
    ):
        spec = FaultSpec(seed=103, rate=0.2, kinds=("kill",), max_faults=2)
        got = sliced_under(spec, mixed_verdict_deltas)
        assert got == minimal_flags_counted(mixed_verdict_deltas)
        assert len(pool_starts) == 1
        assert_no_leaked_children()

    def test_a_pool_broken_at_once_finishes_inline(
        self, pool_starts, mixed_verdict_deltas
    ):
        # Every slice kills its worker: the pool breaks on the first one
        # and the whole filter runs inline — no respawn, still exact.
        spec = FaultSpec(seed=104, rate=1.0, kinds=("kill",), max_faults=10**9)
        got = sliced_under(spec, mixed_verdict_deltas)
        assert got == minimal_flags_counted(mixed_verdict_deltas)
        assert len(pool_starts) == 1
        assert_no_leaked_children()


class TestMixedChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_mixed_fault_schedules_stay_exact(
        self, seed, pool_starts, mixed_verdict_deltas
    ):
        got = sliced_under(FaultSpec(seed=seed, rate=0.15, max_faults=4),
                           mixed_verdict_deltas)
        assert got == minimal_flags_counted(mixed_verdict_deltas)
        assert len(pool_starts) == 1
        assert_no_leaked_children()

    def test_a_request_under_faults_returns_the_naive_list(self, minimality_pool):
        # Chained denials: 81 candidates, of which 65 are dominated.
        constraints = [parse_constraint("P(x), Q(x) -> false"),
                       parse_constraint("Q(x), R(x) -> false")]
        instance = DatabaseInstance.from_dict(
            {predicate: [(f"a{i}",) for i in range(4)] for predicate in "PQR"}
        )
        reference = RepairEngine(constraints, method="naive").repairs(instance)
        assert len(reference) == 16
        with chaos(FaultSpec(seed=6, rate=0.5, max_faults=10**9)):
            got = RepairEngine(constraints, workers=2).repairs(instance)
        assert got == reference
        assert len(minimality_pool) == 1
        assert_no_leaked_children()


class TestPoolLifecycle:
    def test_a_budget_spent_mid_filter_cancels_the_rest_and_reaps(
        self, monkeypatch, pool_starts, mixed_verdict_deltas
    ):
        budget = Budget()
        waits = []
        real_wait = parallel_module.wait

        def cancel_while_waiting(*args, **kwargs):
            waits.append(1)
            budget.cancel()  # spent while the first slices run
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "wait", cancel_while_waiting)
        with using_budget(budget), pytest.raises(QueryCancelledError):
            parallel_minimal_flags(mixed_verdict_deltas, 2)
        assert len(pool_starts) == 1
        assert waits == [1]  # the next check between slices raised
        assert_no_leaked_children()

    def test_a_budget_spent_before_the_filter_starts_no_pool(
        self, pool_starts, mixed_verdict_deltas
    ):
        budget = Budget()
        budget.cancel()
        with using_budget(budget), pytest.raises(QueryCancelledError):
            parallel_minimal_flags(mixed_verdict_deltas, 2)
        assert pool_starts == []

    def test_an_error_while_waiting_reaps_the_pool(
        self, monkeypatch, pool_starts, mixed_verdict_deltas
    ):
        # Any exception escaping the wait loop still shuts the pool down.
        def exploding_wait(*args, **kwargs):
            raise ValueError("merge failed")

        monkeypatch.setattr(parallel_module, "wait", exploding_wait)
        with pytest.raises(ValueError):
            parallel_minimal_flags(mixed_verdict_deltas, 2)
        assert len(pool_starts) == 1
        assert_no_leaked_children()
