"""Fault tolerance of the parallel repair search scheduler.

Worker crashes, injected exceptions and pool breakage must never change
the answer or leak a process: failed tasks are retried with backoff on a
respawned pool, repeat offenders run inline, and results stay
bit-identical to the no-fault run (task results are pure functions of
(task, chunk budget), so where a task runs can never matter).

Every test here must reach the pool, which starts only once the root
task's frontier splits: each asserts a pool start
(``instance_ship_bytes > 0``), from a chunk small enough for the root to
split or with ``_POOL_MIN_OPEN_TASKS`` lowered to 1 so that the root
task itself ships.
"""

import multiprocessing
import time

import pytest

from repro import parse_constraint
from repro.core.parallel import ParallelRepairSearch
from repro.relational.instance import DatabaseInstance
from repro.resilience import FaultSpec, RetryPolicy, chaos

KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")


def make_instance(pairs=6):
    return DatabaseInstance.from_dict(
        {"Emp": [(f"e{i}", d) for i in range(pairs) for d in ("a", "b")]}
    )


def expected_candidates(instance):
    return ParallelRepairSearch(instance, [KEY], workers=0, chunk_states=8).collect()


#: Fast-backoff policy so fault tests do not sleep their way through CI.
FAST_RETRY = RetryPolicy(backoff_base=0.001, backoff_max=0.01)


def assert_pool_started(search):
    assert search.statistics.instance_ship_bytes > 0, "the search never started a pool"


def advance_until_the_pool_starts(search, batches):
    """Drive the generator until its pool is up (the root runs inline)."""

    next(batches)
    while not search.statistics.instance_ship_bytes:
        next(batches)


def assert_no_leaked_children(grace=1.0):
    """Every pool child must be reaped shortly after a search ends."""

    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked worker processes: {leaked}"


class TestWorkerExceptions:
    def test_injected_exceptions_are_retried_to_the_same_answer(self):
        instance = make_instance()
        expected = expected_candidates(instance)
        with chaos(FaultSpec(seed=101, rate=0.3, kinds=("exception",),
                             max_faults=5)):
            search = ParallelRepairSearch(
                instance, [KEY], workers=2, chunk_states=8,
                retry_policy=FAST_RETRY,
            )
            got = search.collect()
        assert got == expected
        assert_pool_started(search)
        assert_no_leaked_children()

    def test_permanent_failure_quarantines_inline(self, pool_from_the_root):
        # rate=1.0, no fault cap: every pooled attempt of every task dies.
        # The scheduler must quarantine each task inline and still finish
        # with the exact answer.
        instance = make_instance(3)
        expected = expected_candidates(instance)
        with chaos(FaultSpec(seed=102, rate=1.0, kinds=("exception",),
                             max_faults=10**9)):
            search = ParallelRepairSearch(
                instance, [KEY], workers=2, chunk_states=8,
                retry_policy=FAST_RETRY,
            )
            got = search.collect()
        assert got == expected
        assert_pool_started(search)
        assert_no_leaked_children()


class TestWorkerKills:
    def test_killed_workers_respawn_and_finish(self):
        instance = make_instance()
        expected = expected_candidates(instance)
        with chaos(FaultSpec(seed=103, rate=0.2, kinds=("kill",), max_faults=2)):
            search = ParallelRepairSearch(
                instance, [KEY], workers=2, chunk_states=8,
                retry_policy=FAST_RETRY,
            )
            got = search.collect()
        assert got == expected
        assert_pool_started(search)
        assert_no_leaked_children()

    def test_respawn_exhaustion_falls_back_inline(self, pool_from_the_root):
        # Unlimited kills: pools keep breaking until the respawn allowance
        # runs out, then the whole frontier finishes inline — still exact.
        instance = make_instance(3)
        expected = expected_candidates(instance)
        with chaos(FaultSpec(seed=104, rate=1.0, kinds=("kill",),
                             max_faults=10**9)):
            search = ParallelRepairSearch(
                instance, [KEY], workers=2, chunk_states=8,
                retry_policy=RetryPolicy(backoff_base=0.001, backoff_max=0.01,
                                         max_pool_respawns=1),
            )
            got = search.collect()
        assert got == expected
        assert_pool_started(search)
        assert_no_leaked_children()


class TestMixedChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_mixed_fault_schedules_stay_exact(self, seed):
        instance = make_instance()
        expected = expected_candidates(instance)
        with chaos(FaultSpec(seed=seed, rate=0.15, max_faults=4)):
            search = ParallelRepairSearch(
                instance, [KEY], workers=2, chunk_states=8,
                retry_policy=FAST_RETRY,
            )
            got = search.collect()
        assert got == expected
        assert_pool_started(search)
        assert_no_leaked_children()


class TestPoolLifecycle:
    def test_close_is_idempotent(self):
        search = ParallelRepairSearch(make_instance(2), [KEY], workers=2,
                                      chunk_states=1)
        batches = search.batches()
        advance_until_the_pool_starts(search, batches)
        batches.close()
        search.close()
        search.close()  # second close is a no-op
        assert_no_leaked_children()

    def test_merge_error_reaps_the_pool(self):
        # A consumer exploding mid-iteration (any exception thrown into the
        # generator) must still reap the workers via the finally.
        search = ParallelRepairSearch(make_instance(), [KEY], workers=2,
                                      chunk_states=4)
        batches = search.batches()
        advance_until_the_pool_starts(search, batches)
        with pytest.raises(ValueError):
            batches.throw(ValueError("merge failed"))
        assert_no_leaked_children()

    def test_abandoned_generator_reaps_on_close(self):
        search = ParallelRepairSearch(make_instance(), [KEY], workers=2,
                                      chunk_states=4)
        batches = search.batches()
        advance_until_the_pool_starts(search, batches)
        del batches  # GeneratorExit through the finally
        assert_no_leaked_children()
