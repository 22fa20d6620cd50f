"""The chaos suite: every seeded fault schedule ends exact or flagged-partial.

The system invariant under test, per schedule:

* the run **terminates** (``max_faults`` bounds injection; retries,
  respawns and the inline quarantine bound the scheduler);
* the answer is **exact** — bit-identical to the fault-free run — or,
  under a ``degrade=True`` budget, a **flagged partial**: a subset of
  the exact repair set with ``last_degradation`` set;
* no worker process outlives the run, and some search of the test
  started a pool (the ``chaos_hygiene`` fixture fails the test
  otherwise).

A handful of schedules run in tier-1 as a smoke; the full ≥50-schedule
matrix runs in CI's ``tests-chaos`` job under ``REPRO_CHAOS=1``.
"""

import pytest

from repro import ConsistentDatabase, parse_constraint
from repro.core.parallel import ParallelRepairSearch
from repro.relational.instance import DatabaseInstance
from repro.resilience import FaultSpec, RetryPolicy, chaos, chaos_enabled

KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
PAIRS = 6  # 2^6 = 64 repairs, a dozen frontier tasks at chunk_states=8

#: Keep injected-failure backoffs negligible so 50+ schedules stay fast.
FAST_RETRY = RetryPolicy(backoff_base=0.001, backoff_max=0.01)

requires_chaos = pytest.mark.skipif(
    not chaos_enabled(),
    reason="full chaos matrix runs under REPRO_CHAOS=1 (CI tests-chaos job)",
)


def make_rows(pairs=PAIRS):
    return {"Emp": [(f"e{i}", d) for i in range(pairs) for d in ("a", "b")]}


def exact_candidates():
    instance = DatabaseInstance.from_dict(make_rows())
    return ParallelRepairSearch(instance, [KEY], workers=0, chunk_states=8).collect()


@pytest.fixture(scope="module")
def exact():
    return exact_candidates()


def spec_for(seed: int) -> FaultSpec:
    """Schedule *seed*, with rate and kinds varied across the matrix."""

    rates = (0.05, 0.15, 0.3)
    kind_sets = (("exception",), ("kill",), ("delay",),
                 ("exception", "kill", "delay"))
    return FaultSpec(
        seed=seed,
        rate=rates[seed % len(rates)],
        kinds=kind_sets[seed % len(kind_sets)],
        max_faults=3 + seed % 4,
        delay_seconds=0.001,
    )


def run_schedule(seed: int, exact) -> None:
    """One schedule against the raw search: must be exactly the baseline."""

    instance = DatabaseInstance.from_dict(make_rows())
    with chaos(spec_for(seed)):
        search = ParallelRepairSearch(
            instance, [KEY], workers=2, chunk_states=8, retry_policy=FAST_RETRY
        )
        got = search.collect()
    assert got == exact, f"schedule {seed} changed the answer"


def run_degraded_schedule(seed: int, exact) -> None:
    """One schedule against a degrade-budget stream: exact or flagged subset.

    The budget runs out inside the root task, before the frontier could
    split, so the tests run it with ``pool_from_the_root`` to reach the
    pool.
    """

    exact_deltas = {(inserted, deleted) for _, inserted, deleted in exact}
    db = ConsistentDatabase(make_rows(), [KEY], repair_mode="parallel", workers=2)
    base = set(db.instance.fact_set())
    with chaos(spec_for(seed)):
        yielded = list(
            db.iter_repairs(stream=True, max_states=40 + seed, degrade=True)
        )
    got_fact_sets = {r.fact_set() for r in yielded}
    exact_fact_sets = {
        frozenset((base - deleted) | inserted) for inserted, deleted in exact_deltas
    }
    if db.last_degradation is None:
        assert got_fact_sets == exact_fact_sets, f"schedule {seed}: wrong complete answer"
    else:
        assert got_fact_sets <= exact_fact_sets, f"schedule {seed}: unsound partial"
        assert db.last_degradation.reason in {
            "states", "deadline", "memory", "cancelled"
        }


class TestChaosSmoke:
    """A handful of schedules that always run (tier-1)."""

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_schedule_is_exact(self, seed, exact):
        run_schedule(seed, exact)

    @pytest.mark.parametrize("seed", [7, 19])
    def test_degraded_schedule_is_exact_or_flagged(
        self, seed, exact, pool_from_the_root
    ):
        run_degraded_schedule(seed, exact)


@requires_chaos
class TestChaosMatrix:
    """The full matrix: ≥50 seeded schedules (CI: REPRO_CHAOS=1)."""

    @pytest.mark.parametrize("seed", range(1, 41))
    def test_schedule_is_exact(self, seed, exact):
        run_schedule(seed, exact)

    @pytest.mark.parametrize("seed", range(41, 56))
    def test_degraded_schedule_is_exact_or_flagged(
        self, seed, exact, pool_from_the_root
    ):
        run_degraded_schedule(seed, exact)
