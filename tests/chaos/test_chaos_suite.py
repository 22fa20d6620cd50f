"""The chaos suite: every seeded fault schedule ends exact.

The library's one process pool is the sliced ``≤_D`` filter
(:func:`repro.core.parallel.parallel_minimal_flags`), and the autouse
``chaos_hygiene`` fixture lowers ``RepairEngine._PARALLEL_MINIMALITY_MIN``
so that every ``workers=2`` request on these small instances slices it.
The system invariant under test, per schedule:

* the run **terminates** (``max_faults`` bounds injection, and a lost
  slice is recomputed inline once, never resubmitted);
* the answer is **exact** — bit-identical to the fault-free run —
  whether workers raised, were killed or only slowed down;
* no worker process outlives the run, and the test started a pool
  (the ``chaos_hygiene`` fixture fails the test otherwise).

A handful of schedules run in tier-1 as a smoke; the full ≥50-schedule
matrix runs in CI's ``tests-chaos`` job under ``REPRO_CHAOS=1``.
"""

import pytest

from repro import ConsistentDatabase, parse_constraint
from repro.core.parallel import parallel_minimal_flags
from repro.core.repairs import minimal_flags_counted
from repro.resilience import FaultSpec, chaos, chaos_enabled

#: Two denials chained through ``Q``: per value, deleting ``P`` first and
#: then ``Q`` yields a candidate that deleting ``Q`` alone dominates, so
#: ``LINKS`` values give 3^LINKS candidates and 2^LINKS repairs.
CHAIN = [parse_constraint("P(x), Q(x) -> false"),
         parse_constraint("Q(x), R(x) -> false")]
LINKS = 4  # 81 candidates in 8 ≤_D slices on two workers, 16 repairs

requires_chaos = pytest.mark.skipif(
    not chaos_enabled(),
    reason="full chaos matrix runs under REPRO_CHAOS=1 (CI tests-chaos job)",
)


def make_rows(links=LINKS):
    return {predicate: [(f"a{i}",) for i in range(links)] for predicate in "PQR"}


@pytest.fixture(scope="module")
def exact_repairs():
    db = ConsistentDatabase(make_rows(), CHAIN, repair_mode="naive")
    return [repair.fact_set() for repair in db.iter_repairs()]


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


def run_schedule(seed: int, deltas) -> None:
    """One schedule against the sliced filter: flags and checks exact."""

    exact = minimal_flags_counted(deltas)
    with chaos(spec_for(seed)):
        got = parallel_minimal_flags(deltas, 2)
    assert got == exact, f"schedule {seed} changed the flags"


def run_session_schedule(seed: int, exact_repairs) -> None:
    """One schedule against a budgeted session request: the exact list.

    The generous deadline installs a live budget, so the filter polls it
    between slices without ever running out.
    """

    db = ConsistentDatabase(make_rows(), CHAIN, workers=2, deadline=60.0)
    with chaos(spec_for(seed)):
        got = [repair.fact_set() for repair in db.iter_repairs()]
    assert got == exact_repairs, f"schedule {seed} changed the repair list"


class TestChaosSmoke:
    """A handful of schedules that always run (tier-1)."""

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_schedule_is_exact(self, seed, mixed_verdict_deltas):
        run_schedule(seed, mixed_verdict_deltas)

    @pytest.mark.parametrize("seed", [7, 19])
    def test_session_schedule_is_exact(self, seed, exact_repairs):
        run_session_schedule(seed, exact_repairs)


@requires_chaos
class TestChaosMatrix:
    """The full matrix: ≥50 seeded schedules (CI: REPRO_CHAOS=1)."""

    @pytest.mark.parametrize("seed", range(1, 41))
    def test_schedule_is_exact(self, seed, mixed_verdict_deltas):
        run_schedule(seed, mixed_verdict_deltas)

    @pytest.mark.parametrize("seed", range(41, 56))
    def test_session_schedule_is_exact(self, seed, exact_repairs):
        run_session_schedule(seed, exact_repairs)
