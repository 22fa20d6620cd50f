"""The disabled-budget overhead gate (≤ 5% on the E15 smoke sweep).

Same construction as the tracer's gate (``tests/obs/test_overhead.py``):
with no budget active every instrumented hot loop pays one
``active()`` call and one falsy check, so

    overhead ≤ (budget checks a budgeted run would make) × (disabled check cost)

The check count is measured by installing a counting stand-in budget
and running the E15 smoke workload; the per-check cost with a tight
loop.  The product must stay within 5% of the workload's best-of wall
time.
"""

import pytest

from repro.core.repairs import RepairEngine
from repro.core.satisfaction import all_violations
from repro.obs import clock
from repro.resilience import budget as budget_module
from repro.resilience import NULL_BUDGET, using_budget
from repro.workloads import grouped_key_workload

N_GROUPS = 5
MAX_OVERHEAD_FRACTION = 0.05
ATTEMPTS = 3
CHECK_LOOP = 50_000


class _CountingBudget:
    """Truthy stand-in that tallies every check the hot loops make."""

    deadline = max_states = max_memory = None
    degrade = False

    def __init__(self):
        self.checks = 0

    def __bool__(self):
        return True

    def charge_states(self, count=1):
        self.checks += 1

    def charge_memory(self, estimate):
        self.checks += 1

    def checkpoint(self):
        self.checks += 1

    def exhausted(self):
        self.checks += 1
        return None

    def remaining_seconds(self):
        return None

    def elapsed(self):
        return 0.0


def make_workload():
    instance, constraints = grouped_key_workload(
        n_groups=N_GROUPS, group_size=3, n_clean=4 * N_GROUPS, seed=3
    )

    def run():
        all_violations(instance, constraints)
        RepairEngine(constraints).repairs(instance)

    return run


def best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        started = clock.now()
        fn()
        best = min(best, clock.now() - started)
    return best


def disabled_check_cost(loops=CHECK_LOOP):
    """Best-of per-call seconds of the disabled-budget hot-loop probe."""

    def loop():
        for _ in range(loops):
            budget = budget_module.active()
            if budget:
                budget.checkpoint()

    return best_of(loop, reps=3) / loops


def test_disabled_budget_overhead_is_within_five_percent():
    run = make_workload()
    run()  # warm the compile memo and the instance indexes

    counting = _CountingBudget()
    with using_budget(counting):
        run()
    check_count = counting.checks
    assert check_count > 0, "the workload made no budget checks — the gate is vacuous"

    last_ratio = None
    for attempt in range(ATTEMPTS):
        baseline = best_of(run, reps=3)
        overhead = check_count * disabled_check_cost()
        last_ratio = overhead / baseline
        if last_ratio <= MAX_OVERHEAD_FRACTION:
            return
    pytest.fail(
        f"disabled budget checks cost {last_ratio:.1%} of the E15 smoke workload "
        f"({check_count} checks) — the ≤{MAX_OVERHEAD_FRACTION:.0%} gate failed "
        f"{ATTEMPTS} times"
    )


def test_disabled_path_is_the_shared_null_object():
    # The structural half of the gate: the disabled path must allocate
    # nothing — active() always returns the one module-level null budget.
    budgets = {id(budget_module.active()) for _ in range(100)}
    assert budgets == {id(NULL_BUDGET)}
