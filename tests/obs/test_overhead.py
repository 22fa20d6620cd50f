"""The disabled-tracer overhead gate (≤ 5% on the E15 smoke sweep).

The true uninstrumented baseline no longer exists in the tree, so the
gate bounds the overhead from above instead of differencing two runs
(which on shared CI runners is pure noise): a disabled ``trace.span``
call is one function call, one attribute check and the return of the
shared null span, so

    overhead ≤ (spans a traced run would open) × (disabled span cost)

Both factors are measured here — the span count by running the E15
smoke workload once with tracing on and counting nodes, the per-call
cost with a tight loop — and the product must stay within 5% of the
workload's best-of wall time.  A failing measurement re-runs a couple
of times to damp scheduler interference before it is allowed to fail.
"""

import pytest

from repro.core.repairs import RepairEngine
from repro.core.satisfaction import all_violations
from repro.obs import clock, trace
from repro.workloads import grouped_key_workload

#: The E15 smoke sweep point (``SMOKE_SWEEP = [5]`` with the experiment's
#: generator arguments).
N_GROUPS = 5

MAX_OVERHEAD_FRACTION = 0.05
ATTEMPTS = 3
SPAN_LOOP = 50_000


def make_workload():
    instance, constraints = grouped_key_workload(
        n_groups=N_GROUPS, group_size=3, n_clean=4 * N_GROUPS, seed=3
    )

    def run():
        all_violations(instance, constraints)
        RepairEngine(constraints).repairs(instance)

    return run


def count_spans(span):
    return 1 + sum(count_spans(child) for child in span.children)


def best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        started = clock.now()
        fn()
        best = min(best, clock.now() - started)
    return best


def disabled_span_cost(loops=SPAN_LOOP):
    """Best-of per-call seconds of ``trace.span`` with the tracer off."""

    def loop():
        for _ in range(loops):
            trace.span("overhead.probe")

    with trace.tracing(False):
        return best_of(loop, reps=3) / loops


def test_disabled_tracer_overhead_is_within_five_percent():
    run = make_workload()
    run()  # warm the compile memo and the instance indexes

    with trace.tracing(True):
        trace.reset()
        run()
        span_count = sum(count_spans(root) for root in trace.tracer().roots)
        trace.reset()
    assert span_count > 0, "the workload opened no spans — the gate is vacuous"

    last_ratio = None
    for attempt in range(ATTEMPTS):
        with trace.tracing(False):
            baseline = best_of(run, reps=3)
        overhead = span_count * disabled_span_cost()
        last_ratio = overhead / baseline
        if last_ratio <= MAX_OVERHEAD_FRACTION:
            return
    pytest.fail(
        f"disabled tracer costs {last_ratio:.1%} of the E15 smoke workload "
        f"({span_count} spans) — the ≤{MAX_OVERHEAD_FRACTION:.0%} gate failed "
        f"{ATTEMPTS} times"
    )


def test_disabled_span_is_the_shared_null_object():
    # The structural half of the gate: the disabled path must allocate
    # nothing — every call returns the one module-level null span.
    with trace.tracing(False):
        spans = {id(trace.span(f"name-{index}")) for index in range(100)}
    assert len(spans) == 1
