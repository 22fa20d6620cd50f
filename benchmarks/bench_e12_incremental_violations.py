"""E12 — the production repair search against the naive reference.

The seed engine recomputed every constraint's violations from scratch at
every search state with unindexed nested-loop joins and copied the whole
instance per branch.  That path survives as ``RepairEngine(method="naive")``,
the reference the property suites pin the production search to.  This
experiment runs both as the instance size and the violation count scale:

* ``naive`` — full per-state recomputation, nested-loop joins, one
  instance copy per state, minimality through recomputed symmetric
  differences;
* ``parallel`` (the production search, run inline here) — one mutate/undo
  working instance whose violation set a :class:`ViolationTracker`
  maintains (one seeded per-constraint update per fact change), every
  candidate carried as its delta, ``≤_D`` decided on the deltas, and only
  the minimal ones materialised.

Both must return the same repair list, order included (asserted on every
sweep point, smoke included), and identical consistent answers on every
paper scenario.  On denial-only constraint sets such as the grouped-key
workload the production search also partitions sibling subtrees, so it
visits fewer states; the table shows both counts.  Acceptance gate, full
sweep only: at ``GATE_CONFIG`` (60 key violations) the production search
enumerates the repairs ≥ 5× faster than the naive reference.  The
``--smoke`` CI pass keeps every identity assertion but skips the
wall-clock gate — shared CI runners make timing ratios unreliable.
"""


import pytest

from repro.core.repairs import PARALLEL_METHOD, REPAIR_METHODS, RepairEngine
from repro.core.cqa import consistent_answers
from repro.core.satisfaction import all_violations
from repro.constraints.terms import Variable
from repro.logic.queries import ConjunctiveQuery
from repro.constraints.atoms import Atom
from repro.workloads import grouped_key_workload, scaled_course_student, scenarios
from harness import emit_json, now, print_table


#: Grouped-key sweep: (n_groups, group_size, n_clean).
#: Violations per point: n_groups · C(group_size, 2) · 2 FDs;
#: repairs: group_size ** n_groups.
FULL_SWEEP = [
    (2, 2, 10),
    (3, 3, 10),
    (5, 3, 10),
    (5, 3, 40),
    (5, 3, 80),
]
SMOKE_SWEEP = [(2, 2, 10), (3, 3, 5)]

#: The acceptance-gate configuration: 60 key violations, 243 repairs.
GATE_CONFIG = (5, 3, 40)
GATE_MIN_SPEEDUP = 5.0


def _workload(n_groups: int, group_size: int, n_clean: int):
    return grouped_key_workload(
        n_groups=n_groups, group_size=group_size, n_clean=n_clean, seed=17
    )


def _timed_repairs(instance, constraints, method):
    engine = RepairEngine(constraints, method=method, max_states=2_000_000)
    started = now()
    found = engine.repairs(instance)
    elapsed = now() - started
    return [r.fact_set() for r in found], elapsed, engine.statistics


def _scenario_query(scenario):
    """A select-all conjunctive query over the scenario's first relation."""

    predicate = scenario.instance.predicates[0]
    arity = scenario.instance.schema.arity(predicate)
    variables = tuple(Variable(f"x{i}") for i in range(arity))
    return ConjunctiveQuery(
        head_variables=variables,
        positive_atoms=(Atom(predicate, variables),),
    )


@pytest.fixture(scope="module", autouse=True)
def report(request):
    smoke = request.config.getoption("--smoke", default=False)
    sweep = SMOKE_SWEEP if smoke else FULL_SWEEP

    rows = []
    gate_checked = False
    for n_groups, group_size, n_clean in sweep:
        instance, constraints = _workload(n_groups, group_size, n_clean)
        violation_count = len(all_violations(instance, constraints))

        results = {}
        times = {}
        stats = {}
        for method in REPAIR_METHODS:
            results[method], times[method], stats[method] = _timed_repairs(
                instance, constraints, method
            )
        # The hard guarantee: the same repair list, order included.
        assert results[PARALLEL_METHOD] == results["naive"]

        fast = times[PARALLEL_METHOD]
        speedup = times["naive"] / fast if fast else float("inf")
        if not smoke and (n_groups, group_size, n_clean) == GATE_CONFIG:
            assert violation_count >= 30
            assert speedup >= GATE_MIN_SPEEDUP, (
                f"production search only {speedup:.1f}x faster than naive at "
                f"{violation_count} violations (need ≥ {GATE_MIN_SPEEDUP}x)"
            )
            gate_checked = True
        rows.append(
            [
                len(instance),
                violation_count,
                len(results["naive"]),
                stats["naive"].states_explored,
                stats[PARALLEL_METHOD].states_explored,
                f"{times['naive'] * 1000:.1f} ms",
                f"{fast * 1000:.1f} ms",
                f"{speedup:.1f}x",
                stats[PARALLEL_METHOD].violation_updates,
            ]
        )
    if not smoke:
        assert gate_checked, "the ≥30-violation acceptance gate never ran"

    headers = [
        "|D|",
        "violations",
        "repairs",
        "naive states",
        "states",
        "naive",
        "production",
        "naive/production",
        "tracker updates",
    ]
    title = "E12: the delta-carrying production repair search vs the naive reference"
    print_table(title, headers, rows)
    emit_json(title, headers, rows)

    # Consistent answers must be identical across both searches on every
    # paper scenario (the non-conflicting ones the engine supports).
    scenario_rows = []
    for name, scenario in sorted(scenarios.all_scenarios().items()):
        if not scenario.constraints.is_non_conflicting():
            continue
        query = _scenario_query(scenario)
        answers = {
            method: consistent_answers(
                scenario.instance, scenario.constraints, query, repair_mode=method
            )
            for method in REPAIR_METHODS
        }
        assert answers[PARALLEL_METHOD] == answers["naive"]
        scenario_rows.append([name, len(answers["naive"]), "yes"])
    print_table(
        "E12b: consistent answers agree across both searches on every scenario",
        ["scenario", "certain answers", "agree"],
        scenario_rows,
    )
    yield


@pytest.mark.parametrize("method", REPAIR_METHODS)
def bench_repair_enumeration_by_method(benchmark, method):
    instance, constraints = _workload(3, 3, 10)
    engine = RepairEngine(constraints, method=method, max_states=2_000_000)
    result = benchmark.pedantic(
        engine.repairs, args=(instance,), rounds=3, iterations=1
    )
    assert len(result) == 27


def bench_production_on_dangling_fk_chain(benchmark):
    """The production search on the scaled Example 14 (32 repairs)."""

    instance, constraints = scaled_course_student(
        n_courses=10, dangling_ratio=0.5, seed=3
    )
    engine = RepairEngine(constraints)
    result = benchmark(engine.repairs, instance)
    assert len(result) >= 1
