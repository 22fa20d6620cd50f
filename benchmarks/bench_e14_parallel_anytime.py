"""E14 — the ``≤_D`` filter and anytime streaming CQA.

After E12 (the delta-carrying production search against the naive
reference) and E13 (warm sessions) the repair search dominates every
workload the rewriting fragment cannot take.  The production search is
one mutate/undo depth-first search in the calling process that pauses
every 1,024 states to hand the anytime stream its new candidates and
its open frontier (see :mod:`repro.core.parallel`), and it filters its
candidates through the quadratic ``≤_D`` step,
:class:`~repro.core.repairs.DeltaMinimality`, which compares a candidate
only with the rivals whose null-free part is smaller than its delta and
lies inside it.  Per sweep point this experiment reports the candidates,
the ``≤_D`` checks actually made next to the ``n(n−1)`` a plain pairwise
filter would make, and the search/minimality split of one
``RepairEngine.repairs`` call.  The grouped-key points have
equal-size candidates that never dominate each other; the chained-denial
point (``P(x), Q(x) → ⊥``, ``Q(x), R(x) → ⊥``) has candidates that do.

Three contracts, checked in every configuration (smoke included):

* **exact repairs** — every sweep point yields exactly its known repair
  count (``group_size ** n_groups``, ``2 ** values``), and on the smoke
  sweep the same list, order included, as the naive reference; the
  production search equals the naive reference's list on every paper
  scenario;
* **identical answers** — consistent answers agree between the
  production search and ``repair_mode="naive"`` on every scenario;
* **anytime streaming** — on the 729-repair grouped-key instance, at
  the default pause, ``AnytimeRepairStream`` proves (and yields) its
  first repair strictly before the search completes.

There is no wall-clock gate: the timings are there to locate the cost
of a request, and the ``--smoke`` CI pass runs every identity assertion.
"""

import pytest

from repro.constraints.parser import parse_constraint
from repro.core.parallel import AnytimeRepairStream, ParallelRepairSearch
from repro.core.repairs import PARALLEL_METHOD, REPAIR_METHODS, RepairEngine
from repro.core.cqa import consistent_answers
from repro.constraints.terms import Variable
from repro.constraints.atoms import Atom
from repro.logic.queries import ConjunctiveQuery
from repro.relational.instance import DatabaseInstance
from repro.workloads import grouped_key_workload, scenarios
from harness import emit_json, now, print_table


#: Grouped-key sweep: (n_groups, group_size, n_clean).
#: Repairs per point: group_size ** n_groups, every candidate minimal.
FULL_SWEEP = [
    (5, 3, 40),
    (6, 3, 40),
    (7, 3, 40),
]
SMOKE_SWEEP = [(2, 2, 8), (3, 3, 6)]

#: Chained-denial point: constants per predicate.  3 ** values
#: candidates, of which the 2 ** values never deleting both ``P(a)``
#: and ``Q(a)`` are the repairs.
FULL_CHAIN = 7
SMOKE_CHAIN = 3

#: The streaming demonstration instance: 729 repairs over 1,821 states,
#: so the search pauses once at the default ``PAUSE_STATES``.
STREAM_CONFIG = (6, 3, 40)


def _workload(n_groups, group_size, n_clean):
    return grouped_key_workload(
        n_groups=n_groups, group_size=group_size, n_clean=n_clean, seed=17
    )


def _denial_chain(values):
    instance = DatabaseInstance.from_dict(
        {predicate: [(f"a{i}",) for i in range(values)] for predicate in "PQR"}
    )
    return instance, [
        parse_constraint("P(x), Q(x) -> false"),
        parse_constraint("Q(x), R(x) -> false"),
    ]


def _timed_repairs(instance, constraints, method):
    engine = RepairEngine(constraints, method=method, max_states=5_000_000)
    started = now()
    found = engine.repairs(instance)
    elapsed = now() - started
    return found, elapsed, engine.statistics


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
    points = [
        (f"grouped {n_groups}x{group_size}", _workload(n_groups, group_size, n_clean),
         group_size ** n_groups)
        for n_groups, group_size, n_clean in (SMOKE_SWEEP if smoke else FULL_SWEEP)
    ]
    values = SMOKE_CHAIN if smoke else FULL_CHAIN
    points.append((f"denial chain {values}", _denial_chain(values), 2 ** values))

    rows = []
    for name, (instance, constraints), expected in points:
        found, elapsed, stats = _timed_repairs(instance, constraints, PARALLEL_METHOD)
        assert len(found) == stats.repairs_found == expected, f"{name}: wrong repairs"
        if smoke:
            reference, _, _ = _timed_repairs(instance, constraints, "naive")
            assert found == reference, f"{name}: the production search diverged"
        candidates = stats.candidates_found
        rows.append(
            [
                name,
                len(instance),
                candidates,
                len(found),
                stats.states_explored,
                stats.leq_d_comparisons,
                candidates * (candidates - 1),
                f"{stats.search_seconds * 1000:.1f} ms",
                f"{stats.minimality_seconds * 1000:.1f} ms",
                f"{elapsed * 1000:.1f} ms",
            ]
        )

    headers = [
        "workload",
        "|D|",
        "candidates",
        "repairs",
        "states",
        "≤_D checks",
        "n(n−1)",
        "search",
        "≤_D",
        "total",
    ]
    title = "E14: repair enumeration, search vs the size-pruned ≤_D filter"
    print_table(title, headers, rows)
    emit_json(title, headers, rows)

    # ---------------------------------------------------------------- anytime
    # The streaming contract is timing-free and runs in every mode: on the
    # 729-repair instance the anytime certificate must prove its first
    # repair strictly before the search completes, and the stream must
    # end with exactly the enumerated repair list.
    instance, constraints = _workload(*STREAM_CONFIG)
    reference, _, _ = _timed_repairs(instance, constraints, PARALLEL_METHOD)
    assert len(reference) == 729
    search = ParallelRepairSearch(instance, constraints, max_states=5_000_000)
    stream = AnytimeRepairStream(search)
    streamed = list(stream)
    assert stream.ordered_repairs == reference
    assert {r.fact_set() for r in streamed} == {r.fact_set() for r in reference}
    assert stream.yields_before_completion > 0
    assert stream.states_at_first_yield < search.statistics.states_explored
    print_table(
        "E14b: anytime streaming on the 729-repair instance",
        ["repairs", "streamed early", "first yield at", "total states"],
        [
            [
                len(reference),
                stream.yields_before_completion,
                stream.states_at_first_yield,
                search.statistics.states_explored,
            ]
        ],
    )

    # ---------------------------------------------------------------- scenarios
    # Identity on every paper scenario: repairs bit-identical, answers equal.
    scenario_rows = []
    for name, scenario in sorted(scenarios.all_scenarios().items()):
        if not scenario.constraints.is_non_conflicting():
            continue
        reference = RepairEngine(scenario.constraints, method="naive").repairs(
            scenario.instance
        )
        parallel = RepairEngine(scenario.constraints).repairs(scenario.instance)
        assert parallel == reference, f"scenario {name}: the production search diverged"
        query = _scenario_query(scenario)
        answers = {
            mode: consistent_answers(
                scenario.instance, scenario.constraints, query, repair_mode=mode
            )
            for mode in REPAIR_METHODS
        }
        assert answers["naive"] == answers[PARALLEL_METHOD]
        scenario_rows.append([name, len(reference), len(answers["naive"]), "yes"])
    print_table(
        "E14c: production repairs and answers agree with naive on every scenario",
        ["scenario", "repairs", "certain answers", "agree"],
        scenario_rows,
    )

    yield


def bench_repair_enumeration(benchmark):
    instance, constraints = _workload(3, 3, 10)
    engine = RepairEngine(constraints, max_states=2_000_000)
    result = benchmark.pedantic(engine.repairs, args=(instance,), rounds=3, iterations=1)
    assert len(result) == 27


def bench_anytime_first_repair(benchmark):
    """Time to the *first proven* repair of the 729-repair instance."""

    instance, constraints = _workload(*STREAM_CONFIG)

    def first_repair():
        search = ParallelRepairSearch(instance, constraints, max_states=5_000_000)
        iterator = iter(AnytimeRepairStream(search))
        first = next(iterator)
        iterator.close()
        return first

    result = benchmark.pedantic(first_repair, rounds=3, iterations=1)
    assert result is not None
