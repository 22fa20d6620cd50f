"""E15 — the compiled constraint/query kernel vs the naive reference.

Before the compile layer, every violation sweep re-derived its join
schedule per call, copied a ``dict`` per candidate row and re-resolved
constants/repeated variables per match.  :mod:`repro.compile.kernel`
lowers each constraint once into a :class:`~repro.compile.plans.JoinPlan`
(compile-time schedule, slot-based bindings, specialised matchers,
pushed-down null guards), and :mod:`repro.compile.codegen` specialises
each plan to generated Python source (nested loops, inlined constants
and null guards) — the row-at-a-time executor every consumer uses.

This experiment sweeps the grouped-key workload (the E11/E12 scaling
instance: ``n_groups`` key-conflict groups over two FDs) and times the
violation-enumeration hot path two ways:

* **kernel** — ``all_violations(instance, constraints)`` (the default:
  compiled plans run by their generated executors);
* **naive** — ``all_violations(..., naive=True)`` (the reference:
  unindexed nested loops, never executing a compiled plan).

A second table does the same for conjunctive-query answering
(``ConjunctiveQuery.answers``), a third replays the repair search to
pin the end-to-end contract, and a fourth replays the mixed
:func:`harness.corpus_workload` (the pinned explorer corpus plus seeded
random scenarios — small, adversarial, null-heavy) on both paths.

**Identity assertions always run** (smoke mode included): both
violation paths return the same violation sets at every sweep point,
both query paths the same answer sets, and the production repair
search, built on the kernel, returns a repair list bit-for-bit
identical — order included — to ``naive``, which never touches the
kernel.  Acceptance gate, full sweep only, at the sweep's largest
point: the kernel is ≥ 10× faster than **naive** (the ``--smoke`` CI
pass keeps the assertions but skips the in-test wall-clock gate — the
CI gate instead reads the emitted JSON headline through ``python -m
benchmarks.report --check-gates``, which is why the smoke sweep point
is sized so its ratio clears the gate with margin).

The compile-once contract (a session compiles each constraint set at
most once, ever) is asserted here *and* in the tier-1 suite
(``tests/core/test_session.py::TestCompiledPlans``).
"""


import pytest

from repro.compile import codegen
from repro.compile.kernel import compiler_statistics
from repro.constraints.parser import parse_query
from repro.core.repairs import RepairEngine
from repro.core.satisfaction import all_violations
from repro.workloads import grouped_key_workload
from harness import best_of, corpus_workload, emit_json, print_table


FULL_SWEEP = [10, 25, 60, 100]
SMOKE_SWEEP = [25]

GATE_MIN_NAIVE_SPEEDUP = 10.0  # naive → kernel (the JSON headline gate)

QUERY_TEXTS = [
    "ans(e, d, s) <- Emp(e, d, s)",
    "ans(e) <- Emp(e, d, s), Emp(e, f, t), d != f",
    "ans(d) <- Emp(e, d, s), s > 100",
]


def _workload(n_groups):
    return grouped_key_workload(
        n_groups=n_groups, group_size=3, n_clean=4 * n_groups, seed=3
    )


def _best_of(fn, reps):
    _, best = best_of(fn, reps)
    return best


@pytest.fixture(scope="module", autouse=True)
def report(request):
    smoke = request.config.getoption("--smoke", default=False)
    sweep = SMOKE_SWEEP if smoke else FULL_SWEEP

    # ------------------------------------------------------------- violations
    rows = []
    gate_naive_speedup = None
    for n_groups in sweep:
        instance, constraints = _workload(n_groups)

        def _sweep_kernel():
            return all_violations(instance, constraints)

        def _sweep_naive():
            return all_violations(instance, constraints, naive=True)

        found = _sweep_kernel()
        # The hard guarantee, asserted in smoke mode too: identical
        # violation sets (and no duplicates) on both paths.
        assert set(found) == set(_sweep_naive())
        assert len(found) == len(set(found))

        t_kernel = _best_of(_sweep_kernel, 12)
        t_naive = _best_of(_sweep_naive, 2)
        naive_speedup = t_naive / t_kernel if t_kernel else float("inf")
        gate_naive_speedup = naive_speedup  # the sweep is ascending: last point gates
        rows.append(
            [
                n_groups,
                len(found),
                f"{t_naive * 1000:.1f} ms",
                f"{t_kernel * 1000:.2f} ms",
                f"{naive_speedup:.1f}x",
            ]
        )
    if not smoke:
        assert (
            gate_naive_speedup is not None
            and gate_naive_speedup >= GATE_MIN_NAIVE_SPEEDUP
        ), (
            f"kernel only {gate_naive_speedup:.1f}x faster than the "
            f"naive violation enumeration at the largest sweep point "
            f"(need ≥ {GATE_MIN_NAIVE_SPEEDUP}x)"
        )
    title = "E15: compiled kernel vs naive violation enumeration"
    headers = [
        "key groups",
        "violations",
        "naive",
        "kernel (codegen)",
        "naive/kernel",
    ]
    print_table(title, headers, rows)
    emit_json(title, headers, rows)

    # ------------------------------------------------------------- queries
    instance, constraints = _workload(sweep[-1])
    queries = [parse_query(text) for text in QUERY_TEXTS]
    query_rows = []
    for query in queries:
        compiled_answers = query.answers(instance)
        assert compiled_answers == query.answers(instance, naive=True)
        t_compiled = _best_of(lambda: query.answers(instance), 12)
        t_naive = _best_of(lambda: query.answers(instance, naive=True), 2)
        query_rows.append(
            [
                repr(query),
                len(compiled_answers),
                f"{t_naive * 1000:.2f} ms",
                f"{t_compiled * 1000:.2f} ms",
                f"{(t_naive / t_compiled if t_compiled else float('inf')):.1f}x",
            ]
        )
    print_table(
        "E15b: compiled vs naive conjunctive-query answering",
        ["query", "answers", "naive", "compiled", "speedup"],
        query_rows,
    )

    # ------------------------------------------------------------- repairs
    # End-to-end: the production repair search, which executes compiled
    # plans, returns a repair list bit-for-bit identical (order included)
    # to the naive mode, which never touches the kernel.  Always asserted.
    small_instance, small_constraints = _workload(3)
    reference = RepairEngine(small_constraints, method="naive").repairs(small_instance)
    engine = RepairEngine(small_constraints)
    found = engine.repairs(small_instance)
    assert [r.fact_set() for r in found] == [r.fact_set() for r in reference]
    repair_rows = [[engine.method, len(found), engine.statistics.states_explored, "yes"]]
    print_table(
        "E15c: repair lists identical across kernel and naive engines",
        ["method", "repairs", "states", "list == naive (incl. order)"],
        repair_rows,
    )

    # ------------------------------------------------------------- corpus
    # The mixed corpus workload: every pinned explorer witness plus a
    # handful of seeded random scenarios — null-heavy, adversarial
    # shapes the grouped-key generator never produces.  The kernel must
    # agree with naive on violations and on query answers, case by case.
    corpus_rows = []
    for case in corpus_workload():
        case_violations = all_violations(case.instance, case.constraints)
        assert set(case_violations) == set(
            all_violations(case.instance, case.constraints, naive=True)
        )
        case_answers = case.query.answers(case.instance)
        assert case_answers == case.query.answers(case.instance, naive=True)
        corpus_rows.append(
            [
                case.name,
                case.source,
                len(case.instance),
                len(list(case.constraints)),
                len(case_violations),
                len(case_answers),
                "yes",
            ]
        )
    print_table(
        "E15d: kernel and naive agree on the corpus workload",
        ["case", "source", "facts", "ICs", "violations", "answers", "agree"],
        corpus_rows,
    )

    # ------------------------------------------------------------- compile-once
    # The whole experiment — every sweep point, every path, the repair
    # searches — compiled each distinct constraint set exactly once: the
    # grouped-key generator emits structurally identical (equal) sets,
    # so the process-wide memo collapses them to the first compilation.
    # The codegen layer shares the memo's lifetime: each plan's executor
    # is generated at most once, process-wide.
    stats = compiler_statistics()
    assert stats.programs_compiled <= stats.constraints_compiled
    generated = codegen.codegen_statistics()
    assert generated.plans_generated > 0
    assert generated.source_bytes > 0
    yield


def bench_compiled_violation_enumeration(benchmark):
    instance, constraints = _workload(25)
    all_violations(instance, constraints)  # compile + warm indexes
    result = benchmark(all_violations, instance, constraints)
    assert result


def bench_compiled_query_answers(benchmark):
    instance, _ = _workload(25)
    query = parse_query("ans(e) <- Emp(e, d, s), Emp(e, f, t), d != f")
    query.answers(instance)
    result = benchmark(query.answers, instance)
    assert result
