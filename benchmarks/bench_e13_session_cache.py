"""E13 — session plan/answer caching under repeated-query traffic.

The functional API rebuilds everything per call: each
``consistent_answers(...)`` re-plans, re-rewrites (or re-enumerates
repairs), and re-materialises conflict statistics.  A
:class:`repro.session.ConsistentDatabase` keeps all of that warm across
calls — plans with their rewritten queries cached per query, conflict
graphs, repair lists and answer sets per instance generation — which
is what a production deployment serving repeated
traffic actually does.

This experiment replays a repeated-query workload (five distinct
queries over the Parent/Child foreign-key schema, cycled for N calls,
``method="auto"`` throughout) twice:

* **cold** — the per-call functional API, one throwaway session per
  query (exactly what every caller did before the façade existed);
* **warm** — one long-lived session absorbing all N calls.

Identical answers are asserted on every single call, cold vs warm.
Acceptance gate, full sweep only: at the 50-call point the warm session
is ≥ 3× faster than the cold per-call API.  The ``--smoke`` CI pass
keeps every identity assertion but skips the wall-clock gate (shared
runners make timing ratios unreliable; the smoke contract is "same
answers", not "same speedup as the dev box").

A second table replays an insert/delete mutation trace against a warm
session and checks, step by step, that the generation-counter cache
invalidation plus the incrementally maintained violation tracker keep
the session's answers exactly equal to a cold recomputation over a
snapshot — the cross-call state is fast *and* never stale.
"""


import pytest

from repro import ConsistentDatabase
from repro.constraints.parser import parse_query
from repro.core.cqa import consistent_answers
from repro.core.satisfaction import all_violations
from repro.relational.instance import Fact
from repro.workloads import foreign_key_workload
from harness import emit_json, now, print_table


#: The repeated-traffic sweep: total query calls, cycling over QUERIES.
FULL_REPEATS = [1, 5, 10, 25, 50]
SMOKE_REPEATS = [1, 5]

GATE_REPEATS = 50
GATE_MIN_SPEEDUP = 3.0

QUERY_TEXTS = [
    "ans(c, p, d) <- Child(c, p, d)",
    "ans(p, q) <- Parent(p, q)",
    "ans(c) <- Child(c, p, d), Parent(p, q)",
    "ans(c, q) <- Child(c, p, d), Parent(p, q)",
    "ans(d) <- Child(c, p, d)",
]


def _workload():
    return foreign_key_workload(
        n_parents=25, n_children=80, violation_ratio=0.25, null_ratio=0.15, seed=17
    )


def _queries():
    return [parse_query(text) for text in QUERY_TEXTS]


def _run_cold(instance, constraints, queries, calls):
    answers = []
    started = now()
    for index in range(calls):
        query = queries[index % len(queries)]
        answers.append(consistent_answers(instance, constraints, query, method="auto"))
    return answers, now() - started


def _run_warm(instance, constraints, queries, calls):
    answers = []
    started = now()
    session = ConsistentDatabase(instance, constraints)  # construction included
    for index in range(calls):
        query = queries[index % len(queries)]
        answers.append(session.consistent_answers(query))
    elapsed = now() - started
    return answers, elapsed, session.cache_info()


@pytest.fixture(scope="module", autouse=True)
def report(request):
    smoke = request.config.getoption("--smoke", default=False)
    sweep = SMOKE_REPEATS if smoke else FULL_REPEATS

    instance, constraints = _workload()
    queries = _queries()

    rows = []
    gate_checked = False
    for calls in sweep:
        cold_answers, cold_time = _run_cold(instance, constraints, queries, calls)
        warm_answers, warm_time, cache = _run_warm(
            instance, constraints, queries, calls
        )
        # The hard guarantee: the warm session serves exactly the answers
        # the cold per-call API computes, on every single call.
        assert warm_answers == cold_answers

        speedup = cold_time / warm_time if warm_time else float("inf")
        if not smoke and calls == GATE_REPEATS:
            assert speedup >= GATE_MIN_SPEEDUP, (
                f"warm session only {speedup:.1f}x faster than the cold per-call "
                f"API at {calls} repeated queries (need ≥ {GATE_MIN_SPEEDUP}x)"
            )
            gate_checked = True
        rows.append(
            [
                calls,
                len(queries),
                f"{cold_time * 1000:.1f} ms",
                f"{warm_time * 1000:.1f} ms",
                f"{speedup:.1f}x",
                cache.hits,
                cache.misses,
            ]
        )
    if not smoke:
        assert gate_checked, "the 50-call acceptance gate never ran"

    headers = [
        "calls",
        "distinct queries",
        "cold (per-call API)",
        "warm (session)",
        "cold/warm",
        "cache hits",
        "cache misses",
    ]
    title = "E13: session plan/answer caching on repeated queries"
    print_table(title, headers, rows)
    emit_json(title, headers, rows)

    # ------------------------------------------------------------- mutations
    # A warm session absorbing writes must never serve stale answers: after
    # every mutation its (incrementally maintained) violations and its
    # (generation-invalidated) answers equal a cold recomputation.
    session = ConsistentDatabase(instance, constraints)
    for query in queries:
        session.consistent_answers(query)
    trace = [
        ("insert", Fact("Parent", ("p_new", "data_new"))),
        ("insert", Fact("Child", ("c_new", "p_new", "data_c"))),
        ("delete", Fact("Parent", ("p0", "data_p0"))),
        ("insert", Fact("Child", ("c_dangling", "missing_p", "d"))),
        ("delete", Fact("Child", ("c_new", "p_new", "data_c"))),
    ]
    mutation_rows = []
    for kind, fact in trace:
        applied = (session.insert if kind == "insert" else session.delete)(fact)
        snapshot = session.snapshot()
        assert set(session.violations()) == set(all_violations(snapshot, constraints))
        for query in queries:
            assert session.consistent_answers(query) == consistent_answers(
                snapshot, constraints, query, method="auto"
            )
        mutation_rows.append(
            [
                f"{kind} {fact!r}",
                "yes" if applied else "no-op",
                session.violation_count(),
                session.statistics.tracker_rebuilds,
                "yes",
            ]
        )
    assert session.statistics.tracker_rebuilds == 1  # never a full re-sweep
    print_table(
        "E13b: warm session stays exact under an insert/delete trace",
        ["mutation", "applied", "violations", "tracker rebuilds", "answers match cold"],
        mutation_rows,
    )
    yield


def bench_cold_repeated_queries(benchmark):
    instance, constraints = _workload()
    queries = _queries()
    answers, _ = benchmark(_run_cold, instance, constraints, queries, 10)
    assert len(answers) == 10


def bench_warm_session_repeated_queries(benchmark):
    instance, constraints = _workload()
    queries = _queries()
    answers, _, _ = benchmark(_run_warm, instance, constraints, queries, 10)
    assert len(answers) == 10
