"""E11 — First-order rewriting vs. repair enumeration as violations scale.

Both enumeration strategies (``direct`` and ``program``) enumerate every
repair, so their cost grows with ``group_size ** n_groups`` on the keyed
workload of :func:`repro.workloads.grouped_key_workload`: ``program``
builds each repair and evaluates the query on it, ``direct`` decides the
answers from the repairs' deltas without building any.  The rewriting
of :mod:`repro.rewriting` computes the same consistent answers in one
polynomial pass.  The series sweeps the number of key violations and
reports, per point, the answer agreement and the wall-time of each
strategy; enumeration strategies are skipped (``—``) once their estimated
repair count exceeds their budget, while the rewriting keeps scaling.

Acceptance gate (checked by the report fixture): at (6, 3) — 72 key
violations, 729 repairs — the rewriting returns exactly the answers of
``direct`` and is at least 10× faster.  Every point where ``direct``
runs must agree with the rewriting.

Two more series run on a mixed schema shaped like the end-to-end
benchmark's ``rewrite_read`` session (keys on ``Emp`` and ``Parent``, a
foreign key ``Child → Parent``, constraint-free ``Log`` and ``Tag``):

* **two-atom fragment joins** — the rewriting of each join runs on the
  compiled executor of its base query.  Its answers equal ``direct``'s
  wherever enumeration is affordable, and the gate holds it, best of 3,
  to at most 5× the plain compiled join of the same query at about
  ``rewrite_read``'s size;
* **certain()** — deciding one candidate against testing its membership
  in the full answer report, after a write each, with the same verdict.
"""


import pytest

from repro import ConsistentDatabase
from repro.constraints.factories import functional_dependency
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_query
from repro.core.cqa import consistent_answers_report
from repro.core.satisfaction import all_violations
from repro.relational.instance import DatabaseInstance
from repro.rewriting import rewrite_query
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    independence_workload,
)
from harness import best_of, emit_json, now, print_table


QUERY = parse_query("ans(e, d, s) <- Emp(e, d, s)")

#: (n_groups, group_size) sweep; repairs = group_size ** n_groups.
FULL_SWEEP = [(2, 2), (4, 2), (6, 2), (5, 3), (6, 3), (40, 3), (200, 3)]
SMOKE_SWEEP = [(2, 2), (4, 2)]

DIRECT_BUDGET = 4_000  # max estimated repairs the direct engine is asked to chew
#: The (n_groups, group_size) point of the ≥10× gate.
GATE_POINT = (6, 3)
PROGRAM_BUDGET = 40  # the program route also pays grounding; keep it tiny


def _configurations(smoke: bool):
    return SMOKE_SWEEP if smoke else FULL_SWEEP


def _workload(n_groups: int, group_size: int):
    return grouped_key_workload(
        n_groups=n_groups, group_size=group_size, n_clean=40, seed=17
    )


@pytest.fixture(scope="module", autouse=True)
def report(request):
    smoke = request.config.getoption("--smoke", default=False)
    rows = []
    gate_checked = False
    for n_groups, group_size in _configurations(smoke):
        instance, constraints = _workload(n_groups, group_size)
        violations = len(all_violations(instance, constraints))
        expected_repairs = group_size ** n_groups

        started = now()
        rewriting = consistent_answers_report(
            instance, constraints, QUERY, method="rewriting"
        )
        rewriting_time = now() - started

        if expected_repairs <= DIRECT_BUDGET:
            started = now()
            direct = consistent_answers_report(instance, constraints, QUERY)
            direct_time = now() - started
            agree = "yes" if direct.answers == rewriting.answers else "NO"
            assert direct.answers == rewriting.answers
            speedup = direct_time / rewriting_time if rewriting_time > 0 else float("inf")
            if (n_groups, group_size) == GATE_POINT:
                # The acceptance gate of the rewriting subsystem.
                assert speedup >= 10.0, (
                    f"rewriting only {speedup:.1f}x faster at {violations} violations"
                )
                gate_checked = True
            direct_cell = f"{direct_time * 1000:.1f} ms"
            speedup_cell = f"{speedup:.0f}x"
        else:
            direct_cell, speedup_cell, agree = "—", "—", "—"

        if expected_repairs <= PROGRAM_BUDGET:
            started = now()
            program = consistent_answers_report(
                instance, constraints, QUERY, method="program"
            )
            program_time = now() - started
            assert program.answers == rewriting.answers
            program_cell = f"{program_time * 1000:.1f} ms"
        else:
            program_cell = "—"

        rows.append(
            [
                n_groups,
                group_size,
                violations,
                expected_repairs,
                len(rewriting.answers),
                agree,
                f"{rewriting_time * 1000:.1f} ms",
                direct_cell,
                program_cell,
                speedup_cell,
            ]
        )
    if not smoke:
        assert gate_checked, f"the sweep never reached the gate point {GATE_POINT}"
    headers = [
        "groups",
        "group size",
        "violations",
        "repairs",
        "certain answers",
        "agree",
        "rewriting",
        "direct",
        "program",
        "speedup",
    ]
    title = "E11: first-order rewriting vs. repair enumeration"
    print_table(title, headers, rows)
    emit_json(title, headers, rows)
    yield


#: The two-atom joins inside the rewriting fragment on the mixed schema.
FRAGMENT_JOINS = [
    parse_query("ans(c, q) <- Child(c, p, d), Parent(p, q)"),
    parse_query("ans(e, a) <- Emp(e, d, s), Log(i, e, a)"),
    parse_query("ans(e) <- Emp(e, d, s), Tag(e, l)"),
]

#: Mixed-schema scales: 1 keeps direct enumeration affordable (256
#: repairs); 30 is about ``rewrite_read``'s 3,400 facts.
FULL_SCALES = [1, 30]
SMOKE_SCALES = [1, 5]

JOIN_GATE = 5.0  # compiled rewriting / plain compiled join, best of 3


def _mixed(scale: int, seed: int = 17):
    """``Emp``/``Log``/``Tag`` and ``Parent``/``Child``, keys and a foreign key.

    Key conflicts on ``Emp`` (from the independence workload) and on
    every tenth parent, dangling and null child references, nulls.
    """

    emp, _ = independence_workload(
        n_emp=40 * scale, n_log=25 * scale, violation_ratio=0.15, null_ratio=0.1, seed=seed
    )
    family, family_constraints = foreign_key_workload(
        n_parents=10 * scale, n_children=20 * scale, violation_ratio=0.05,
        null_ratio=0.1, seed=seed,
    )
    data = {**emp.to_dict(), **family.to_dict()}
    data["Parent"] += [(f"p{i}", f"alt{i}") for i in range(0, 10 * scale, 10)]
    keys = functional_dependency("Emp", 3, determinant=[0], dependent=[1, 2], name="emp_key")
    return DatabaseInstance.from_dict(data), ConstraintSet([*keys, *family_constraints])


def _after_a_write(db, call):
    """*call*'s result and its best-of-3 time, each run at a fresh generation."""

    def written():
        db.insert("Child", ("written", "p0", "w"))
        db.delete("Child", ("written", "p0", "w"))
        started = now()
        result = call()
        return result, now() - started

    runs = [written() for _ in range(3)]
    return runs[0][0], min(elapsed for _, elapsed in runs)


@pytest.fixture(scope="module", autouse=True)
def fragment_report(request):
    smoke = request.config.getoption("--smoke", default=False)
    join_rows, certain_rows = [], []
    for scale in SMOKE_SCALES if smoke else FULL_SCALES:
        instance, constraints = _mixed(scale)
        db = ConsistentDatabase(instance, constraints)
        for query in FRAGMENT_JOINS:
            rewritten = rewrite_query(query, constraints)
            answers, rewriting_time = best_of(lambda: rewritten.answers(instance))
            _, join_time = best_of(lambda: query.answers(instance))
            session_answers, session_time = _after_a_write(
                db, lambda: db.consistent_answers(query)
            )
            assert session_answers == answers
            agree = "—"
            if scale == 1:
                direct = db.consistent_answers(query, method="direct")
                assert direct == answers, query
                agree = f"yes ({db.repair_count()} repairs)"
            ratio = rewriting_time / join_time
            # Wall-clock gates run in the full sweep only, and at its
            # largest scale: at 113 facts both sides take tens of
            # microseconds, too little to time a ratio.
            if not smoke and scale == FULL_SCALES[-1]:
                assert ratio <= JOIN_GATE, (
                    f"{query!r}: compiled rewriting {ratio:.1f}x the plain compiled join"
                )
            join_rows.append(
                [
                    len(instance), repr(query), len(answers), agree,
                    f"{rewriting_time * 1000:.2f} ms", f"{join_time * 1000:.2f} ms",
                    f"{ratio:.1f}x", f"{session_time * 1000:.2f} ms",
                ]
            )
        routes = [("auto (rewriting)", {})]
        if scale == 1:
            routes.append(("direct, anytime", {"method": "direct", "anytime": True}))
        for query in (parse_query("ans(e, d, s) <- Emp(e, d, s)"), FRAGMENT_JOINS[0]):
            answers = db.consistent_answers(query)
            held = sorted(answers, key=repr)[0]
            refuted = next(row for row in query.answers(instance) if row not in answers)
            for route, options in routes:
                for candidate in (held, refuted):
                    verdict, decided = _after_a_write(
                        db, lambda: db.certain(query, candidate, **options)
                    )
                    member, membership = _after_a_write(
                        db,
                        lambda: candidate in db.consistent_answers(
                            query, method=options.get("method", "auto")
                        ),
                    )
                    assert verdict == member == (candidate in answers), (query, candidate)
                    certain_rows.append(
                        [
                            len(instance), repr(query), route, verdict,
                            f"{decided * 1000:.2f} ms", f"{membership * 1000:.2f} ms",
                            f"{membership / decided:.0f}x",
                        ]
                    )
    title = "E11b: two-atom fragment joins on the compiled executor"
    headers = [
        "facts", "query", "answers", "== direct", "rewriting", "plain join",
        "ratio", "session, after a write",
    ]
    print_table(title, headers, join_rows)
    emit_json(title, headers, join_rows)
    title = "E11c: certain() decides the candidate vs. membership in the full report"
    headers = ["facts", "query", "route", "certain", "decision", "membership", "speedup"]
    print_table(title, headers, certain_rows)
    emit_json(title, headers, certain_rows)
    yield


@pytest.mark.parametrize("config", [(4, 2), (5, 3)])
def bench_rewriting(benchmark, config):
    instance, constraints = _workload(*config)
    result = benchmark(
        consistent_answers_report, instance, constraints, QUERY, method="rewriting"
    )
    assert result.answers


@pytest.mark.parametrize("config", [(4, 2)])
def bench_direct_enumeration(benchmark, config):
    instance, constraints = _workload(*config)
    result = benchmark.pedantic(
        consistent_answers_report,
        args=(instance, constraints, QUERY),
        rounds=3,
        iterations=1,
    )
    assert result.answers


def bench_rewriting_at_scale(benchmark):
    """The point enumeration cannot reach: 3^200 repairs, one SQL-free pass."""

    instance, constraints = _workload(200, 3)
    result = benchmark(
        consistent_answers_report, instance, constraints, QUERY, method="rewriting"
    )
    assert result.answers
