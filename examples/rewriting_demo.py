"""First-order CQA rewriting, the planner and the engine registry.

The demo opens a :class:`ConsistentDatabase` session over a keyed
parent/child database with dozens of injected violations, lets
``method="auto"`` pick the polynomial rewriting (identical answers to
repair enumeration, orders of magnitude faster), shows how the session's
answer cache makes *repeated* queries nearly free, peeks at the
rewritten query itself — its residues, its first-order formula and its
SQL compilation — routes the same query through the ``"sqlite"`` engine
(evaluated entirely inside SQLite, behind the same front door), and
finally demonstrates the graceful fallback: on a RIC-cyclic constraint
set the planner refuses the rewriting and routes the call through repair
enumeration instead of raising.

Run with ``PYTHONPATH=src python examples/rewriting_demo.py``.
"""

import time

from repro import ConsistentDatabase, parse_query, rewrite_query
from repro.workloads import cyclic_ric_workload, foreign_key_workload, grouped_key_workload


def main() -> None:
    # ------------------------------------------------------------------ fast path
    instance, constraints = grouped_key_workload(n_groups=6, group_size=2, n_clean=30)
    db = ConsistentDatabase(instance, constraints)
    query = parse_query("ans(e, d, s) <- Emp(e, d, s)")

    graph = db.conflict_graph()
    print(f"instance: {len(db)} facts, {graph.violation_count} key conflicts, "
          f"~{graph.estimated_repair_count()} repairs if enumerated")

    print(f"planner: {db.explain(query)}")

    started = time.perf_counter()
    fast = db.consistent_answers(query)  # method="auto" is the session default
    fast_time = time.perf_counter() - started
    print(f"auto (rewriting): {len(fast)} certain answers in {fast_time * 1000:.1f} ms")

    started = time.perf_counter()
    slow = db.consistent_answers(query, method="direct")
    slow_time = time.perf_counter() - started
    print(f"direct (enumeration): {len(slow)} answers in {slow_time * 1000:.1f} ms "
          f"— {slow_time / fast_time:.0f}x slower, same result: {fast == slow}")

    started = time.perf_counter()
    again = db.consistent_answers(query)
    repeat_time = time.perf_counter() - started
    print(f"repeated query (warm session cache): {repeat_time * 1000:.3f} ms, "
          f"same result: {again == fast} — {db.cache_info()}")

    # ------------------------------------------------------------------ the rewriting
    fk_instance, fk_constraints = foreign_key_workload(
        n_parents=6, n_children=10, violation_ratio=0.3, null_ratio=0.2, seed=1
    )
    fk_db = ConsistentDatabase(fk_instance, fk_constraints)
    join = parse_query("ans(c) <- Child(c, p, d), Parent(p, q)")
    rewritten = rewrite_query(join, fk_constraints)
    print()
    print(rewritten.explain())
    print()
    print("as a first-order query:")
    print(f"  {rewritten.to_formula()!r}")
    print()
    print("compiled to SQL (runs entirely inside SQLite via the 'sqlite' engine):")
    print(f"  {rewritten.to_sql(fk_instance.schema)}")
    sql_answers = fk_db.consistent_answers(join, method="sqlite")
    assert sql_answers == fk_db.consistent_answers(join, method="rewriting")
    print(f"  -> {len(sql_answers)} certain answers, identical to the in-memory path")

    # ------------------------------------------------------------------ fallback
    cyc_instance, cyc_constraints = cyclic_ric_workload(n_rows=4, seed=2)
    cyc_db = ConsistentDatabase(cyc_instance, cyc_constraints)
    cyc_query = parse_query("ans(x) <- T(x)")
    print()
    print(f"cyclic RICs: planner falls back — {cyc_db.explain(cyc_query)}")
    report = cyc_db.report(cyc_query)
    print(f"auto still answers through {report.method}: "
          f"{sorted(report.answers)} ({report.repair_count} repairs enumerated)")


if __name__ == "__main__":
    main()
