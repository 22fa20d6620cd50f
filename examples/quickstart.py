#!/usr/bin/env python3
"""Quickstart: a ``ConsistentDatabase`` session on the paper's running example.

The database violates the referential constraint
``Course(ID, Code) → ∃Name Student(ID, Name)`` (Example 14 of the paper):
course C18 is taught to student 34, who has no Student row.  The script
opens a session over the inconsistent database, inspects its violations
(maintained incrementally, not recomputed per call), walks the two
null-based repairs (Example 15), shows where one request spends its
time (EXPLAIN ANALYZE), answers a query consistently through
several engines, and then *fixes* the database through the session's
mutation surface — the warm violation tracker absorbs the insert and the
next answers reflect it immediately.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from repro import ConsistentDatabase, parse_constraint, parse_query


def main() -> None:
    db = ConsistentDatabase(
        {
            "Course": [(21, "C15"), (34, "C18")],
            "Student": [(21, "Ann"), (45, "Paul")],
        },
        [parse_constraint("Course(id, code) -> Student(id, name)", name="course_fk")],
    )

    print("Database:")
    print(db.instance.pretty())
    print()
    print(f"Session: {db!r}")
    print(f"Consistent under |=_N? {db.is_consistent()}")
    for violation in db.violations():
        print(f"  violation: {violation!r}")

    print("\nRepairs (Definition 7 — nulls fill the unknown attributes):")
    for index, repair in enumerate(db.iter_repairs(), start=1):
        print(f"--- repair {index} ---")
        print(repair.pretty())

    query = parse_query("ans(code) <- Course(id, code)")
    print(f"\nQuery: {query!r}")
    print(f"Planner's choice: {db.explain(query)!r}")
    print()
    print(db.explain(query, analyze=True, method="direct").render())
    print()
    for method in ("auto", "direct", "program", "sqlite"):
        answers = db.consistent_answers(query, method=method)
        print(f"Consistent answers ({method} engine): {sorted(answers)}")

    print("\nFixing the database through the session (one incremental update):")
    db.insert("Student", (34, "Zoe"))
    print(f"  consistent now? {db.is_consistent()}")
    print(f"  answers now: {sorted(db.consistent_answers(query))}")
    print(f"  cache: {db.cache_info()}")


if __name__ == "__main__":
    main()
