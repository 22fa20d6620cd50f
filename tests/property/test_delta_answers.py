"""Answer sets decided from the repairs' deltas, pinned to per-repair evaluation.

The production repair search returns a
:class:`~repro.core.repairs.RepairSequence`: a base snapshot plus the
minimal ``(Δins, Δdel)`` of every repair, each repair built only on
access.  For a conjunctive query without negated atoms
``result_from_repairs`` decides the answers from those deltas — the
query's compiled plan over the envelope (the base plus every insertion),
then each answer against every repair's delta — and builds no repair.
``list(...)`` of the same sequence is a plain list of instances, which
takes the reference path (evaluate on every repair, intersect):

* **pin** — both paths give the same answers, or raise the same
  exception, on the certain-decision suite's cases and queries, on
  small versions of the end-to-end benchmark's three enumerating
  sessions, on the two corpus witnesses and on the two-atom fragment
  joins of a mixed schema, under both null conventions;
* **carried** — on the certain-decision suite's cases, a sequence the
  session carried across a write answers like the per-repair reference
  over a fresh search's repairs, under both null conventions;
* **fallback** — a comparison that raises on a match found only in the
  envelope gives the reference's result, or its exception;
* **the lazy sequence** — ``len()`` and ``repair_count()`` build no
  instance, answers build only the envelope, a repair read after a
  session write is the snapshot's, ``repair_count()`` equals the number
  of iterated repairs, and it equals the naive search's list, order
  included, from either side of ``==``.
"""

import pytest

from repro import ConsistentDatabase
from repro.constraints.atoms import BuiltinEvaluationError
from repro.constraints.factories import functional_dependency
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_constraints, parse_query
from repro.core.cqa import result_from_repairs
from repro.core.repairs import RepairEngine, RepairSequence
from repro.explore.sources.corpus import corpus_entries
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    independence_workload,
    scenarios,
)

from test_certain_decision import (
    CASES,
    CASE_IDS,
    NULL_CONVENTIONS,
    carried_session,
    outcome,
    queries_for,
)


def assert_pinned(instance, constraints, queries, null_is_unknown):
    """The delta path and the per-repair reference agree on every query."""

    repairs = RepairEngine(constraints).repairs(instance)
    assert isinstance(repairs, RepairSequence)
    materialised = list(repairs)
    for query in queries:
        fast = outcome(
            lambda: result_from_repairs(repairs, query, null_is_unknown=null_is_unknown)
        )
        reference = outcome(
            lambda: result_from_repairs(
                materialised, query, null_is_unknown=null_is_unknown
            )
        )
        if isinstance(reference, type):
            assert fast == reference, query
        else:
            assert fast.answers == reference.answers, query
            assert fast.repair_count == reference.repair_count == len(repairs)


@pytest.fixture
def builds(monkeypatch):
    """The instances built through ``with_delta`` (repairs and envelopes)."""

    built = []
    with_delta = DatabaseInstance.with_delta

    def counting(base, inserted, deleted):
        built.append((frozenset(inserted), frozenset(deleted)))
        return with_delta(base, inserted, deleted)

    monkeypatch.setattr(DatabaseInstance, "with_delta", counting)
    return built


# --------------------------------------------------------------------------- pin
@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_the_certain_decision_cases_agree(name, instance, constraints, null_is_unknown):
    assert_pinned(instance, constraints, queries_for(instance, constraints), null_is_unknown)


@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_a_carried_sequence_answers_like_a_fresh_search(
    name, instance, constraints, null_is_unknown
):
    db, carried = carried_session(instance, constraints)
    snapshot = db.snapshot()
    fresh = list(RepairEngine(constraints).repairs(snapshot))
    for query in queries_for(snapshot, constraints):
        fast = outcome(
            lambda: result_from_repairs(carried, query, null_is_unknown=null_is_unknown)
        )
        reference = outcome(
            lambda: result_from_repairs(fresh, query, null_is_unknown=null_is_unknown)
        )
        if isinstance(reference, type):
            assert fast == reference, query
        else:
            assert fast.answers == reference.answers, query
            assert fast.repair_count == reference.repair_count, query


EMP = parse_constraints(
    [
        "Emp(e, d, s), Emp(e, f, t) -> d = f",
        "Emp(e, d, s), Emp(e, f, t) -> s = t",
        "Emp(e, d, s) -> s > 0",
    ]
)
FOREIGN_KEY = parse_constraints(
    [
        "Child(c, p, d) -> Parent(p, q)",
        "Parent(p, q), Parent(p, r) -> q = r",
        "Parent(p, q), isnull(p) -> false",
    ]
)
CYCLIC = parse_constraints(["P(x, y) -> T(x)", "T(x) -> P(y, x)"])


def emp_session():
    """Key plus check: key cliques, a null salary beside a real one, a
    non-positive salary, clean rows with null salaries."""

    rows = [("dup0", "d1", 10), ("dup0", "d2", 20), ("dup0", "d3", 30)]
    rows += [("dup1", "d1", 40), ("dup1", "d4", 40)]
    rows += [("nd0", "d5", 50), ("nd0", "d5", None), ("neg", "d6", -5)]
    rows += [(f"e{i}", f"d{i % 3}", None if i % 4 == 0 else 10 * i + 10) for i in range(6)]
    return DatabaseInstance.from_dict({"Emp": rows}), EMP


def fk_session():
    """A foreign key with NOT NULL: a key conflict, a null parent id,
    null and dangling child references."""

    data = {
        "Parent": [("p0", "a"), ("p0", "b"), ("p1", "c"), (None, "n")],
        "Child": [
            ("c0", "p0", "x"), ("c1", "p1", None), ("c2", None, "y"),
            ("c3", "m3", "z"), ("c4", "m4", None), ("c5", "p1", "w"),
        ],
    }
    return DatabaseInstance.from_dict(data), FOREIGN_KEY


def cyclic_session():
    """The cyclic RIC of Example 18 with null witnesses: P(null, a) already
    witnesses T(a), T(t0) dangles, P(a2, a2) misses its T."""

    data = {
        "P": [("a0", "a0"), ("a1", "a1"), ("a2", "a2"), (None, "a1"), (None, "a3")],
        "T": [("a0",), ("a1",), ("t0",)],
    }
    return DatabaseInstance.from_dict(data), CYCLIC


SESSIONS = {"emp": emp_session, "fk": fk_session, "cyc": cyclic_session}

SESSION_QUERIES = {
    "emp": [
        "ans(e, d) <- Emp(e, d, s)",
        "ans(e) <- Emp(e, d, s)",
        "ans(d) <- Emp(e, d, s)",
        "ans(e, d, s) <- Emp(e, d, s)",
        "ans(s) <- Emp(e, d, s), s > 15",
        "ans(e, f) <- Emp(e, d, s), Emp(f, d, t), s < t",
        "ans() <- Emp(e, d, s), d = 'd1'",
    ],
    "fk": [
        "ans(c) <- Child(c, p, d)",
        "ans(c, p) <- Child(c, p, d)",
        "ans(c, q) <- Child(c, p, d), Parent(p, q)",
        "ans(p, q) <- Parent(p, q)",
        "ans(p) <- Child(c, p, d), Parent(p, q)",
        "ans() <- Child(c, p, d), Parent(p, q), q = 'a'",
    ],
    "cyc": [
        "ans(x) <- P(x, y)",
        "ans(x) <- T(x)",
        "ans(x, y) <- P(x, y), T(y)",
        "ans(y) <- P(x, y), T(x)",
        "ans() <- P(x, y), T(y)",
        "ans(x, x) <- P(x, y)",
    ],
}


@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_the_benchmark_session_shapes_agree(session, null_is_unknown):
    instance, constraints = SESSIONS[session]()
    queries = [parse_query(text) for text in SESSION_QUERIES[session]]
    assert len(RepairEngine(constraints).repairs(instance)) > 1
    assert_pinned(instance, constraints, queries, null_is_unknown)


CORPUS = [(path.stem, case) for path, case, _document in corpus_entries()]


@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("name,case", CORPUS, ids=[name for name, _ in CORPUS])
def test_the_corpus_witnesses_agree(name, case, null_is_unknown):
    db = case.session()
    queries = [case.query, *queries_for(db.instance, db.constraints)]
    assert_pinned(db.instance, db.constraints, queries, null_is_unknown)


FRAGMENT_JOINS = [
    parse_query("ans(c, q) <- Child(c, p, d), Parent(p, q)"),
    parse_query("ans(e, a) <- Emp(e, d, s), Log(i, e, a)"),
    parse_query("ans(e) <- Emp(e, d, s), Tag(e, l)"),
    parse_query("ans(q) <- Child(c, p, d), Parent(p, q)"),
    parse_query("ans() <- Child(c, p, d), Parent(p, q)"),
]


def mixed_session():
    """E11b's mixed schema at its smallest scale: ``Emp``/``Log``/``Tag``
    and ``Parent``/``Child``, keys and a foreign key whose repairs insert
    null-padded parents, so one witness can join a kept child with an
    inserted parent."""

    emp, _ = independence_workload(
        n_emp=12, n_log=8, violation_ratio=0.15, null_ratio=0.1, seed=17
    )
    family, family_constraints = foreign_key_workload(
        n_parents=4, n_children=8, violation_ratio=0.2, null_ratio=0.1, seed=17
    )
    data = {**emp.to_dict(), **family.to_dict()}
    data["Parent"] += [("p0", "alt0")]
    keys = functional_dependency("Emp", 3, determinant=[0], dependent=[1, 2], name="emp_key")
    return DatabaseInstance.from_dict(data), ConstraintSet([*keys, *family_constraints])


@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
def test_the_fragment_joins_agree(null_is_unknown):
    instance, constraints = mixed_session()
    repairs = RepairEngine(constraints).repairs(instance)
    assert any(inserted for inserted, _ in repairs.deltas)
    assert_pinned(instance, constraints, FRAGMENT_JOINS, null_is_unknown)


def test_a_witness_mixing_a_kept_fact_and_an_inserted_one_certifies():
    """``E(1, b)`` survives only where ``F(b, null)`` is inserted, ``E(1, a)``
    only where it is not: every repair keeps one witness of ``1``, and the
    two witnesses share no fact."""

    instance = DatabaseInstance.from_dict(
        {"E": [(1, "a"), (1, "b")], "F": [("a", 0)]}
    )
    constraints = parse_constraints(["E(k, v), E(k, w) -> v = w", "E(k, v) -> F(v, w)"])
    repairs = RepairEngine(constraints).repairs(instance)
    assert len(repairs) == 2
    query = parse_query("ans(k) <- E(k, v), F(v, w)")
    for null_is_unknown in NULL_CONVENTIONS:
        assert result_from_repairs(repairs, query, null_is_unknown).answers == {(1,)}
    assert result_from_repairs(repairs, parse_query("ans(w) <- E(k, v), F(v, w)")).answers == set()
    assert_pinned(instance, constraints, [query], False)


def test_answers_with_nulls_and_repeated_head_variables():
    instance = DatabaseInstance.from_dict(
        {"R": [("a", None), ("a", "b"), (None, None)], "S": [("c",)]}
    )
    constraints = parse_constraints(["R(x, y), R(x, z) -> y = z", "S(x) -> R(x, y)"])
    queries = [
        parse_query(text)
        for text in (
            "ans(x, y) <- R(x, y)",
            "ans(y, y) <- R(x, y)",
            "ans(x) <- R(x, y), y = y",
            "ans() <- R(x, y), S(x)",
            "ans(x, y) <- S(x), R(x, y)",
        )
    ]
    repairs = RepairEngine(constraints).repairs(instance)
    assert (NULL, NULL) in result_from_repairs(repairs, queries[0]).answers
    for null_is_unknown in NULL_CONVENTIONS:
        assert_pinned(instance, constraints, queries, null_is_unknown)


# --------------------------------------------------------------------------- fallback
KEY = parse_constraints(["Emp(e, d, s), Emp(e, f, t) -> d = f"])


def test_a_comparison_raising_only_in_the_envelope_gives_the_reference():
    """``5 < 'x'`` joins two facts no repair holds together: the envelope
    raises, every repair compares a fact with itself."""

    instance = DatabaseInstance.from_dict({"Emp": [("e1", "a", 5), ("e1", "b", "x")]})
    repairs = RepairEngine(KEY).repairs(instance)
    query = parse_query("ans(e) <- Emp(e, d, s), Emp(e, f, t), s < t")
    with pytest.raises(BuiltinEvaluationError):
        query.answers(instance)
    assert result_from_repairs(repairs, query).answers == set()
    assert result_from_repairs(list(repairs), query).answers == set()


def test_a_comparison_raising_in_a_repair_raises_like_the_reference():
    instance = DatabaseInstance.from_dict(
        {"Emp": [("e1", "a", 5), ("e1", "b", 6), ("e2", "c", "y")]}
    )
    repairs = RepairEngine(KEY).repairs(instance)
    query = parse_query("ans(e) <- Emp(e, d, s), Emp(f, g, t), s < t")
    with pytest.raises(BuiltinEvaluationError):
        result_from_repairs(list(repairs), query)
    with pytest.raises(BuiltinEvaluationError):
        result_from_repairs(repairs, query)


# --------------------------------------------------------------------------- the sequence
def test_length_and_answers_build_no_repair(builds):
    instance, constraints = emp_session()
    db = ConsistentDatabase(instance, constraints, method="direct")
    assert db.repair_count() == len(db.repairs_list("direct", db.config)) > 1
    assert builds == []
    db.consistent_answers(parse_query("ans(e, d) <- Emp(e, d, s)"))
    assert len(builds) == 1  # the envelope, base plus every insertion
    builds.clear()
    db.consistent_answers(parse_query("ans(e) <- Emp(e, d, s), not Emp(e, 'd1', 10)"))
    assert len(builds) == db.repair_count()  # negation: the reference path


def test_a_repair_read_after_a_write_is_the_snapshots():
    instance, constraints = fk_session()
    db = ConsistentDatabase(instance, constraints, method="direct")
    repairs = db.repairs_list("direct", db.config)
    before = [repair.fact_set() for repair in repairs]
    db.insert("Child", ("c9", "m9", "v"))
    db.delete("Child", ("c0", "p0", "x"))
    assert [repair.fact_set() for repair in repairs] == before
    assert [repair.fact_set() for repair in db.repairs_list("direct", db.config)] != before


def test_repair_count_is_the_number_of_iterated_repairs(all_scenarios):
    for name, scenario in sorted(all_scenarios.items()):
        db = ConsistentDatabase(scenario.instance, scenario.constraints)
        assert db.repair_count() == len(list(db.iter_repairs())), name


def test_the_sequence_equals_the_naive_list_from_both_sides():
    instance, constraints = grouped_key_workload(n_groups=2, group_size=3, n_clean=3, seed=4)
    production = RepairEngine(constraints).repairs(instance)
    naive = RepairEngine(constraints, method="naive").repairs(instance)
    assert isinstance(naive, list) and len(naive) == 9
    assert production == naive and naive == production
    assert not production != naive and not naive != production
    rotated = naive[1:] + naive[:1]
    assert production != rotated and rotated != production
    assert production[1:] == naive[1:] and isinstance(production[1:], RepairSequence)
    assert production[-1] == naive[-1]
    assert production != naive[:-1]
    assert production != "not a repair list"
