"""``certain(q, t)`` decides ``t`` alone and agrees with ``t ∈ consistent_answers(q)``.

* **kernel** — ``answers(..., candidate=t)`` equals ``{t}`` or ``∅`` by
  membership in the naive reference's answer set, both on an instance
  that holds its hash indexes (the head values pre-bound into the index
  probes) and on a fresh ``with_delta`` copy that holds none (the head
  values compared in the row loop), and it builds no index the answer
  set would not build;
* **engines** — on every paper scenario, on generated workloads and on
  the random instances of ``test_rewriting_properties.py``, under both
  null conventions, every engine's ``certain()`` agrees with membership
  in that engine's own consistent answers (or raises what they raise):
  direct with and without ``anytime``, program, rewriting, independent,
  auto and sqlite.  Candidates include nulls, repeated head variables
  with equal and with unequal values and wrong arities; queries include
  boolean ones, comparisons, negated atoms and first-order formulas;
* **fragment joins** — the compiled rewriting, its ``to_formula()``
  rendering and direct enumeration agree on the three two-atom fragment
  queries over keys and a foreign key;
* **repairs** — an anytime decision over a cached repair list builds no
  index on any repair and attaches nothing to any repair;
* **held deltas** — after a write the session's held repairs carry
  across, an anytime ``certain()`` (decided from the deltas for a
  negation-free conjunctive query, over the held list otherwise) is
  membership in the naive search's answer set, and runs no search.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConsistentDatabase
from repro.constraints.atoms import Atom, Comparison
from repro.constraints.ic import ConstraintSet, IntegrityConstraint
from repro.constraints.parser import parse_constraint, parse_query
from repro.constraints.terms import Variable
from repro.core.cqa import consistent_answers
from repro.logic.formula import AtomFormula, ComparisonFormula, Exists, Not, conjunction
from repro.logic.queries import ConjunctiveQuery, FirstOrderQuery
from repro.obs import metrics
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.relational.schema import DatabaseSchema
from repro.rewriting import rewrite_query
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    independence_workload,
    key_violation_workload,
    scenarios,
)

from test_rewriting_properties import (
    CONSTRAINTS as CORE_CONSTRAINTS,
    KEY_ONLY,
    SUPPORTED_QUERIES,
    small_instances,
)

NULL_CONVENTIONS = [False, True]

ROUTES = {
    "direct": {"method": "direct"},
    "direct-anytime": {"method": "direct", "anytime": True},
    "program": {"method": "program"},
    "rewriting": {"method": "rewriting"},
    "independent": {"method": "independent"},
    "auto": {"method": "auto"},
    "sqlite": {"method": "sqlite"},
}

WORKLOADS = {
    "foreign_key_null_heavy": lambda: foreign_key_workload(
        n_parents=3, n_children=6, violation_ratio=0.5, null_ratio=0.4, seed=5
    ),
    "key_violation_null_heavy": lambda: key_violation_workload(
        n_rows=8, duplicate_ratio=0.4, null_ratio=0.4, seed=7
    ),
    "grouped_key": lambda: grouped_key_workload(
        n_groups=2, group_size=3, n_clean=4, seed=11
    ),
    "independence": lambda: independence_workload(
        n_emp=6, n_log=5, violation_ratio=0.3, null_ratio=0.3, seed=3
    ),
}


def all_cases():
    for name, scenario in sorted(scenarios.all_scenarios().items()):
        yield name, scenario.instance, scenario.constraints
    for name, factory in WORKLOADS.items():
        instance, constraints = factory()
        yield name, instance, constraints


CASES = list(all_cases())
CASE_IDS = [name for name, _, _ in CASES]


def _variables(count):
    return tuple(Variable(f"x{i}") for i in range(count))


def queries_for(instance, constraints):
    """Scans, projections, boolean and repeated-head queries per relation,
    a comparison and a negation per relation pair, the antecedent joins of
    the constraints (with their built-ins and negated consequents), and
    first-order formulas on small active domains."""

    queries = []
    predicates = instance.predicates
    for predicate in predicates:
        terms = _variables(instance.schema.arity(predicate))
        atom = Atom(predicate, terms)
        queries.append(ConjunctiveQuery(head_variables=terms, positive_atoms=(atom,)))
        queries.append(ConjunctiveQuery(head_variables=terms[:1], positive_atoms=(atom,)))
        queries.append(ConjunctiveQuery(head_variables=(), positive_atoms=(atom,)))
        queries.append(
            ConjunctiveQuery(head_variables=terms[:1] * 2, positive_atoms=(atom,))
        )
        if len(terms) >= 2:
            queries.append(
                ConjunctiveQuery(
                    head_variables=terms[:2],
                    positive_atoms=(atom,),
                    comparisons=(Comparison("!=", terms[0], terms[1]),),
                )
            )
        for other in predicates:
            if other != predicate and instance.schema.arity(other) == len(terms):
                queries.append(
                    ConjunctiveQuery(
                        head_variables=terms,
                        positive_atoms=(atom,),
                        negative_atoms=(Atom(other, terms),),
                    )
                )
                break
        if len(instance.active_domain(include_null=True)) <= 12 and len(terms) <= 2:
            rest = terms[1:]
            body = AtomFormula(atom)
            queries.append(
                FirstOrderQuery(terms[:1], Exists(rest, body) if rest else body)
            )
            if rest:
                queries.append(
                    FirstOrderQuery(
                        terms,
                        conjunction(
                            [body, Not(ComparisonFormula(Comparison("=", terms[0], terms[1])))]
                        ),
                    )
                )
    for constraint in constraints:
        if isinstance(constraint, IntegrityConstraint):
            head = tuple(sorted(constraint.body_variables(), key=lambda v: v.name))
            bound = tuple(a for a in constraint.head_atoms if a.variables() <= set(head))
            queries.append(
                ConjunctiveQuery(
                    head_variables=head[:2],
                    positive_atoms=constraint.body,
                    negative_atoms=bound,
                    comparisons=constraint.head_comparisons,
                )
            )
    return queries


def candidates_for(query, answers):
    """Up to four answers plus nulls, foreign values, Python ``None``,
    unequal values for a repeated head variable and wrong arities."""

    arity = len(query.head_variables)
    pool = sorted(answers, key=repr)[:4]
    found = list(pool)
    for answer in pool[:2]:
        if arity:
            found.append((NULL,) + answer[1:])
            found.append(("zz",) + answer[1:])
            found.append((None,) + answer[1:])
            found.append(answer[:-1])
        found.append(answer + ("extra",))
    if arity == 2 and query.head_variables[0] == query.head_variables[1]:
        values = sorted({value for answer in pool for value in answer}, key=repr)
        if len(values) >= 2:
            found.append((values[0], values[1]))
    if arity == 0:
        found.append(())
    return list(dict.fromkeys(found))


def unindexed(instance):
    """A copy of *instance* that holds no hash index, whatever other
    tests built on the original."""

    return DatabaseInstance(schema=instance.schema.copy(), facts=instance.facts())


def outcome(call):
    """A call's value, or the type of the exception it raised."""

    try:
        return call()
    except Exception as error:  # noqa: BLE001 — compared, not swallowed
        return type(error)


def assert_certain_matches_membership(instance, constraints, queries, null_is_unknown):
    """Per route, one session answers and another decides: the deciding
    session never holds an answer report that could serve its decisions."""

    for name, route in ROUTES.items():
        answering = ConsistentDatabase(instance, constraints)
        deciding = ConsistentDatabase(instance, constraints)
        for query in queries:
            reference = outcome(
                lambda: answering.consistent_answers(
                    query, null_is_unknown=null_is_unknown, **route
                )
            )
            pool = outcome(lambda: query.answers(instance, null_is_unknown=null_is_unknown))
            pool = set(pool) if isinstance(pool, frozenset) else set()
            if isinstance(reference, frozenset):
                pool |= reference
            for candidate in candidates_for(query, pool):
                # A fresh session per anytime decision: each one runs its
                # own stream instead of replaying a list an earlier one cached.
                db = ConsistentDatabase(instance, constraints) if route.get("anytime") else deciding
                got = outcome(
                    lambda: db.certain(
                        query, candidate, null_is_unknown=null_is_unknown, **route
                    )
                )
                if isinstance(reference, frozenset):
                    expected = candidate in reference
                else:
                    expected = reference
                assert got == expected, (name, query, candidate)


# --------------------------------------------------------------------------- kernel
@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_compiled_decision_is_membership_in_the_naive_answers(
    name, instance, constraints, null_is_unknown
):
    indexed = unindexed(instance)
    for predicate in indexed.predicates:  # build every index the session could hold
        list(indexed.tuples_matching(predicate, {0: NULL}))
    for query in queries_for(instance, constraints):
        if not isinstance(query, ConjunctiveQuery):
            continue
        naive = query.answers(instance, null_is_unknown, naive=True)
        for candidate in candidates_for(query, naive):
            expected = frozenset({candidate}) if candidate in naive else frozenset()
            for target in (indexed, unindexed(instance)):
                decided = query.answers(target, null_is_unknown, candidate=candidate)
                assert decided == expected, (query, candidate)


def test_the_candidate_is_probed_where_the_index_exists(monkeypatch):
    """Pre-bound into the index probe on an indexed instance, compared in
    the row loop of a scan on one without the index."""

    instance, _ = grouped_key_workload(n_groups=2, group_size=3, n_clean=20, seed=1)
    query = parse_query("ans(e, d) <- Emp(e, d, s)")
    held = sorted(query.answers(instance), key=repr)[0]
    probes = []
    original = DatabaseInstance.tuples_matching

    def recording(self, predicate, bound):
        probes.append(dict(bound))
        return original(self, predicate, bound)

    monkeypatch.setattr(DatabaseInstance, "tuples_matching", recording)
    bare = unindexed(instance)
    assert query.answers(bare, candidate=held) == {held}
    assert probes == [{}] and not bare.indexed("Emp")
    probes.clear()
    indexed = unindexed(instance)
    list(original(indexed, "Emp", {0: "e0"}))  # the index a session's plans build
    assert query.answers(indexed, candidate=held) == {held}
    assert probes == [{0: held[0], 1: held[1]}]


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_a_decision_builds_no_index_the_answer_set_would_not(name, instance, constraints):
    for query in queries_for(instance, constraints):
        if not isinstance(query, ConjunctiveQuery):
            continue
        answered = unindexed(instance)
        answers = query.answers(answered)
        for candidate in candidates_for(query, answers):
            decided = unindexed(instance)
            query.answers(decided, candidate=candidate)
            for predicate in instance.predicates:
                if decided.indexed(predicate):
                    assert answered.indexed(predicate), (query, candidate, predicate)


# --------------------------------------------------------------------------- engines
@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_every_engine_decides_like_membership(name, instance, constraints, null_is_unknown):
    queries = queries_for(instance, constraints)
    assert_certain_matches_membership(instance, constraints, queries, null_is_unknown)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances(), st.sampled_from(NULL_CONVENTIONS))
def test_every_engine_decides_like_membership_on_random_instances(instance, null_is_unknown):
    for constraints in (CORE_CONSTRAINTS, KEY_ONLY):
        assert_certain_matches_membership(
            instance, constraints, SUPPORTED_QUERIES, null_is_unknown
        )


# --------------------------------------------------------------------------- fragment joins
FRAGMENT_SCHEMA = DatabaseSchema.from_dict(
    {
        "Emp": ["eid", "dept", "salary"],
        "Parent": ["pid", "name"],
        "Child": ["cid", "pid", "data"],
        "Log": ["id", "actor", "action"],
        "Tag": ["eid", "label"],
    }
)

FRAGMENT_CONSTRAINTS = ConstraintSet(
    [
        parse_constraint("Emp(e, d, s), Emp(e, f, t) -> d = f"),
        parse_constraint("Emp(e, d, s), Emp(e, f, t) -> s = t"),
        parse_constraint("Child(c, p, d) -> Parent(p, q)"),
        parse_constraint("Parent(p, q), Parent(p, r) -> q = r"),
        parse_constraint("Parent(p, q), isnull(p) -> false"),
    ]
)

#: The two-atom fragment queries of the compiled-executor item in ROADMAP.md.
FRAGMENT_JOINS = [
    parse_query("ans(c, q) <- Child(c, p, d), Parent(p, q)"),
    parse_query("ans(e, a) <- Emp(e, d, s), Log(i, e, a)"),
    parse_query("ans(e) <- Emp(e, d, s), Tag(e, l)"),
]

KEYS = st.sampled_from(["k1", "k2", NULL])
DATA = st.sampled_from(["u", "v", NULL])


@st.composite
def fragment_instances(draw):
    """A few rows per relation over a tiny domain, key conflicts and nulls included."""

    def rows(*columns):
        return draw(st.lists(st.tuples(*columns), max_size=3))

    return DatabaseInstance.from_dict(
        {
            "Emp": rows(KEYS, DATA, DATA),
            "Parent": rows(KEYS, DATA),
            "Child": rows(DATA, KEYS, DATA),
            "Log": rows(st.sampled_from([1, 2]), KEYS, DATA),
            "Tag": rows(KEYS, DATA),
        },
        schema=FRAGMENT_SCHEMA,
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fragment_instances(), st.sampled_from(NULL_CONVENTIONS))
def test_fragment_joins_compiled_formula_and_direct_agree(instance, null_is_unknown):
    for query in FRAGMENT_JOINS:
        rewritten = rewrite_query(query, FRAGMENT_CONSTRAINTS)
        compiled = rewritten.answers(instance, null_is_unknown)
        assert compiled == rewritten.to_formula().answers(instance, null_is_unknown), query
        assert compiled == consistent_answers(
            instance, FRAGMENT_CONSTRAINTS, query, method="direct",
            null_is_unknown=null_is_unknown,
        ), query
        for candidate in candidates_for(query, compiled):
            decided = rewritten.answers(instance, null_is_unknown, candidate=candidate)
            assert decided == (frozenset({candidate}) if candidate in compiled else frozenset())


# --------------------------------------------------------------------------- repairs
def _footprint(repair):
    """Everything a decision could leave on a repair: its attributes, its
    indexes, and which relations it owns."""

    return (
        sorted(vars(repair)),
        {predicate: id(index) for predicate, index in repair._indexes.items()},
        set(repair._owned),
    )


def test_a_decision_over_a_cached_repair_list_leaves_the_repairs_as_they_were():
    """A decision over a cached list builds no repair's index: from the
    deltas for a negation-free query, else the anytime stream replays the
    list and asks each repair about the candidate alone."""

    instance, constraints = grouped_key_workload(n_groups=3, group_size=3, n_clean=10, seed=1)
    db = ConsistentDatabase(
        instance, [*constraints, parse_constraint("Emp(e, d, s) -> s > 0")], method="direct"
    )
    assert db.repair_count() == 27
    repairs = db.repairs_list("direct", db.config)
    before = [_footprint(repair) for repair in repairs]
    assert not any(repair.indexed("Emp") for repair in repairs)
    held = ("e0",) + next(iter(instance.tuples_matching("Emp", {0: "e0"})))[1:2]
    for query, candidate, expected in (
        (parse_query("ans(e, d) <- Emp(e, d, s)"), held, True),
        (parse_query("ans(d) <- Emp(e, d, s)"), ("dept0_0",), False),
        (parse_query("ans(e) <- Emp(e, d, s), s > 100"), ("dup1",), True),
        (parse_query("ans() <- Emp(e, d, s), d = 'dept0_1'"), (), False),
        (parse_query("ans(e) <- Emp(e, d, s), not Tag(e)"), ("dup1",), True),
    ):
        assert db.certain(query, candidate, anytime=True) is expected, query
    assert [_footprint(repair) for repair in repairs] == before


# --------------------------------------------------------------------------- held deltas
def carried_session(instance, constraints):
    """A session whose direct repairs were carried across one write.

    The write is a copy of the first fact with a constant the case does
    not use as its first value, or, when the check refuses that, a fact
    of a predicate no constraint names.  Returns the session and the
    carried repairs.
    """

    used = set(instance.active_domain()) | set(constraints.constants())
    fresh = "carried"
    while fresh in used:
        fresh += "'"
    writes = [Fact("Unconstrained", (fresh,))]
    victim = next(iter(instance.facts()), None)
    if victim is not None and victim.arity:
        writes.insert(0, Fact(victim.predicate, (fresh, *victim.values[1:])))
    carried = metrics.registry().get("repro_repairs_carried_total")
    for write in writes:
        db = ConsistentDatabase(instance, constraints)
        db.repairs_list("direct", db.config)
        db.insert(write)
        before = carried.value
        repairs = db.held_repairs(db.config)
        if repairs is not None:
            assert carried.value == before + 1
            return db, repairs
    raise AssertionError("no write carried the repairs")


@pytest.mark.parametrize("null_is_unknown", NULL_CONVENTIONS)
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_an_anytime_decision_from_held_deltas_is_naive_membership(
    name, instance, constraints, null_is_unknown
):
    db, _ = carried_session(instance, constraints)
    searched = db.last_repair_statistics
    snapshot = db.snapshot()
    naive = ConsistentDatabase(snapshot, constraints)
    for query in queries_for(snapshot, constraints):
        reference = outcome(
            lambda: naive.consistent_answers(
                query, method="direct", repair_mode="naive", null_is_unknown=null_is_unknown
            )
        )
        pool = outcome(lambda: query.answers(snapshot, null_is_unknown=null_is_unknown))
        pool = set(pool) if isinstance(pool, frozenset) else set()
        if isinstance(reference, frozenset):
            pool |= reference
        for candidate in candidates_for(query, pool):
            got = outcome(
                lambda: db.certain(
                    query, candidate, method="direct", anytime=True,
                    null_is_unknown=null_is_unknown,
                )
            )
            expected = candidate in reference if isinstance(reference, frozenset) else reference
            assert got == expected, (query, candidate)
    assert db.last_repair_statistics is searched
