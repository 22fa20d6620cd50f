"""Session API ≡ functional API, including across mutations.

The :class:`ConsistentDatabase` façade caches plans, rewritings, repair
lists and answers across calls; these properties pin down that none of
that caching can ever change an answer:

* on every paper scenario the session's answers and repairs equal the
  functional API's, for every engine the pair supports;
* on null-heavy generated workloads the same holds, including for the
  ``"sqlite"`` push-down where applicable;
* after any interleaved sequence of inserts and deletes, the session —
  whose violation tracker absorbed the changes incrementally and whose
  caches were invalidated only by the generation counter — answers
  exactly like a fresh functional computation over a snapshot of the
  mutated instance (cache-invalidation correctness), and its conflict
  graph, built from that tracker, equals the one built from the
  nested-loop reference violations;
* a rolled-back batch leaves every observable answer unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConsistentDatabase
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.cqa import consistent_answers
from repro.core.repairs import repairs as functional_repairs
from repro.core.satisfaction import all_violations
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.rewriting import ConflictGraph, RewritingUnsupportedError
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    key_violation_workload,
    scenarios,
)


def graph_signature(graph):
    """Marks with ``forced``, edges per constraint, and the estimate."""

    marks = sorted((repr(m.fact), repr(m.constraint), m.forced) for m in graph.marks)
    edges = sorted(
        (repr(e.constraint), *sorted((repr(e.first), repr(e.second))))
        for e in graph.edges
    )
    return marks, edges, graph.estimated_repair_count()


def naive_graph_signature(instance, constraints):
    return graph_signature(
        ConflictGraph.build(all_violations(instance, constraints, naive=True))
    )


def generic_queries(instance):
    """A select-all and a first-column projection per populated relation."""

    queries = []
    for predicate in instance.predicates:
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        queries.append(parse_query(f"ans({variables}) <- {predicate}({variables})"))
        queries.append(parse_query(f"ans(x0) <- {predicate}({variables})"))
    return queries


def tractable_scenarios():
    return sorted(
        name
        for name, scenario in scenarios.all_scenarios().items()
        if scenario.constraints.is_non_conflicting()
    )


@pytest.mark.parametrize("name", tractable_scenarios())
def test_scenario_answers_match_functional_api(name):
    from repro.core.repair_program import RepairProgramError

    scenario = scenarios.all_scenarios()[name]
    db = ConsistentDatabase(scenario.instance, scenario.constraints)
    for query in generic_queries(scenario.instance):
        expected = consistent_answers(scenario.instance, scenario.constraints, query)
        for method in ("direct", "program", "auto"):
            try:
                got = db.consistent_answers(query, method=method)
            except RepairProgramError:
                # General ICs fall outside Definition 9; only the program
                # route is allowed to refuse them.
                assert method == "program"
                continue
            assert got == expected, (name, method, query)


@pytest.mark.parametrize("name", tractable_scenarios())
def test_scenario_repairs_match_functional_api(name):
    scenario = scenarios.all_scenarios()[name]
    db = ConsistentDatabase(scenario.instance, scenario.constraints)
    expected = {
        repair.fact_set()
        for repair in functional_repairs(scenario.instance, scenario.constraints)
    }
    assert {repair.fact_set() for repair in db.iter_repairs()} == expected


@pytest.mark.parametrize(
    "workload",
    [
        lambda: foreign_key_workload(
            n_parents=3, n_children=5, violation_ratio=0.5, null_ratio=0.4, seed=5
        ),
        lambda: key_violation_workload(
            n_rows=8, duplicate_ratio=0.4, null_ratio=0.4, seed=7
        ),
        lambda: grouped_key_workload(n_groups=2, group_size=2, n_clean=4, seed=11),
    ],
    ids=["foreign_key_null_heavy", "key_violation_null_heavy", "grouped_key"],
)
def test_generated_workload_answers_match_functional_api(workload):
    instance, constraints = workload()
    db = ConsistentDatabase(instance, constraints)
    for query in generic_queries(instance):
        expected = consistent_answers(instance, constraints, query)
        assert db.consistent_answers(query, method="direct") == expected
        assert db.consistent_answers(query, method="auto") == expected
        try:
            sql = db.consistent_answers(query, method="sqlite")
        except RewritingUnsupportedError:
            pass
        else:
            assert sql == expected


# --------------------------------------------------------------------------- mutations
#: The adversarial constraint mix of the incremental-violation properties:
#: a RIC, a key, a multi-atom denial and an NNC over shared predicates.
CONSTRAINTS = ConstraintSet(
    [
        parse_constraint("P(x, y) -> R(x, z)"),
        parse_constraint("R(x, y), R(x, z) -> y = z"),
        parse_constraint("P(x, x), R(x, y) -> false"),
    ]
)

VALUES = st.sampled_from(["a", "b", NULL])
FACTS = st.tuples(st.sampled_from(["P", "R"]), VALUES, VALUES).map(
    lambda t: Fact(t[0], (t[1], t[2]))
)
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), FACTS), min_size=1, max_size=8
)

MUTATION_QUERIES = [
    parse_query("ans(x, y) <- P(x, y)"),
    parse_query("ans(x) <- R(x, y)"),
    parse_query("ans(x) <- P(x, y), R(x, z)"),
]

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common_settings
@given(initial=st.lists(FACTS, max_size=4), operations=OPERATIONS)
def test_session_stays_equivalent_under_interleaved_mutations(initial, operations):
    db = ConsistentDatabase(DatabaseInstance.from_facts(initial), CONSTRAINTS)
    # Warm every cache layer before mutating, so the test exercises
    # invalidation rather than cold starts.
    for query in MUTATION_QUERIES:
        db.consistent_answers(query, method="direct")
    for kind, fact in operations:
        if kind == "insert":
            db.insert(fact)
        else:
            db.delete(fact)
        snapshot = db.snapshot()
        assert set(db.violations()) == set(all_violations(snapshot, CONSTRAINTS))
        assert graph_signature(db.conflict_graph()) == naive_graph_signature(
            snapshot, CONSTRAINTS
        )
        for query in MUTATION_QUERIES:
            expected = consistent_answers(snapshot, CONSTRAINTS, query)
            assert db.consistent_answers(query, method="direct") == expected
            assert db.consistent_answers(query, method="auto") == expected


@common_settings
@given(initial=st.lists(FACTS, max_size=4), operations=OPERATIONS)
def test_rolled_back_batch_changes_nothing(initial, operations):
    db = ConsistentDatabase(DatabaseInstance.from_facts(initial), CONSTRAINTS)
    before_facts = db.snapshot().fact_set()
    before_answers = {
        query: db.consistent_answers(query, method="direct")
        for query in MUTATION_QUERIES
    }
    before_violations = set(db.violations())
    before_graph = graph_signature(db.conflict_graph())
    with pytest.raises(ZeroDivisionError):
        with db.batch():
            for kind, fact in operations:
                if kind == "insert":
                    db.insert(fact)
                else:
                    db.delete(fact)
            raise ZeroDivisionError
    assert db.snapshot().fact_set() == before_facts
    assert set(db.violations()) == before_violations
    assert graph_signature(db.conflict_graph()) == before_graph
    for query, expected in before_answers.items():
        assert db.consistent_answers(query, method="direct") == expected


def test_scenario_mutation_roundtrip_matches_functional_api():
    """Delete-then-reinsert on real scenarios: every step answers fresh."""

    for name in ("example_14", "example_17", "example_11"):
        scenario = scenarios.all_scenarios()[name]
        db = ConsistentDatabase(scenario.instance, scenario.constraints)
        queries = generic_queries(scenario.instance)
        original = {q: db.consistent_answers(q) for q in queries}
        victim = next(iter(scenario.instance.facts()))
        db.delete(victim)
        for query in queries:
            assert db.consistent_answers(query) == consistent_answers(
                db.snapshot(), scenario.constraints, query
            ), (name, "after delete", query)
        db.insert(victim)
        for query in queries:
            assert db.consistent_answers(query) == original[query], (
                name,
                "after reinsert",
                query,
            )
