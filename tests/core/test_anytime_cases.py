"""The anytime repair stream against the naive reference, case by case.

``AnytimeRepairStream`` proves each repair ``≤_D``-minimal mid-search
and hands it over at once; ``certain(anytime=True)`` stops at the first
refuting repair.  Both must agree with the nested-loop reference on
every paper scenario and on null-heavy generated workloads:

* **the stream** — the yielded repairs are exactly the naive ones, each
  once, and ``ordered_repairs`` is the naive list, order included, for
  chunk budgets that split the search into many batches;
* **its spans** — every span the stream opens closes before its
  ``yield``, so the consumer's work between two repairs never nests
  under them, and every frontier task runs inside a per-batch
  ``repair.search`` span;
* **the short-circuit** — the anytime verdict of ``certain`` equals the
  full enumeration's for every fact of the instance as a candidate.
"""

import pytest

from repro.constraints.parser import parse_constraint, parse_query
from repro.core.parallel import AnytimeRepairStream, ParallelRepairSearch
from repro.core.repairs import RepairEngine
from repro.obs import trace
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.session import ConsistentDatabase
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    key_violation_workload,
    scenarios,
)


def chained_denials(n, with_nulls=False):
    """``P(x) ∧ Q(x)`` and ``Q(x) ∧ R(x)`` both denied.  Deleting ``Q(a)``
    alone resolves both conflicts of ``a``, so the search also finds
    candidates deleting ``P(a)`` and ``R(a)`` that ``≤_D`` rejects: the
    only cases here where a candidate is dominated.  A null joins with
    nothing under ``|=_N``, so null rows stay in every repair."""

    constraints = [
        parse_constraint("P(x), Q(x) -> false"),
        parse_constraint("Q(x), R(x) -> false"),
    ]
    rows = [(f"a{i}",) for i in range(n)] + ([(NULL,)] if with_nulls else [])
    return DatabaseInstance.from_dict({p: rows for p in "PQR"}), constraints


WORKLOADS = {
    "chained_denials": lambda: chained_denials(3),
    "chained_denials_with_nulls": lambda: chained_denials(2, with_nulls=True),
    "foreign_key_null_heavy": lambda: foreign_key_workload(
        n_parents=4, n_children=10, violation_ratio=0.5, null_ratio=0.4, seed=5
    ),
    "key_violation_null_heavy": lambda: key_violation_workload(
        n_rows=12, duplicate_ratio=0.4, null_ratio=0.4, seed=7
    ),
    "grouped_key": lambda: grouped_key_workload(
        n_groups=3, group_size=3, n_clean=6, seed=11
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

#: Small enough that most cases run as several frontier tasks, so repairs
#: are proven while tasks are still open.
CHUNK_STATES = 3


def naive_repairs(instance, constraints):
    return RepairEngine(constraints, method="naive").repairs(instance)


def parents_by_span(root):
    """``{id(span): parent}`` for every span below *root*."""

    parents = {}
    stack = [root]
    while stack:
        span = stack.pop()
        for child in span.children:
            parents[id(child)] = span
            stack.append(child)
    return parents


def every_span(root):
    nodes = [root]
    for child in root.children:
        nodes.extend(every_span(child))
    return nodes


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_stream_yields_exactly_the_naive_repairs(name, instance, constraints):
    reference = naive_repairs(instance, constraints)
    stream = AnytimeRepairStream(
        ParallelRepairSearch(instance, constraints, chunk_states=CHUNK_STATES)
    )
    streamed = list(stream)
    assert stream.degradation is None
    assert stream.ordered_repairs == reference
    assert len(streamed) == len(reference)
    assert {repair.fact_set() for repair in streamed} == {
        repair.fact_set() for repair in reference
    }


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_stream_spans_close_before_every_yield(name, instance, constraints):
    with trace.tracing(True):
        trace.reset()
        with trace.span("request"):
            stream = AnytimeRepairStream(
                ParallelRepairSearch(instance, constraints, chunk_states=CHUNK_STATES)
            )
            repairs = 0
            for _ in stream:
                repairs += 1
                with trace.span("consumer"):
                    pass
        (root,) = trace.tracer().roots
    assert repairs == len(stream.ordered_repairs)
    nodes = every_span(root)
    parents = parents_by_span(root)
    for node in nodes:
        assert node.end is not None and node.start <= node.end, node.name
        parent = parents.get(id(node))
        if parent is not None:
            assert parent.start <= node.start and node.end <= parent.end, node.name
    consumers = [node for node in nodes if node.name == "consumer"]
    assert len(consumers) == repairs
    assert all(parents[id(node)] is root for node in consumers)
    tasks = [node for node in nodes if node.name == "repair.task"]
    assert tasks, "the search ran no task"
    assert all(parents[id(node)].name == "repair.search" for node in tasks)


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_anytime_certain_agrees_with_the_full_enumeration(name, instance, constraints):
    full = ConsistentDatabase(instance, constraints, method="direct")
    checked = 0
    for predicate in instance.predicates:
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        query = parse_query(f"ans({variables}) <- {predicate}({variables})")
        for fact in sorted(instance.facts(), key=repr):
            if fact.predicate != predicate:
                continue
            expected = full.certain(query, fact.values)
            # A fresh session per candidate: a drained stream caches the
            # repair list, and every verdict here must come from a live one.
            anytime = ConsistentDatabase(instance, constraints, method="direct")
            assert anytime.certain(query, fact.values, anytime=True) == expected, fact
            checked += 1
    assert checked == len(instance)
