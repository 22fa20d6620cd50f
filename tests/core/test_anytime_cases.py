"""The production search and its anytime stream against the naive
reference, case by case.

The depth-first search pauses every ``PAUSE_STATES`` states so that
``AnytimeRepairStream`` can prove repairs ``≤_D``-minimal mid-search
and hand them over at once; ``certain(anytime=True)`` stops at the
first refuting repair.  All of it must agree with the nested-loop
reference on every paper scenario and on null-heavy generated
workloads:

* **pausing changes nothing** — paused every state, every third state
  or at the default, ``RepairEngine`` returns the naive list, order
  included, enters the naive states, finds the naive candidates, meets
  the naive dead branches, and makes one tracker update per state it
  enters after the root;
* **nor does the hash seed** — the ordered repair lists are the same
  under another ``PYTHONHASHSEED``;
* **the stream** — the yielded repairs are exactly the naive ones, each
  once, and ``ordered_repairs`` is the naive list, order included, when
  the search pauses every few states;
* **its spans** — every span the stream opens closes before its
  ``yield``, so the consumer's work between two repairs never nests
  under them, and the search runs inside per-pause ``repair.search``
  spans;
* **the short-circuit** — the anytime verdict of ``certain`` equals the
  full enumeration's for every fact of the instance as a candidate.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.constraints.parser import parse_constraint, parse_query
from repro.core import parallel
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

#: Small enough that most cases pause several times, so repairs are
#: proven while frontier subtrees are still open.
PAUSE_STATES = 3


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


def repair_digest():
    """A digest of every case's production repair list, order included."""

    lists = [
        [
            sorted(map(repr, repair.facts()))
            for repair in RepairEngine(constraints).repairs(instance)
        ]
        for _, instance, constraints in all_cases()
    ]
    return hashlib.sha256(json.dumps(lists).encode()).hexdigest()


@pytest.mark.parametrize("pause", [1, 3, None], ids=["pause1", "pause3", "default"])
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_pausing_changes_nothing(name, instance, constraints, pause, monkeypatch):
    if pause is not None:
        monkeypatch.setattr(parallel, "PAUSE_STATES", pause)
    naive = RepairEngine(constraints, method="naive")
    reference = naive.repairs(instance)
    engine = RepairEngine(constraints)
    assert engine.repairs(instance) == reference
    found, expected = engine.statistics, naive.statistics
    assert found.states_explored == expected.states_explored
    assert found.candidates_found == expected.candidates_found
    assert found.dead_branches == expected.dead_branches
    assert found.violation_updates == found.states_explored - 1


def test_discovery_order_ignores_the_hash_seed():
    hash_seed = "54321" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
    here = Path(__file__).resolve().parent
    source = Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import test_anytime_cases as cases; print(cases.repair_digest())",
        ],
        capture_output=True,
        text=True,
        cwd=here,
        env={
            "PYTHONPATH": os.pathsep.join([str(source), str(here)]),
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
        },
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == repair_digest()


@pytest.fixture
def pause_every_few_states(monkeypatch):
    monkeypatch.setattr(parallel, "PAUSE_STATES", PAUSE_STATES)


@pytest.mark.usefixtures("pause_every_few_states")
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_stream_yields_exactly_the_naive_repairs(name, instance, constraints):
    reference = naive_repairs(instance, constraints)
    stream = AnytimeRepairStream(ParallelRepairSearch(instance, constraints))
    streamed = list(stream)
    assert stream.degradation is None
    assert stream.ordered_repairs == reference
    assert len(streamed) == len(reference)
    assert {repair.fact_set() for repair in streamed} == {
        repair.fact_set() for repair in reference
    }


@pytest.mark.usefixtures("pause_every_few_states")
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_stream_spans_close_before_every_yield(name, instance, constraints):
    with trace.tracing(True):
        trace.reset()
        with trace.span("request"):
            stream = AnytimeRepairStream(ParallelRepairSearch(instance, constraints))
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
    searches = [node for node in nodes if node.name == "repair.search"]
    assert searches, "the search opened no span"
    assert all(parents[id(node)] is root for node in searches)


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
