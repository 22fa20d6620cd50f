"""Shared fixtures: the paper's scenarios, a couple of tiny instances and
the hooks that reach the sliced ``≤_D`` filter's process pool."""

from __future__ import annotations

import pytest

import repro.core.parallel as parallel
from repro.core.repairs import RepairEngine
from repro.relational.domain import NULL
from repro.relational.instance import Fact
from repro.workloads import scenarios


@pytest.fixture
def pool_starts(monkeypatch):
    """Every process pool the library starts during the test, in order.

    The sliced ``≤_D`` filter (``parallel_minimal_flags``) is the
    library's one process pool; this records each executor it builds.
    """

    starts = []

    # A spy on the owner's pool class; it starts no pool of its own.
    class Recording(parallel.ProcessPoolExecutor):  # lint: allow(INV002)
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            starts.append(self)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)
    return starts


@pytest.fixture
def minimality_pool(monkeypatch, pool_starts):
    """Slice ``≤_D`` across the pool from two candidates up.

    ``RepairEngine(workers >= 2)`` starts the pool only from
    ``_PARALLEL_MINIMALITY_MIN`` candidates, far more than a test
    instance has.  Returns the recorded pool starts.
    """

    monkeypatch.setattr(RepairEngine, "_PARALLEL_MINIMALITY_MIN", 2)
    return pool_starts


#: Every non-empty subset of these facts is a delta: null atoms with and
#: without a cover, and plain facts, so both conditions of Definition 6
#: decide some ``≤_D`` verdicts.
MIXED_VERDICT_FACTS = (
    Fact("R", ("a", 1)),
    Fact("R", ("b", 2)),
    Fact("S", ("a", NULL)),
    Fact("S", ("a", 1)),
    Fact("S", ("b", NULL)),
)


@pytest.fixture(scope="session")
def mixed_verdict_deltas():
    """31 deltas of which some are ``<_D``-dominated and some are not."""

    return [
        frozenset(
            fact for bit, fact in enumerate(MIXED_VERDICT_FACTS) if mask >> bit & 1
        )
        for mask in range(1, 2 ** len(MIXED_VERDICT_FACTS))
    ]


@pytest.fixture(scope="session")
def all_scenarios():
    """Every named paper scenario, keyed by name."""

    return scenarios.all_scenarios()


@pytest.fixture(scope="session")
def example_14():
    return scenarios.example_14()


@pytest.fixture(scope="session")
def example_17():
    return scenarios.example_17()


@pytest.fixture(scope="session")
def example_18():
    return scenarios.example_18()


@pytest.fixture(scope="session")
def example_19():
    return scenarios.example_19()
