"""Shared fixtures: the paper's scenarios, a couple of tiny instances and
the repair-search pool hooks."""

from __future__ import annotations

import pytest

from repro.core.parallel import ParallelRepairSearch
from repro.workloads import scenarios


@pytest.fixture
def pool_from_the_root(monkeypatch):
    """Start a ``workers >= 2`` search's pool before its root task.

    A search runs inline until its frontier splits; with the threshold
    at 1 every task ships, the root included.
    """

    monkeypatch.setattr(ParallelRepairSearch, "_POOL_MIN_OPEN_TASKS", 1)


@pytest.fixture
def recorded_searches(monkeypatch):
    """Every :class:`ParallelRepairSearch` the test builds, in order.

    A search runs inline until its frontier splits, so pool tests read
    ``statistics.instance_ship_bytes`` of the recorded searches to see
    whether a pool started.
    """

    searches = []
    original = ParallelRepairSearch.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        searches.append(self)

    monkeypatch.setattr(ParallelRepairSearch, "__init__", recording)
    return searches


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
