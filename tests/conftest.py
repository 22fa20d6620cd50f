"""Shared fixtures: the paper's scenarios."""

from __future__ import annotations

import pytest

from repro.workloads import scenarios


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
