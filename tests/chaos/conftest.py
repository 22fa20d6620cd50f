"""Chaos-suite fixtures: disarm between tests, assert pool reach and no leaks."""

import multiprocessing
import time

import pytest

from repro.resilience import disarm


@pytest.fixture(autouse=True)
def chaos_hygiene(recorded_searches):
    """Every chaos test reaches a pool, ends disarmed and reaps every worker.

    A search runs inline until its frontier splits, so a schedule whose
    searches never started a pool would pass without injecting a single
    worker fault.
    """

    yield
    disarm()
    deadline = time.monotonic() + 2.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
    if leaked:
        pytest.fail(f"chaos test leaked worker processes: {leaked}")
    if not any(search.statistics.instance_ship_bytes > 0 for search in recorded_searches):
        pytest.fail("chaos test never started a search pool: its schedule ran inline")
