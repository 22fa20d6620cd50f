"""Chaos-suite fixtures: disarm between tests, assert pool reach and no leaks."""

import multiprocessing
import time

import pytest

from repro.resilience import disarm


@pytest.fixture(autouse=True)
def chaos_hygiene(minimality_pool):
    """Every chaos test reaches the ``≤_D`` pool, ends disarmed and reaps every worker.

    Worker faults fire only inside the pool, so a schedule that never
    started one would pass without injecting a single worker fault.
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
    if not minimality_pool:
        pytest.fail("chaos test never started the ≤_D pool: its schedule ran inline")
