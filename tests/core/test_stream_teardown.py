"""Early termination of ``iter_repairs(stream=True)`` must tear down cleanly.

An anytime consumer that stops early (a ``break``, a ``close()``, a
garbage-collected iterator) must not leak worker processes, must not
corrupt the session's live violation tracker, and must leave the session
fully usable — the next call recomputes from a clean slate.

The ``workers=2`` tests must reach the pool, but their searches fit one
chunk, and the pool starts only once the frontier splits: the
``pooled_searches`` fixture lowers ``_POOL_MIN_OPEN_TASKS`` to 1, so the
root task ships, and records every search so that each test can assert
a pool start.
"""

import gc
import multiprocessing
import time

import pytest

from repro import ConsistentDatabase, parse_constraint

KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")


def wide_db(pairs=8, **kwargs):
    return ConsistentDatabase(
        {"Emp": [(f"e{i}", d) for i in range(pairs) for d in ("a", "b")]},
        [KEY],
        repair_mode="parallel",
        **kwargs,
    )


@pytest.fixture
def pooled_searches(pool_from_the_root, recorded_searches):
    """Every search started from the root on the pool, recorded."""

    return recorded_searches


def assert_pool_started(searches):
    assert any(
        search.statistics.instance_ship_bytes > 0 for search in searches
    ), "no search started a pool"


def assert_no_leaked_children(grace=1.0):
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked worker processes: {leaked}"


class TestAbandonment:
    def test_break_after_first_repair_reaps_workers(self, pooled_searches):
        db = wide_db(workers=2)
        for repair in db.iter_repairs(stream=True):
            break
        gc.collect()  # drop the suspended generator
        assert_pool_started(pooled_searches)
        assert_no_leaked_children()

    def test_explicit_close_reaps_workers(self, pooled_searches):
        db = wide_db(workers=2)
        stream = db.iter_repairs(stream=True)
        next(stream)
        stream.close()
        assert_pool_started(pooled_searches)
        assert_no_leaked_children()

    def test_close_before_first_next_is_safe(self):
        db = wide_db(workers=2)
        stream = db.iter_repairs(stream=True)
        stream.close()  # generator never started: nothing to tear down
        assert_no_leaked_children()

    def test_abandoned_stream_does_not_cache_partial_list(self):
        db = wide_db(4)
        stream = db.iter_repairs(stream=True)
        next(stream)
        stream.close()
        # The abandoned run must not have cached a one-element "repair
        # list": a full enumeration afterwards sees all 2^4 repairs.
        assert len(list(db.iter_repairs(stream=True))) == 16

    def test_session_tracker_survives_abandonment(self):
        db = wide_db(4)
        violations_before = db.violation_count()
        stream = db.iter_repairs(stream=True)
        next(stream)
        stream.close()
        # The stream searched a snapshot; the live tracker is untouched.
        assert db.violation_count() == violations_before
        assert not db.is_consistent()

    def test_session_usable_after_abandonment(self):
        db = wide_db(4)
        stream = db.iter_repairs(stream=True)
        next(stream)
        stream.close()
        db.insert("Emp", ("fresh", "only"))
        assert len(list(db.iter_repairs(stream=True))) == 16  # fresh row is clean

    def test_exception_mid_consumption_reaps_workers(self, pooled_searches):
        db = wide_db(workers=2)
        try:
            for index, repair in enumerate(db.iter_repairs(stream=True)):
                raise RuntimeError("consumer exploded")
        except RuntimeError:
            pass
        gc.collect()
        assert_pool_started(pooled_searches)
        assert_no_leaked_children()
