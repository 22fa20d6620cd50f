"""Early termination of ``iter_repairs(stream=True)`` must tear down cleanly.

An anytime consumer that stops early (a ``break``, a ``close()``, a
garbage-collected iterator) must not leave a child process behind, must
not corrupt the session's live violation tracker, and must leave the
session fully usable — the next call recomputes from a clean slate.
"""

import gc
import multiprocessing
import time

from repro import ConsistentDatabase, parse_constraint

KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")


def wide_db(pairs=8, **kwargs):
    return ConsistentDatabase(
        {"Emp": [(f"e{i}", d) for i in range(pairs) for d in ("a", "b")]},
        [KEY],
        repair_mode="parallel",
        **kwargs,
    )


def assert_no_leaked_children(grace=1.0):
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked child processes: {leaked}"


class TestAbandonment:
    def test_break_after_first_repair_leaves_no_child(self):
        db = wide_db()
        for repair in db.iter_repairs(stream=True):
            break
        gc.collect()  # drop the suspended generator
        assert_no_leaked_children()

    def test_explicit_close_leaves_no_child(self):
        db = wide_db()
        stream = db.iter_repairs(stream=True)
        next(stream)
        stream.close()
        assert_no_leaked_children()

    def test_close_before_first_next_is_safe(self):
        db = wide_db()
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

    def test_exception_mid_consumption_leaves_no_child(self):
        db = wide_db()
        try:
            for index, repair in enumerate(db.iter_repairs(stream=True)):
                raise RuntimeError("consumer exploded")
        except RuntimeError:
            pass
        gc.collect()
        assert_no_leaked_children()
