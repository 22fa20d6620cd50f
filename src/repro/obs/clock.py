"""The one clock every timed code path reads.

Before this module existed the repository had three timing idioms —
``time.perf_counter()`` pairs in the repair engine, ad-hoc ``started``
variables in the repair search and a third copy in every benchmark —
none of which a test could substitute.  All of them now funnel through
one process-wide :class:`Clock`: :func:`now` reads monotonic
**wall-clock** seconds (``perf_counter``), the right measure for spans,
phase timings and anything a human waits for.

Tests swap in a :class:`FakeClock` (via :func:`set_clock` or the
:func:`using_clock` context manager) and advance it by hand, making
every duration in a trace or a statistics object deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Clock:
    """The clock protocol: wall-clock seconds."""

    def now(self) -> float:
        """Monotonic wall-clock seconds (arbitrary epoch)."""

        raise NotImplementedError


class SystemClock(Clock):
    """The real clock: ``perf_counter``."""

    # The function itself, not a method calling it: spans read the
    # clock twice each, and a Python frame per read is tracer overhead.
    now = staticmethod(time.perf_counter)


class FakeClock(Clock):
    """A deterministic clock tests advance by hand.

    >>> fake = FakeClock()
    >>> fake.advance(1.5)
    >>> fake.now()
    1.5
    """

    def __init__(self, start: float = 0.0):
        self._wall = start

    def now(self) -> float:
        return self._wall

    def advance(self, seconds: float) -> None:
        """Move the clock forward."""

        self._wall += seconds


_SYSTEM = SystemClock()
_CLOCK: Clock = _SYSTEM


def clock() -> Clock:
    """The currently installed process-wide clock."""

    return _CLOCK


def set_clock(replacement: Clock) -> None:
    """Install *replacement* as the process-wide clock (tests only)."""

    global _CLOCK
    _CLOCK = replacement


def reset_clock() -> None:
    """Restore the real :class:`SystemClock`."""

    global _CLOCK
    _CLOCK = _SYSTEM


@contextmanager
def using_clock(replacement: Clock) -> Iterator[Clock]:
    """Temporarily install *replacement*; always restores the previous clock."""

    global _CLOCK
    previous = _CLOCK
    _CLOCK = replacement
    try:
        yield replacement
    finally:
        _CLOCK = previous


def now() -> float:
    """Wall-clock seconds from the installed clock."""

    return _CLOCK.now()
