"""The one clock every timed code path reads.

Before this module existed the repository had three timing idioms —
``time.perf_counter()`` pairs in the repair engine, ad-hoc ``started``
variables in the frontier search and a third copy in every benchmark —
none of which a test could substitute.  All of them now funnel through
one process-wide :class:`Clock` with two faces:

* :func:`now` — monotonic **wall-clock** seconds (``perf_counter``),
  the right measure for spans, phase timings and anything a human
  waits for;
* :func:`cpu_now` — process **CPU** seconds (``process_time``), the
  right measure for "how much work did this task do" independent of
  how many sibling tasks ran concurrently (see
  ``RepairStatistics.task_cpu_seconds``).

Tests swap in a :class:`FakeClock` (via :func:`set_clock` or the
:func:`using_clock` context manager) and advance it by hand, making
every duration in a trace or a statistics object deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Clock:
    """The clock protocol: wall seconds and CPU seconds."""

    def now(self) -> float:
        """Monotonic wall-clock seconds (arbitrary epoch)."""

        raise NotImplementedError

    def cpu_now(self) -> float:
        """Process-wide CPU seconds (user + system, arbitrary epoch)."""

        raise NotImplementedError


class SystemClock(Clock):
    """The real clock: ``perf_counter`` wall, ``process_time`` CPU."""

    # The functions themselves, not methods calling them: spans read the
    # clock twice each, and a Python frame per read is tracer overhead.
    now = staticmethod(time.perf_counter)
    cpu_now = staticmethod(time.process_time)


class FakeClock(Clock):
    """A deterministic clock tests advance by hand.

    ``advance(seconds)`` moves the wall clock; the CPU clock follows at
    ``cpu_factor`` (default 1.0 — fully CPU-bound time) unless advanced
    separately with ``advance_cpu``.

    >>> fake = FakeClock()
    >>> fake.advance(1.5)
    >>> fake.now(), fake.cpu_now()
    (1.5, 1.5)
    >>> fake.advance(1.0, cpu_factor=0.0)  # purely idle wait
    >>> fake.now(), fake.cpu_now()
    (2.5, 1.5)
    """

    def __init__(self, start: float = 0.0):
        self._wall = start
        self._cpu = start

    def now(self) -> float:
        return self._wall

    def cpu_now(self) -> float:
        return self._cpu

    def advance(self, seconds: float, cpu_factor: float = 1.0) -> None:
        """Move the wall clock forward, the CPU clock by a fraction of it."""

        self._wall += seconds
        self._cpu += seconds * cpu_factor

    def advance_cpu(self, seconds: float) -> None:
        """Move only the CPU clock (CPU burned without wall time passing)."""

        self._cpu += seconds


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


def cpu_now() -> float:
    """CPU seconds from the installed clock."""

    return _CLOCK.cpu_now()
