"""Machine-speed correction.

The benchmark's VM changes speed by up to ~1.75x over tens of seconds,
in steps that neither wall nor CPU time escapes.  Each timed window is
therefore bracketed by a fixed object-heavy kernel (dicts, sets and
tuples built and sorted, the collector paused), and the window's times
are scaled by ``REFERENCE_S / kernel``, the kernel's time being the
mean of the brackets before and after.  The kernel and the constant
never depend on the program or its state and are the same in every
run; the corrected figures read as "seconds on a machine where the
kernel takes REFERENCE_S", and the raw ones are reported beside them.
"""

from __future__ import annotations

import gc
import time

#: The kernel's nominal time; corrected = raw * REFERENCE_S / kernel.
REFERENCE_S = 0.75e-3

#: Repeats per bracket; the minimum is kept, so an interrupt in one
#: repeat does not read as a slow machine.
REPEATS = 3


class _Node:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: "_Node | None"):
        self.value = value
        self.link = link

    def weight(self) -> int:
        return self.value * 3


def _kernel() -> int:
    """Tuples, dicts and sets built and sorted, then a chain of objects walked.

    Correcting by both kinds of work at once tracked a real request more
    closely than either alone on the 2-CPU VM the benchmark was built on.
    """

    table = {}
    for i in range(500):
        key = (i % 17, str(i), i * 7919 % 101)
        table[key] = {key[1], key[2], i}
    ordered = sorted(table.items(), key=lambda item: (item[0][2], item[0][1]))
    head = None
    for i in range(700):
        head = _Node(i, head)
    total = 0
    while head is not None:
        total += head.weight()
        head = head.link
    return len(ordered) + total


def kernel_seconds() -> float:
    """The best of :data:`REPEATS` kernel runs, in seconds."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """The scale that turns raw seconds between two brackets into corrected ones."""

    return REFERENCE_S / ((before + after) / 2.0)
