"""Deadlines, budgets and cooperative cancellation.

A :class:`Budget` is created once at the session boundary (one per
request) and carries everything a long computation must respect:

* a **wall-clock deadline** (``deadline`` seconds from creation),
* a **state budget** (``max_states`` search states),
* a **memory budget** (``max_memory`` bytes, a coarse estimate of the
  result sets a search accumulates),
* a **cancellation flag** flipped by :meth:`Budget.cancel` from any
  cooperating caller (another thread, a signal handler, a service
  front door).

Checks are *cooperative*: the hot loops of the repair search, the
compiled kernel and the SQL backend call :meth:`Budget.exhausted` (or
:meth:`Budget.checkpoint`, which raises the matching typed error from
:mod:`repro.errors`) at natural boundaries — per search state, per
``≤_D`` candidate, per join descent, per SQLite progress callback.
Nothing preempts; granularity is documented in ``docs/robustness.md``.

The module mirrors the tracer's disabled-path design
(:mod:`repro.obs.trace`): when no budget is active, :func:`active`
returns the one shared, *falsy* :data:`NULL_BUDGET` whose every method
is a no-op — so an instrumented hot loop pays one truthiness check and
nothing else, holding the disabled overhead under the same ≤ 5% gate
the tracer obeys (``tests/resilience/test_overhead.py``).

Budgets install ambiently with :func:`using_budget`::

    from repro.resilience import Budget, using_budget

    with using_budget(Budget(deadline=0.5)):
        db.certain(query)          # every layer underneath sees it

Degradation — returning a sound partial answer instead of raising —
is requested per budget (``degrade=True``); the structured outcome
record is :class:`Degradation`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import budget_error
from repro.obs import clock as _clock


@dataclass(frozen=True)
class Degradation:
    """Why (and how far along) a degraded request stopped early.

    Attached to the partial result instead of an exception when a
    budget with ``degrade=True`` runs out: ``reason`` is the exhausted
    dimension (``"deadline"``, ``"states"``, ``"memory"`` or
    ``"cancelled"``), ``proven`` the bound the anytime machinery had
    already certified (repairs proven minimal, for the repair stream),
    and the remaining fields snapshot how much work was done and what
    the limits were.
    """

    reason: str
    states_explored: int = 0
    elapsed_seconds: float = 0.0
    proven: int = 0
    deadline: Optional[float] = None
    max_states: Optional[int] = None
    max_memory: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        """One human-readable line for logs and reports."""

        limits = {
            "deadline": f"{self.deadline}s" if self.deadline is not None else None,
            "states": str(self.max_states) if self.max_states is not None else None,
            "memory": f"{self.max_memory}B" if self.max_memory is not None else None,
        }.get(self.reason)
        limit = f" (limit {limits})" if limits else ""
        return (
            f"degraded: {self.reason}{limit} after {self.states_explored} states / "
            f"{self.elapsed_seconds:.3f}s, {self.proven} proven"
            + (f" — {self.detail}" if self.detail else "")
        )


class Budget:
    """One request's resource envelope, checked cooperatively.

    Truthy (the shared :data:`NULL_BUDGET` is falsy), cheap to probe,
    and deliberately not thread-safe beyond the one crossing that
    matters: :meth:`cancel` only ever *sets* a flag, so flipping it
    from another thread is safe without a lock.

    >>> budget = Budget(max_states=2)
    >>> budget.charge_states(1); budget.exhausted()
    >>> budget.charge_states(5); budget.exhausted()
    'states'
    >>> budget.checkpoint()
    Traceback (most recent call last):
        ...
    repro.errors.StateBudgetExceededError: state budget exceeded: 6 states \
used of 2
    """

    __slots__ = (
        "deadline",
        "max_states",
        "max_memory",
        "degrade",
        "started_at",
        "deadline_at",
        "states",
        "memory",
        "cancelled",
    )

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        max_states: Optional[int] = None,
        max_memory: Optional[int] = None,
        degrade: bool = False,
    ):
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, not {deadline!r}")
        self.deadline = deadline
        self.max_states = max_states
        self.max_memory = max_memory
        self.degrade = degrade
        self.started_at = _clock.now()
        self.deadline_at = None if deadline is None else self.started_at + deadline
        self.states = 0
        self.memory = 0
        self.cancelled = False

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline}, max_states={self.max_states}, "
            f"max_memory={self.max_memory}, degrade={self.degrade}, "
            f"states={self.states}, exhausted={self.exhausted()!r})"
        )

    # ------------------------------------------------------------------ charging
    def charge_states(self, count: int = 1) -> None:
        """Account *count* explored search states against the budget."""

        self.states += count

    def charge_memory(self, estimate: int) -> None:
        """Account *estimate* bytes of accumulated results."""

        self.memory += estimate

    def cancel(self) -> None:
        """Cooperatively cancel the request: the next check reports it."""

        self.cancelled = True

    # ------------------------------------------------------------------ checking
    def exhausted(self) -> Optional[str]:
        """The first exhausted dimension, or ``None`` while within budget.

        Checked in priority order — cancellation, deadline, states,
        memory — so an explicit cancel always wins the reported reason.
        """

        if self.cancelled:
            return "cancelled"
        if self.deadline_at is not None and _clock.now() >= self.deadline_at:
            return "deadline"
        if self.max_states is not None and self.states > self.max_states:
            return "states"
        if self.max_memory is not None and self.memory > self.max_memory:
            return "memory"
        return None

    def checkpoint(self) -> None:
        """Raise the typed :class:`~repro.errors.BudgetExceededError` if exhausted."""

        reason = self.exhausted()
        if reason is not None:
            raise budget_error(reason, self._message(reason))

    def _message(self, reason: str) -> str:
        if reason == "deadline":
            return (
                f"deadline of {self.deadline}s exceeded after "
                f"{self.elapsed():.3f}s ({self.states} states explored)"
            )
        if reason == "states":
            return f"state budget exceeded: {self.states} states used of {self.max_states}"
        if reason == "memory":
            return (
                f"memory budget exceeded: ~{self.memory} bytes accumulated "
                f"of {self.max_memory}"
            )
        return f"request cancelled after {self.elapsed():.3f}s"

    def error(self, reason: Optional[str] = None):
        """The typed error for *reason* (default: the exhausted dimension)."""

        reason = reason or self.exhausted() or "budget"
        return budget_error(reason, self._message(reason))

    # ------------------------------------------------------------------ reporting
    def elapsed(self) -> float:
        """Wall-clock seconds since the budget was created."""

        return _clock.now() - self.started_at

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (never negative), or ``None``."""

        if self.deadline_at is None:
            return None
        return max(self.deadline_at - _clock.now(), 0.0)

    def degradation(self, proven: int = 0, detail: str = "") -> Degradation:
        """The structured :class:`Degradation` record for the current state."""

        return Degradation(
            reason=self.exhausted() or "budget",
            states_explored=self.states,
            elapsed_seconds=self.elapsed(),
            proven=proven,
            deadline=self.deadline,
            max_states=self.max_states,
            max_memory=self.max_memory,
            detail=detail,
        )


class _NullBudget:
    """The shared no-budget object: falsy, every operation a no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_BUDGET"

    def charge_states(self, count: int = 1) -> None:
        pass

    def charge_memory(self, estimate: int) -> None:
        pass

    def cancel(self) -> None:
        pass

    def exhausted(self) -> Optional[str]:
        return None

    def checkpoint(self) -> None:
        pass

    # The reporting surface mirrors Budget so call sites never branch.
    deadline: Optional[float] = None
    max_states: Optional[int] = None
    max_memory: Optional[int] = None
    degrade: bool = False

    def elapsed(self) -> float:
        return 0.0

    def remaining_seconds(self) -> Optional[float]:
        return None


#: The one falsy stand-in used whenever no budget is active.
NULL_BUDGET = _NullBudget()

#: The ambient budget of the current request (the process-global slot the
#: hot loops read).  The library runs in one process, so a module global
#: is the cheapest correct store.
_ACTIVE: Any = NULL_BUDGET


def active() -> Any:
    """The ambient :class:`Budget`, or the falsy :data:`NULL_BUDGET`."""

    return _ACTIVE


@contextmanager
def using_budget(budget: Optional[Budget]) -> Iterator[Any]:
    """Install *budget* as the ambient budget for the dynamic extent.

    ``None`` installs nothing (the previous budget, usually the null
    object, stays active) — callers can thread an optional budget
    without branching.  Always restores the previous budget, and nests:
    an inner request scope shadows the outer one.
    """

    global _ACTIVE
    if budget is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = budget
    try:
        yield budget
    finally:
        _ACTIVE = previous
