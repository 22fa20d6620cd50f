"""The library's exception taxonomy.

Every error the CQA stack raises deliberately derives from
:class:`ReproError`, so callers embedding the library can catch one
base class at the service boundary instead of enumerating module-level
exceptions.  The taxonomy is small and layered:

* :class:`ReproError` — root of everything the library raises on
  purpose.
* :class:`BudgetExceededError` — a request ran out of some resource
  budget before finishing.  Also derives from :class:`RuntimeError`
  because the pre-taxonomy budget error
  (:class:`~repro.core.repairs.RepairSearchBudgetExceeded`) was a plain
  ``RuntimeError`` subclass and existing ``except RuntimeError``
  handlers must keep working.  Concrete reasons:

  - :class:`DeadlineExceededError` — the wall-clock deadline passed;
  - :class:`StateBudgetExceededError` — the search crossed its
    ``max_states`` budget (``RepairSearchBudgetExceeded`` is an alias
    kept for backward compatibility);
  - :class:`MemoryBudgetExceededError` — the tracked result-set
    estimate crossed ``max_memory`` bytes;
  - :class:`QueryCancelledError` — the budget was cancelled
    cooperatively (:meth:`repro.resilience.Budget.cancel`).

Degraded requests (``degrade=True``) do **not** raise any of these —
they return the partial answer proven so far plus a structured
:class:`repro.resilience.Degradation` record; see
``docs/robustness.md``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every exception the library raises deliberately."""


class BudgetExceededError(ReproError, RuntimeError):
    """A request exhausted one of its resource budgets.

    ``reason`` is the machine-readable budget dimension (``"deadline"``,
    ``"states"``, ``"memory"`` or ``"cancelled"``) so handlers can
    branch without parsing the message.
    """

    reason: str = "budget"

    def __init__(self, message: str, *, reason: str = ""):
        super().__init__(message)
        if reason:
            self.reason = reason


class DeadlineExceededError(BudgetExceededError):
    """The request's wall-clock deadline passed before it finished."""

    reason = "deadline"


class StateBudgetExceededError(BudgetExceededError):
    """The repair search crossed its ``max_states`` budget."""

    reason = "states"


class MemoryBudgetExceededError(BudgetExceededError):
    """The tracked memory estimate crossed the ``max_memory`` budget."""

    reason = "memory"


class QueryCancelledError(BudgetExceededError):
    """The request's budget was cancelled cooperatively mid-flight."""

    reason = "cancelled"


#: reason string → the error class :meth:`repro.resilience.Budget.checkpoint`
#: raises for it.
BUDGET_ERRORS = {
    "deadline": DeadlineExceededError,
    "states": StateBudgetExceededError,
    "memory": MemoryBudgetExceededError,
    "cancelled": QueryCancelledError,
}


def budget_error(reason: str, message: str) -> BudgetExceededError:
    """The typed :class:`BudgetExceededError` for a budget *reason*."""

    return BUDGET_ERRORS.get(reason, BudgetExceededError)(message, reason=reason)
