"""Deadlines, budgets and degradation.

Every request gets a :class:`Budget` (wall-clock deadline, state
budget, memory estimate, cooperative cancel) that propagates from the
session boundary through the engines, the repair search, the compiled
kernel, the ``≤_D`` filter and the SQLite backend; on exhaustion the
request either raises a typed
:class:`~repro.errors.BudgetExceededError` (strict mode) or returns the
partial answer already proven, tagged with a :class:`Degradation`
record (``degrade=True``).

See ``docs/robustness.md`` for the semantics.
"""

from repro.resilience.budget import (
    NULL_BUDGET,
    Budget,
    Degradation,
    active,
    using_budget,
)

__all__ = [
    "Budget",
    "Degradation",
    "NULL_BUDGET",
    "active",
    "using_budget",
]
