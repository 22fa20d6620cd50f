"""Deadlines, budgets, degradation and chaos testing.

The resilience layer is the substrate the ROADMAP's service front door
sits on: every request gets a :class:`Budget` (wall-clock deadline,
state budget, memory estimate, cooperative cancel) that propagates from
the session boundary through the engines, the repair search, the
compiled kernel, the sliced ``≤_D`` filter and the SQLite backend; on
exhaustion the request either raises a typed
:class:`~repro.errors.BudgetExceededError` (strict mode) or returns the
partial answer already proven, tagged with a :class:`Degradation`
record (``degrade=True``).  The :class:`FaultInjector` chaos harness
drives the failure paths of the sliced ``≤_D`` filter's process pool in
tests.

See ``docs/robustness.md`` for the semantics and
``tests/chaos/`` for the invariant suite.
"""

from repro.resilience.budget import (
    NULL_BUDGET,
    Budget,
    Degradation,
    active,
    using_budget,
)
from repro.resilience.faults import (
    CHAOS_ENV_VAR,
    FaultInjector,
    FaultSpec,
    arm,
    arm_worker,
    armed,
    chaos,
    chaos_enabled,
    disarm,
    worker_spec,
)

__all__ = [
    "Budget",
    "Degradation",
    "NULL_BUDGET",
    "active",
    "using_budget",
    "FaultSpec",
    "FaultInjector",
    "CHAOS_ENV_VAR",
    "arm",
    "arm_worker",
    "armed",
    "chaos",
    "chaos_enabled",
    "disarm",
    "worker_spec",
]
