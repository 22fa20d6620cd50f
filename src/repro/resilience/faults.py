"""The chaos harness: deterministic fault injection at span boundaries.

The observability layer already marks every interesting unit of work
with a span (:func:`repro.obs.trace.span`); the chaos harness reuses
exactly those instrumentation points.  When armed, every ``span()``
call — tracing enabled or not — first consults the process-local
:class:`FaultInjector`, which draws from a seeded RNG and either does
nothing, sleeps a few milliseconds, raises
:class:`~repro.errors.FaultInjectedError`, or kills the process with
``os._exit`` (worker processes only).

The split of fault kinds is deliberate:

* **driver process** — delays only.  An injected exception or kill in
  the driver would fail the *test harness*, not exercise the stack's
  fault tolerance; delays perturb scheduling, which is what the driver
  contributes to a schedule.
* **worker processes** — exceptions, kills and delays.  Exactly the
  failures the sliced ``≤_D`` filter of :mod:`repro.core.parallel`
  (:func:`~repro.core.parallel.parallel_minimal_flags`) must absorb: a
  raised exception fails one slice, a kill breaks the pool
  (``BrokenProcessPool``) and with it every unfinished slice; either
  way the lost slices are recomputed inline.

A schedule is identified by a :class:`FaultSpec` — seed, per-span
probability, kinds, delay — and is deterministic per process given the
process's span-event stream (each process salts the RNG with its own
identity, so two workers do not fail in lockstep).  Arm a schedule for
a ``with`` block::

    from repro.resilience import FaultSpec, chaos

    with chaos(FaultSpec(seed=17, rate=0.02)):
        db.report(query, workers=2)   # ≤_D sliced from 512 candidates

The chaos test suite (``tests/chaos/``, run in CI under
``REPRO_CHAOS=1``) drives ≥ 50 such schedules and asserts the system
invariant: exact answer, or flagged :class:`~repro.resilience.Degradation`
partial — never a wrong answer, a hang, or a leaked process.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import FaultInjectedError
from repro.obs import trace as _trace

#: Environment variable gating the full chaos suite in CI.
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Fault kinds workers may draw.  The driver is always delay-only.
WORKER_KINDS = ("exception", "kill", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """One seeded fault schedule (picklable: handed to pool workers).

    ``rate`` is the per-span-event probability of a fault; ``kinds``
    the kinds workers may draw (the driver only ever delays);
    ``max_faults`` caps faults per process so a schedule cannot starve
    a search forever — crucial for the no-hang half of the chaos
    invariant.
    """

    seed: int
    rate: float = 0.02
    kinds: Tuple[str, ...] = WORKER_KINDS
    delay_seconds: float = 0.003
    max_faults: int = 6
    kill_exit_code: int = 3

    def __post_init__(self):
        unknown = set(self.kinds) - set(WORKER_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kind(s): {', '.join(sorted(unknown))}")


class FaultInjector:
    """Draws faults from a seeded schedule, one decision per span event."""

    __slots__ = ("spec", "allow_kill", "_rng", "events", "fired")

    def __init__(self, spec: FaultSpec, *, salt: int = 0, allow_kill: bool = False):
        self.spec = spec
        self.allow_kill = allow_kill
        # Knuth's multiplicative hash folds the salt (the worker pid) into
        # the seed so processes draw distinct but reproducible schedules.
        self._rng = random.Random(spec.seed * 2_654_435_761 + salt)
        self.events = 0
        self.fired = 0

    def on_span(self, name: str) -> None:
        """The hook :func:`repro.obs.trace.span` calls when armed."""

        self.events += 1
        if self.fired >= self.spec.max_faults:
            return
        if self._rng.random() >= self.spec.rate:
            return
        kind = self._rng.choice(self.spec.kinds)
        if not self.allow_kill:
            # Driver process: only scheduling perturbation is safe here.
            kind = "delay"
        self.fired += 1
        if kind == "delay":
            time.sleep(self.spec.delay_seconds)
        elif kind == "exception":
            raise FaultInjectedError(
                f"injected exception at span {name!r} (event {self.events}, "
                f"seed {self.spec.seed})"
            )
        else:  # kill — simulate a hard worker crash, no cleanup, no excuses
            os._exit(self.spec.kill_exit_code)


#: The armed injector of *this* process (None when chaos is off) and the
#: spec the sliced ``≤_D`` filter hands to the workers of its pool.
_INJECTOR: Optional[FaultInjector] = None
_WORKER_SPEC: Optional[FaultSpec] = None


def _hook(name: str) -> None:
    if _INJECTOR is not None:
        _INJECTOR.on_span(name)


def arm(spec: FaultSpec) -> FaultInjector:
    """Arm *spec* in the driver process (delay-only) and for future pools."""

    global _INJECTOR, _WORKER_SPEC
    _INJECTOR = FaultInjector(spec, salt=0, allow_kill=False)
    _WORKER_SPEC = spec
    _trace.set_fault_hook(_hook)
    return _INJECTOR


def arm_worker(spec: FaultSpec) -> FaultInjector:
    """Arm *spec* inside a pool worker (kills allowed, RNG salted by pid)."""

    global _INJECTOR
    _INJECTOR = FaultInjector(spec, salt=os.getpid(), allow_kill=True)
    _trace.set_fault_hook(_hook)
    return _INJECTOR


def disarm() -> None:
    """Disarm the harness: spans stop consulting any injector."""

    global _INJECTOR, _WORKER_SPEC
    _INJECTOR = None
    _WORKER_SPEC = None
    _trace.set_fault_hook(None)


def armed() -> Optional[FaultInjector]:
    """This process's armed injector, or ``None``."""

    return _INJECTOR


def worker_spec() -> Optional[FaultSpec]:
    """The spec new pool workers must arm, or ``None`` (chaos off)."""

    return _WORKER_SPEC


@contextmanager
def chaos(spec: FaultSpec) -> Iterator[FaultInjector]:
    """Arm *spec* for a ``with`` block; always disarms on exit."""

    injector = arm(spec)
    try:
        yield injector
    finally:
        disarm()


def chaos_enabled() -> bool:
    """Is the full chaos suite requested (``REPRO_CHAOS=1``)?"""

    return os.environ.get(CHAOS_ENV_VAR, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }
