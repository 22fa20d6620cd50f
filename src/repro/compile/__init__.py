"""The compile layer: one executable IR from the parser to every engine.

Every hot path of the library — violation detection, the violation
tracker, conjunctive-query answering, residue checks, ASP grounding —
used to re-interpret the constraint/query ASTs per call.  This package
compiles them **once** into a shared executable IR and lets every engine
execute the compiled plans:

* :mod:`repro.compile.matchers` — the single dict-based atom-matching
  routine shared by the naive reference paths;
* :mod:`repro.compile.plans` — the IR (:class:`~repro.compile.plans.JoinPlan`,
  :class:`~repro.compile.plans.AtomStep`): precomputed atom schedules,
  slot-based bindings, specialised per-atom checks, pushed-down null
  guards;
* :mod:`repro.compile.codegen` — the executor: each plan specialised to
  a generated Python generator, built once per process;
* :mod:`repro.compile.kernel` — the compiler and the compiled units
  (constraints with their delta plans, queries, bare bodies, whole
  constraint-set programs), the process-wide memo caches and the
  compilation counters.

``repro.compile`` deliberately re-exports only the matcher helpers and
the IR types at package level; import :mod:`repro.compile.kernel`
directly (the consumers do so lazily) for the compiled units — the
kernel depends on :mod:`repro.core.satisfaction`, which itself imports
these matchers, and the split keeps that layering acyclic.
"""

from repro.compile.matchers import extend_match, match_atom
from repro.compile.plans import AtomStep, JoinPlan, SeedMatcher

__all__ = [
    "extend_match",
    "match_atom",
    "AtomStep",
    "JoinPlan",
    "SeedMatcher",
]
