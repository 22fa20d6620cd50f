"""Per-plan code generation: each :class:`JoinPlan` becomes its own executor.

Every compiled plan runs through a *specialized Python generator*
emitted here: the step schedule unrolls into nested ``for`` loops,
constants and slot indices become literals, the null guards inline to
identity checks, and constant-only probes hoist to module-level dicts.
The generated source is ``compile()``d once and cached on the plan
object itself, which lives in the process-wide compile memo next to
:class:`repro.compile.kernel.CompiledConstraint` — so every engine and
every session in the process shares one build.

Executor contract: ``executor(relations, slots, rows, seed_row=None,
initial_values=None)`` yields once per full match; on every yield the
caller-owned ``slots`` hold the variable values at the plan's slots and
``rows`` the matched row per original atom index (both arrays are
reused across matches).  A delta plan's seed row is matched first and a
binding pattern's values are written first; a guard or seed mismatch
yields nothing.  The ambient request budget is checked once per join
*descent*.

The generated executors are the only fast path; the ``naive=True``
nested-loop joins of :mod:`repro.core.satisfaction` and
:mod:`repro.logic.queries` are the reference the property suite pins
them to.  Lint rule INV006 keeps the IR (:mod:`repro.compile.plans`,
:mod:`repro.compile.matchers`) and the kernel-free reference modules
from importing this module, so the dependency only points codegen → IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.compile.plans import AtomStep, JoinPlan
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.relational.domain import NULL, Constant
from repro.resilience import budget as _budget

#: A plan executor: the generated generator function.  Yields once per
#: match, writing the caller-owned ``slots``/``rows`` arrays (see the
#: module docstring for the contract).
PlanExecutor = Callable[..., Iterator[None]]

_EMPTY_PROBE: Dict[int, Constant] = {}

_CODEGEN_BUILDS = _metrics.counter(
    "repro_codegen_plans_total", "join plans specialized to generated source"
)
_CODEGEN_SOURCE_BYTES = _metrics.counter(
    "repro_codegen_source_bytes_total", "bytes of generated plan source compiled"
)

#: Attribute name used to cache the executor on the (frozen) plan object.
#: ``object.__setattr__`` writes through the frozen dataclass guard; the
#: attribute never participates in equality or hashing.
_GENERATED_ATTR = "_codegen_executor"


@dataclass
class CodegenStatistics:
    """Process-wide counters for the plan code generator."""

    plans_generated: int = 0
    source_bytes: int = 0


_STATISTICS = CodegenStatistics()


def codegen_statistics() -> CodegenStatistics:
    """The live process-wide :class:`CodegenStatistics` (not a copy)."""

    return _STATISTICS


def matcher(plan: JoinPlan) -> PlanExecutor:
    """The generated executor for *plan*, built on first use.

    The executor is cached on the plan object, so the steady-state cost
    of this call is one ``__dict__`` probe.
    """

    executor = plan.__dict__.get(_GENERATED_ATTR)
    if executor is None:
        executor = _build(plan)
        object.__setattr__(plan, _GENERATED_ATTR, executor)
    return executor  # type: ignore[no-any-return]


def generated_source(plan: JoinPlan) -> str:
    """The specialized source for *plan* (building and caching the executor).

    Exposed for inspection: docs, tests and the CI artifact step all
    render real generated sources through this.
    """

    return getattr(matcher(plan), "__repro_source__")  # type: ignore[no-any-return]


# --------------------------------------------------------------------- emitter


class _Emitter:
    """Accumulates generated lines plus the closure namespace."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {
            "_NULL": NULL,
            "_active_budget": _budget.active,
            "_EMPTY_PROBE": _EMPTY_PROBE,
        }
        self._n_const = 0
        self._n_names = 0

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * (depth + 1) + text)

    def const(self, value: Constant) -> str:
        """A namespace name bound to *value* (constants never repr-round-trip)."""

        name = f"_k{self._n_const}"
        self._n_const += 1
        self.namespace[name] = value
        return name

    def name(self, prefix: str, value: Any) -> str:
        """A fresh namespace name bound to an arbitrary object."""

        name = f"_{prefix}{self._n_names}"
        self._n_names += 1
        self.namespace[name] = value
        return name

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _null_test(expr: str) -> str:
    """The inlined ``is_null`` check (``NULL`` is a singleton; ``None``
    only appears in never-written slots)."""

    return f"{expr} is _NULL or {expr} is None"


def _emit_row_checks(out: _Emitter, depth: int, row: str, step: AtomStep) -> None:
    """The per-row body of a step: arity, eq, pre-written slots, writes, then guards."""

    out.put(depth, f"if len({row}) != {step.arity}:")
    out.put(depth + 1, "continue")
    for position, first in step.eq:
        out.put(depth, f"if {row}[{position}] != {row}[{first}]:")
        out.put(depth + 1, "continue")
    for position, slot in step.check:
        out.put(depth, f"if {row}[{position}] != slots[{slot}]:")
        out.put(depth + 1, "continue")
    position_of_slot = {slot: position for position, slot in step.writes}
    for position, slot in step.writes:
        out.put(depth, f"slots[{slot}] = {row}[{position}]")
    for slot in step.guard:
        probe = f"{row}[{position_of_slot[slot]}]"
        out.put(depth, f"if {probe} is _NULL or {probe} is None:")
        out.put(depth + 1, "continue")


def _probe_expression(out: _Emitter, step_index: int, plan: JoinPlan) -> str:
    """The probe-map expression for one step.

    Constant-only probes hoist to a prebuilt dict in the namespace;
    probes involving slots become a dict display rebuilt per descent
    (the relation protocol may consume ``bound`` lazily, so sharing a
    mutated dict across descents would not be safe for every adapter).
    """

    step = plan.steps[step_index]
    if not step.const and not step.bound:
        return "_EMPTY_PROBE"
    if not step.bound:
        return out.name("probe", dict(step.const))
    entries = [f"{position}: {out.const(value)}" for position, value in step.const]
    entries += [f"{position}: slots[{slot}]" for position, slot in step.bound]
    return "{" + ", ".join(entries) + "}"


def _generate(plan: JoinPlan) -> Tuple[str, Dict[str, Any]]:
    """Emit the specialized generator source + closure namespace for *plan*."""

    out = _Emitter()
    out.lines.append(
        "def _plan_matches(relations, slots, rows, seed_row=None, initial_values=None):"
    )

    seed = plan.seed
    if seed is not None:
        out.put(0, f"if seed_row is None or len(seed_row) != {seed.arity}:")
        out.put(1, "return")
        for position, value in seed.const:
            out.put(0, f"if seed_row[{position}] != {out.const(value)}:")
            out.put(1, "return")
        for position, first in seed.eq:
            out.put(0, f"if seed_row[{position}] != seed_row[{first}]:")
            out.put(1, "return")
        position_of_slot = {slot: position for position, slot in seed.writes}
        for position, slot in seed.writes:
            out.put(0, f"slots[{slot}] = seed_row[{position}]")
        for slot in seed.guard:
            out.put(0, f"if {_null_test(f'seed_row[{position_of_slot[slot]}]')}:")
            out.put(1, "return")
        out.put(0, f"rows[{seed.atom_index}] = seed_row")

    if plan.initial:
        for variable, slot in plan.initial:
            out.put(0, f"slots[{slot}] = initial_values[{out.name('var', variable)}]")
        for slot in plan.initial_guard:
            out.put(0, f"if {_null_test(f'slots[{slot}]')}:")
            out.put(1, "return")

    steps = plan.steps
    if not steps:
        out.put(0, "yield")
        out.put(0, "return")
        return out.source(), out.namespace

    out.put(0, "_budget = _active_budget()")
    out.put(0, "_tm = relations.tuples_matching")
    last = len(steps) - 1
    for index, step in enumerate(steps):
        depth = index
        if index > 0:
            # One budget checkpoint per join *descent* — after a row
            # matched at the enclosing depth, before the next iterator
            # opens — bounds a runaway cross product without taxing the
            # innermost per-row loop.
            out.put(depth, "if _budget:")
            out.put(depth + 1, "_budget.checkpoint()")
        row = f"_r{index}"
        predicate = out.name("pred", step.predicate)
        out.put(depth, f"for {row} in _tm({predicate}, {_probe_expression(out, index, plan)}):")
        _emit_row_checks(out, depth + 1, row, step)
        out.put(depth + 1, f"rows[{step.atom_index}] = {row}")
        if index == last:
            out.put(depth + 1, "yield")
    return out.source(), out.namespace


def _build(plan: JoinPlan) -> PlanExecutor:
    """Generate, compile and instrument the executor for *plan*."""

    with _trace.span("compile.codegen") as sp:
        source, namespace = _generate(plan)
        code = compile(source, f"<repro-codegen plan@{id(plan):x}>", "exec")
        exec(code, namespace)  # noqa: S102 — our own generated source
        executor: PlanExecutor = namespace["_plan_matches"]
        setattr(executor, "__repro_source__", source)
        _STATISTICS.plans_generated += 1
        _STATISTICS.source_bytes += len(source)
        _CODEGEN_BUILDS.inc()
        _CODEGEN_SOURCE_BYTES.inc(len(source))
        if sp:
            sp.add(steps=len(plan.steps), source_bytes=len(source))
    return executor
