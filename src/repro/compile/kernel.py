"""The constraint/query compiler: lower ASTs to executable join plans.

One compiler feeds every engine.  A constraint or conjunctive query is
lowered **once** — per process, via the global memo caches at the bottom
of this module — into the IR of :mod:`repro.compile.plans`, and every
subsequent evaluation executes the compiled artifact:

* :class:`CompiledConstraint` — the full violation-enumeration plan of
  an :class:`~repro.constraints.ic.IntegrityConstraint` plus its **delta
  plans**: one seeded plan per body occurrence (the single-changed-fact
  enumeration behind :class:`repro.core.repairs.ViolationTracker`) and
  memoised binding-pattern plans for the lost-witness re-enumeration.
  Head-atom witness checks and the built-in disjunction are specialised
  too (:class:`WitnessProbe`, compiled comparison closures);
* :class:`CompiledQuery` — the join/compare/negate pipeline of a
  :class:`~repro.logic.queries.ConjunctiveQuery`;
* :class:`CompiledBody` — a bare body join, used by
  :func:`repro.core.satisfaction.body_matches` and the ASP grounder
  (:class:`GroundAtomRelations` adapts ground-atom sets to the relation
  protocol, so grounding joins through the same kernel);
* :class:`CompiledProgram` — one unit per constraint of a set, shared
  by :class:`repro.core.repairs.ViolationIndex`, the session façade and
  the production repair search.

Compilation chooses the atom schedule statically (most statically-bound
positions first, from the schema and binding pattern — never re-derived
per call) and resolves constants, repeated variables and
relevant-attribute null guards into specialised per-atom matchers over a
flat slot array; :mod:`repro.compile.codegen` then turns each plan into
its generated executor.  Execution is **bit-for-bit equivalent** to the
``naive=True`` nested-loop reference: the same violation sets (bindings
and ``body_facts`` included), the same query answer sets, and therefore
the same repairs and consistent answers — the property suite
(``tests/property/test_compiled_equivalence.py``) pins this on every
scenario and generator.

:func:`compiler_statistics` counts actual compilations (cache misses);
the session smoke tests assert a session compiles each constraint set at
most once, ever.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.relational.domain import Constant, is_null
from repro.relational.instance import DatabaseInstance, Fact
from repro.constraints.atoms import (
    Atom,
    BuiltinEvaluationError,
    COMPARISON_OPS,
    Comparison,
)
from repro.constraints.ic import (
    AnyConstraint,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable
from repro.core.relevant import relevant_body_variables, relevant_positions
from repro.core.satisfaction import Violation, not_null_violations
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience import budget as _budget
from repro.compile import codegen as _codegen
from repro.compile.plans import (
    AtomStep,
    JoinPlan,
    Relations,
    Row,
    SeedMatcher,
)


# --------------------------------------------------------------------------- statistics
@dataclass
class CompilerStatistics:
    """Process-wide counters of actual compilations (memo-cache misses).

    The tier-1 smoke tests assert that a session compiles each
    constraint set **at most once** over its whole lifetime (mirroring
    the E13 "exactly one tracker build" check): snapshot the counters,
    drive the session, and compare.
    """

    constraints_compiled: int = 0
    queries_compiled: int = 0
    bodies_compiled: int = 0
    programs_compiled: int = 0

    def snapshot(self) -> "CompilerStatistics":
        """An independent copy (for before/after comparisons in tests)."""

        return replace(self)


_STATISTICS = CompilerStatistics()


def compiler_statistics() -> CompilerStatistics:
    """The live process-wide compilation counters (read-only for callers)."""

    return _STATISTICS


# Every sweep and query runs on the row executor, which builds no column
# store, so these two counters are never incremented.  They stay
# registered because perfbench's traced mode reads them by name.
_metrics.counter(
    "repro_columnar_store_builds_total",
    "always 0: no column store is built (name kept for perfbench --trace)",
)
_metrics.counter(
    "repro_columnar_store_rows_total",
    "always 0: no rows are interned (name kept for perfbench --trace)",
)


# --------------------------------------------------------------------------- scheduling
def _static_schedule(
    body: Sequence[Atom], prebound: FrozenSet[Variable], skip: Optional[int]
) -> List[int]:
    """Most-statically-bound-first atom order, fixed at compile time.

    At each step the atom with the most positions already determined
    (constants, plus variables bound by the binding pattern or earlier
    scheduled atoms) goes next; ties break on the original body index.
    Data-dependent tie-breaks (relation sizes) are deliberately absent —
    the schedule must be a pure function of (body, binding pattern) so
    the plan can be compiled once and reused forever.
    """

    remaining = [index for index in range(len(body)) if index != skip]
    order: List[int] = []
    bound: Set[Variable] = set(prebound)

    def score(index: int) -> Tuple[int, int]:
        atom = body[index]
        known = sum(1 for term in atom.terms if not is_variable(term) or term in bound)
        return (-known, index)

    while remaining:
        best = min(remaining, key=score)
        remaining.remove(best)
        order.append(best)
        bound.update(body[best].variables())
    return order


def _slot_layout(body: Sequence[Atom]) -> Dict[Variable, int]:
    """Variable → slot, in order of first occurrence across the body."""

    slots: Dict[Variable, int] = {}
    for atom in body:
        for term in atom.terms:
            if is_variable(term) and term not in slots:
                slots[term] = len(slots)
    return slots


def _build_steps(
    body: Sequence[Atom],
    order: Sequence[int],
    var_slots: Mapping[Variable, int],
    prebound: FrozenSet[Variable],
    guard_vars: FrozenSet[Variable],
    checked: FrozenSet[Variable] = frozenset(),
) -> Tuple[AtomStep, ...]:
    """Specialise each scheduled atom into an :class:`AtomStep`.

    Variables in *prebound* are probed wherever they occur; variables in
    *checked* are pre-written too, but compared per row at their first
    occurrence (and probed after it, like any variable bound earlier).
    """

    steps: List[AtomStep] = []
    bound: Set[Variable] = set(prebound)
    for index in order:
        atom = body[index]
        const: List[Tuple[int, Constant]] = []
        bound_checks: List[Tuple[int, int]] = []
        eq: List[Tuple[int, int]] = []
        check: List[Tuple[int, int]] = []
        writes: List[Tuple[int, int]] = []
        guard: List[int] = []
        first: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if not is_variable(term):
                const.append((position, term))
            elif term in bound:
                bound_checks.append((position, var_slots[term]))
            elif term in first:
                eq.append((position, first[term]))
            elif term in checked:
                first[term] = position
                check.append((position, var_slots[term]))
            else:
                first[term] = position
                slot = var_slots[term]
                writes.append((position, slot))
                if term in guard_vars:
                    guard.append(slot)
        bound.update(first)
        steps.append(
            AtomStep(
                atom_index=index,
                predicate=atom.predicate,
                arity=atom.arity,
                const=tuple(const),
                bound=tuple(bound_checks),
                eq=tuple(eq),
                writes=tuple(writes),
                guard=tuple(guard),
                check=tuple(check),
            )
        )
    return tuple(steps)


def _build_seed_matcher(
    atom: Atom,
    index: int,
    var_slots: Mapping[Variable, int],
    guard_vars: FrozenSet[Variable],
) -> SeedMatcher:
    """A matcher pinning body atom *index* to a concrete seed row."""

    const: List[Tuple[int, Constant]] = []
    eq: List[Tuple[int, int]] = []
    writes: List[Tuple[int, int]] = []
    guard: List[int] = []
    first: Dict[Variable, int] = {}
    for position, term in enumerate(atom.terms):
        if not is_variable(term):
            const.append((position, term))
        elif term in first:
            eq.append((position, first[term]))
        else:
            first[term] = position
            slot = var_slots[term]
            writes.append((position, slot))
            if term in guard_vars:
                guard.append(slot)
    return SeedMatcher(
        atom_index=index,
        arity=atom.arity,
        const=tuple(const),
        eq=tuple(eq),
        writes=tuple(writes),
        guard=tuple(guard),
    )


# --------------------------------------------------------------------------- comparisons
def _value_spec(
    term: object, var_slots: Mapping[Variable, int]
) -> Optional[Tuple[Optional[int], Optional[Constant]]]:
    """(slot, None) for a slotted variable, (None, const) for a constant.

    ``None`` (the whole spec) marks a variable without a slot — an
    unbound comparison variable, which can never be satisfied (mirrors
    the reference evaluator's "not ground" :class:`BuiltinEvaluationError`).
    """

    if is_variable(term):
        slot = var_slots.get(term)  # type: ignore[call-overload]
        if slot is None:
            return None
        return (slot, None)
    return (None, term)  # type: ignore[return-value]


def compile_disjunct(
    comparison: Comparison, var_slots: Mapping[Variable, int]
) -> Callable[[Sequence[Constant]], bool]:
    """One disjunct of a constraint's built-in ``ϕ`` as a slot predicate.

    Exactly the semantics of
    :func:`repro.core.satisfaction._comparison_disjunction_holds` over
    :meth:`~repro.constraints.atoms.Comparison.evaluate`: ``null`` only
    supports (in)equality, anything unevaluable counts as *not
    satisfied*.
    """

    op = comparison.op
    op_fn = COMPARISON_OPS[op]
    left_spec = _value_spec(comparison.left, var_slots)
    right_spec = _value_spec(comparison.right, var_slots)
    if left_spec is None or right_spec is None:
        return lambda slots: False
    left_slot, left_const = left_spec
    right_slot, right_const = right_spec

    def satisfied(slots: Sequence[Constant]) -> bool:
        left = slots[left_slot] if left_slot is not None else left_const
        right = slots[right_slot] if right_slot is not None else right_const
        if is_null(left) or is_null(right):
            if op == "=":
                return is_null(left) and is_null(right)
            if op == "!=":
                return not (is_null(left) and is_null(right))
            return False  # order comparison on null: unevaluable, not satisfied
        try:
            return op_fn(left, right)
        except TypeError:
            return False  # incomparable values: unevaluable, not satisfied

    return satisfied


def compile_query_comparison(
    comparison: Comparison, var_slots: Mapping[Variable, int]
) -> Callable[[Sequence[Constant], bool], bool]:
    """A query comparison as a (slots, null_is_unknown) → bool predicate.

    Mirrors :func:`repro.logic.queries._comparisons_hold` for one
    comparison: ``null_is_unknown`` collapses any null comparison to
    False (SQL), otherwise null supports (in)equality only; genuinely
    incomparable non-null values still raise
    :class:`~repro.constraints.atoms.BuiltinEvaluationError`, exactly
    like the naive evaluator.
    """

    op = comparison.op
    op_fn = COMPARISON_OPS[op]
    left_spec = _value_spec(comparison.left, var_slots)
    right_spec = _value_spec(comparison.right, var_slots)
    if left_spec is None or right_spec is None:
        # Unreachable for safe queries (every comparison variable occurs
        # in a positive atom); mirror the naive evaluator's hard failure.
        def unbound(slots: Sequence[Constant], null_is_unknown: bool) -> bool:
            raise BuiltinEvaluationError(f"comparison {comparison!r} is not ground")

        return unbound
    left_slot, left_const = left_spec
    right_slot, right_const = right_spec

    def holds(slots: Sequence[Constant], null_is_unknown: bool) -> bool:
        left = slots[left_slot] if left_slot is not None else left_const
        right = slots[right_slot] if right_slot is not None else right_const
        if is_null(left) or is_null(right):
            if null_is_unknown:
                return False
            if op == "=":
                return is_null(left) and is_null(right)
            if op == "!=":
                return not (is_null(left) and is_null(right))
            return False  # order comparison on null: caught + rejected upstream
        try:
            return op_fn(left, right)
        except TypeError as exc:
            raise BuiltinEvaluationError(
                f"cannot compare {left!r} and {right!r} with {op!r}"
            ) from exc

    return holds


# --------------------------------------------------------------------------- witnesses
class WitnessProbe:
    """A specialised head-atom witness check (Definition 3's kept set).

    Compile-time: the kept positions are split into constants (probe
    literals), body variables (probe slots) and repeated existential
    variables (per-row consistency groups).  Run-time: one indexed probe
    plus a consistency pass per candidate row — the probe map already
    filtered constants and bound variables, so they are never re-checked.
    """

    __slots__ = ("predicate", "arity", "const", "bound", "groups")

    def __init__(
        self,
        constraint: IntegrityConstraint,
        atom: Atom,
        var_slots: Mapping[Variable, int],
        kept: Sequence[int],
    ) -> None:
        self.predicate = atom.predicate
        self.arity = atom.arity
        body_vars = constraint.body_variables()
        const: List[Tuple[int, Constant]] = []
        bound: List[Tuple[int, int]] = []
        grouped: Dict[Variable, List[int]] = {}
        for position in kept:
            term = atom.terms[position]
            if not is_variable(term):
                const.append((position, term))
            elif term in body_vars:
                bound.append((position, var_slots[term]))
            else:
                grouped.setdefault(term, []).append(position)
        self.const = tuple(const)
        self.bound = tuple(bound)
        self.groups = tuple(
            tuple(positions) for positions in grouped.values() if len(positions) >= 2
        )

    def holds(self, relations: Relations, slots: Sequence[Constant]) -> bool:
        """Does some row of the head predicate witness the current match?"""

        probe = dict(self.const)
        for position, slot in self.bound:
            probe[position] = slots[slot]
        arity = self.arity
        groups = self.groups
        for row in relations.tuples_matching(self.predicate, probe):
            if len(row) != arity:
                continue
            consistent = True
            for group in groups:
                value = row[group[0]]
                for position in group[1:]:
                    if row[position] != value:
                        consistent = False
                        break
                if not consistent:
                    break
            if consistent:
                return True
        return False


# --------------------------------------------------------------------------- constraints
class CompiledConstraint:
    """One integrity constraint, lowered to executable plans.

    Holds the full enumeration plan, one delta plan per body occurrence
    (seeded enumeration), lazily-memoised binding-pattern plans
    (lost-witness re-enumeration), compiled witness probes and compiled
    built-in disjuncts — everything resolved once, at compile time.
    """

    def __init__(self, constraint: IntegrityConstraint) -> None:
        self.constraint = constraint
        body = constraint.body
        self.body_predicates: Tuple[str, ...] = tuple(atom.predicate for atom in body)
        self._var_slots: Dict[Variable, int] = _slot_layout(body)
        self.n_slots = len(self._var_slots)
        self._body_vars: FrozenSet[Variable] = frozenset(self._var_slots)
        self._relevant: FrozenSet[Variable] = relevant_body_variables(constraint)
        #: Violation bindings are reported sorted by variable name.
        self.sorted_bindings: Tuple[Tuple[Variable, int], ...] = tuple(
            sorted(self._var_slots.items(), key=lambda item: item[0].name)
        )

        empty: FrozenSet[Variable] = frozenset()
        order = _static_schedule(body, empty, skip=None)
        self.full_plan = JoinPlan(
            steps=_build_steps(body, order, self._var_slots, empty, self._relevant),
            n_slots=self.n_slots,
            n_atoms=len(body),
            var_slots=tuple(self._var_slots.items()),
        )

        #: One delta plan per body occurrence: the pinned atom's bindings
        #: seed the schedule of the remaining atoms.
        self.seed_plans: Dict[int, JoinPlan] = {}
        by_shape: Dict[Tuple[str, int], List[Tuple[int, JoinPlan]]] = {}
        for index, atom in enumerate(body):
            seeded_vars = frozenset(atom.variables())
            seed_order = _static_schedule(body, seeded_vars, skip=index)
            plan = JoinPlan(
                steps=_build_steps(
                    body, seed_order, self._var_slots, seeded_vars, self._relevant
                ),
                n_slots=self.n_slots,
                n_atoms=len(body),
                var_slots=tuple(self._var_slots.items()),
                seed=_build_seed_matcher(atom, index, self._var_slots, self._relevant),
            )
            self.seed_plans[index] = plan
            by_shape.setdefault((atom.predicate, atom.arity), []).append((index, plan))
        self._seed_plans_by_shape = {
            shape: tuple(plans) for shape, plans in by_shape.items()
        }

        #: Binding-pattern plans, memoised per frozenset of pre-bound
        #: variables (the lost-witness partial assignments of the
        #: tracker pin a fixed variable set per head atom).
        self._partial_plans: Dict[FrozenSet[Variable], JoinPlan] = {}

        positions = relevant_positions(constraint)
        self.witnesses: Tuple[WitnessProbe, ...] = tuple(
            WitnessProbe(
                constraint,
                atom,
                self._var_slots,
                positions.get(atom.predicate, tuple(range(atom.arity))),
            )
            for atom in constraint.head_atoms
        )
        self.comparisons: Tuple[Callable[[Sequence[Constant]], bool], ...] = tuple(
            compile_disjunct(comparison, self._var_slots)
            for comparison in constraint.head_comparisons
        )

    # ------------------------------------------------------------------ execution
    @staticmethod
    def _fast_fact(predicate: str, values: Row) -> Fact:
        """Build a :class:`Fact` from an already-normalised instance row.

        Rows handed out by a :class:`DatabaseInstance` (and seed rows,
        which come from ``Fact.values``) are normalised tuples already,
        so the per-value normalisation of ``Fact.__init__`` is skipped —
        it showed up as a quarter of the violation-enumeration profile.
        """

        fact = Fact.__new__(Fact)
        object.__setattr__(fact, "predicate", predicate)
        object.__setattr__(fact, "values", values)
        return fact

    def _filtered_matches(
        self,
        relations: Relations,
        matches: Iterator[None],
        slots: List[Constant],
    ) -> Iterator[None]:
        """Body matches that survive the built-in and witness conditions.

        *matches* is a generated executor's match iterator over
        caller-owned arrays.  The relevant-null guard already ran inside
        the join (pushed down to the binding step); the remaining
        ``|=_N`` conditions run here, in the reference's order: built-in
        disjunction, then head-atom witnesses.
        """

        comparisons = self.comparisons
        witnesses = self.witnesses
        for _ in matches:
            if comparisons:
                satisfied = False
                for disjunct in comparisons:
                    if disjunct(slots):
                        satisfied = True
                        break
                if satisfied:
                    continue
            if witnesses:
                witnessed = False
                for probe in witnesses:
                    if probe.holds(relations, slots):
                        witnessed = True
                        break
                if witnessed:
                    continue
            yield

    def _emit(
        self,
        relations: Relations,
        plan: JoinPlan,
        seed_row: Optional[Row] = None,
        initial: Optional[Mapping[Variable, Constant]] = None,
    ) -> Iterator[Violation]:
        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * len(self.body_predicates)
        matches = _codegen.matcher(plan)(relations, slots, rows, seed_row, initial)
        bindings_layout = self.sorted_bindings
        predicates = self.body_predicates
        constraint = self.constraint
        fast_fact = self._fast_fact
        for _ in self._filtered_matches(relations, matches, slots):
            bindings = tuple(
                [(variable, slots[slot]) for variable, slot in bindings_layout]
            )
            facts = tuple(
                [
                    fast_fact(predicate, rows[index])  # type: ignore[arg-type]
                    for index, predicate in enumerate(predicates)
                ]
            )
            yield Violation(constraint, bindings, facts)

    def violations(self, relations: Relations) -> List[Violation]:
        """All ground violations, via the full compiled plan."""

        budget = _budget.active()
        if budget:  # full sweeps are the kernel's coarsest unit of work
            budget.checkpoint()
        return list(self._emit(relations, self.full_plan))

    def seeded_violations(self, relations: Relations, fact: Fact) -> Iterator[Violation]:
        """The violations whose body involves *fact* (delta plans).

        Runs the seeded plan of every body occurrence with the fact's
        shape; matches reached through several occurrences are
        deduplicated.
        """

        plans = self._seed_plans_by_shape.get((fact.predicate, fact.arity))
        if not plans:
            return
        seen: Set[Violation] = set()
        for _, plan in plans:
            for violation in self._emit(relations, plan, seed_row=fact.values):
                if violation not in seen:
                    seen.add(violation)
                    yield violation

    def _partial_plan(self, pattern: FrozenSet[Variable]) -> JoinPlan:
        plan = self._partial_plans.get(pattern)
        if plan is None:
            order = _static_schedule(self.constraint.body, pattern, skip=None)
            plan = JoinPlan(
                steps=_build_steps(
                    self.constraint.body, order, self._var_slots, pattern, self._relevant
                ),
                n_slots=self.n_slots,
                n_atoms=len(self.body_predicates),
                var_slots=tuple(self._var_slots.items()),
                initial=tuple(
                    sorted(
                        ((variable, self._var_slots[variable]) for variable in pattern),
                        key=lambda item: item[0].name,
                    )
                ),
                initial_guard=tuple(
                    self._var_slots[variable]
                    for variable in sorted(pattern, key=lambda v: v.name)
                    if variable in self._relevant
                ),
            )
            self._partial_plans[pattern] = plan
        return plan

    def violations_under(
        self, relations: Relations, partial: Mapping[Variable, Constant]
    ) -> Iterator[Violation]:
        """Violations compatible with the *partial* assignment (delta plan).

        Every key of *partial* must be a body variable: the tracker's
        lost-witness assignments pin only universal variables.
        """

        plan = self._partial_plan(frozenset(partial))
        yield from self._emit(relations, plan, initial=partial)

    def has_violation_at(
        self, relations: Relations, index: int, row: Row
    ) -> bool:
        """Is *row*, pinned at body occurrence *index*, part of a violation?

        Early-exit execution of one delta plan — the compiled form of
        the per-fact lookups behind the rewriting residues.
        """

        plan = self.seed_plans[index]
        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * len(self.body_predicates)
        matches = _codegen.matcher(plan)(relations, slots, rows, row)
        for _ in self._filtered_matches(relations, matches, slots):
            return True
        return False


class CompiledNotNull:
    """The (trivial) compiled unit of a NOT-NULL constraint."""

    def __init__(self, constraint: NotNullConstraint) -> None:
        self.constraint = constraint

    def violations(self, relations: DatabaseInstance) -> List[Violation]:
        """Facts with ``null`` at the protected position."""

        return not_null_violations(relations, self.constraint)


CompiledUnit = Union[CompiledConstraint, CompiledNotNull]


# --------------------------------------------------------------------------- queries
_NO_ANSWERS: FrozenSet[Tuple[Constant, ...]] = frozenset()

#: A filter on one match's rows (``rows[i]`` is the row matched by the
#: *i*-th positive atom); the rewriting's residue checks are one.
RowsFilter = Callable[[Sequence[Optional[Row]]], bool]


class CompiledQuery:
    """A conjunctive query lowered to join + compare + negate over slots.

    Three plans share one slot layout: :attr:`plan`, the unbound join
    every answer set runs, and two that decide one candidate tuple with
    the head variables written before the join (``JoinPlan.initial``):
    :attr:`bound_plan` probes the hash indexes with them, while
    :attr:`pinned_plan` keeps :attr:`plan`'s schedule and probes, and
    compares them in the row loop (``AtomStep.check``).
    """

    def __init__(self, query: "ConjunctiveQuery") -> None:  # noqa: F821 (import cycle)
        atoms = query.positive_atoms
        self.query = query
        self._var_slots = _slot_layout(atoms)
        self.n_slots = len(self._var_slots)
        empty: FrozenSet[Variable] = frozenset()
        head: FrozenSet[Variable] = frozenset(query.head_variables)
        order = _static_schedule(atoms, empty, skip=None)
        initial = tuple(
            sorted(
                ((variable, self._var_slots[variable]) for variable in head),
                key=lambda item: item[1],
            )
        )

        def plan_of(
            schedule: Sequence[int], prebound: FrozenSet[Variable], checked: FrozenSet[Variable]
        ) -> JoinPlan:
            return JoinPlan(
                steps=_build_steps(atoms, schedule, self._var_slots, prebound, empty, checked),
                n_slots=self.n_slots,
                n_atoms=len(atoms),
                var_slots=tuple(self._var_slots.items()),
                initial=initial if prebound or checked else (),
            )

        self.plan = plan_of(order, empty, empty)
        self.bound_plan = self.pinned_plan = self.plan
        if head:
            self.bound_plan = plan_of(_static_schedule(atoms, head, skip=None), head, empty)
            self.pinned_plan = plan_of(order, empty, head)
        #: The relations the bound plan reads through their hash index.
        self._bound_probes: Tuple[str, ...] = tuple(
            dict.fromkeys(
                step.predicate for step in self.bound_plan.steps if step.const or step.bound
            )
        )
        self.comparisons = tuple(
            compile_query_comparison(comparison, self._var_slots)
            for comparison in query.comparisons
        )
        #: Per negated atom: (predicate, ((slot | None, constant), ...)).
        self.negatives: Tuple[Tuple[str, Tuple[Tuple[Optional[int], Optional[Constant]], ...]], ...] = tuple(
            (
                atom.predicate,
                tuple(
                    (self._var_slots[term], None) if is_variable(term) else (None, term)
                    for term in atom.terms
                ),
            )
            for atom in query.negative_atoms
        )
        self.head_slots: Tuple[int, ...] = tuple(
            self._var_slots[variable] for variable in query.head_variables
        )

    def answers(
        self,
        instance: DatabaseInstance,
        null_is_unknown: bool = False,
        candidate: Optional[Sequence[Constant]] = None,
        keep: Optional[RowsFilter] = None,
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """The query's answer set — the same set as the naive evaluator's.

        *keep*, when given, must accept a match's rows for its answer to
        count.  *candidate* decides one tuple instead of building the
        set: the result is ``{candidate}`` or ``∅``, from a run that stops
        at the first match producing it (see :meth:`_select`).
        """

        if candidate is not None or keep is not None:
            return self._select(instance, null_is_unknown, candidate, keep)
        results: Set[Tuple[Constant, ...]] = set()
        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * self.plan.n_atoms
        comparisons = self.comparisons
        negatives = self.negatives
        head_slots = self.head_slots
        for _ in _codegen.matcher(self.plan)(instance, slots, rows):
            ok = True
            for check in comparisons:
                if not check(slots, null_is_unknown):
                    ok = False
                    break
            if not ok:
                continue
            for predicate, specs in negatives:
                values = tuple(
                    slots[slot] if slot is not None else constant
                    for slot, constant in specs
                )
                if instance.contains_tuple(predicate, values):
                    ok = False
                    break
            if not ok:
                continue
            results.add(tuple(slots[slot] for slot in head_slots))
        return frozenset(results)

    def matches(
        self, instance: DatabaseInstance, null_is_unknown: bool = False
    ) -> Iterator[Tuple[Tuple[Constant, ...], Tuple[Optional[Row], ...]]]:
        """Yield (answer, rows) per match of :attr:`plan` whose comparisons hold.

        ``rows[i]`` is the row matched by the *i*-th positive atom.  The
        loop of :meth:`answers` without the negation check: the caller
        decides what a match's rows mean (``core/cqa.py`` reads them as
        the facts one answer needs).
        """

        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * self.plan.n_atoms
        comparisons = self.comparisons
        head_slots = self.head_slots
        for _ in _codegen.matcher(self.plan)(instance, slots, rows):
            for check in comparisons:
                if not check(slots, null_is_unknown):
                    break
            else:
                yield tuple(slots[slot] for slot in head_slots), tuple(rows)

    def _passes(
        self, instance: DatabaseInstance, slots: Sequence[Constant], null_is_unknown: bool
    ) -> bool:
        """Do the comparisons and negated atoms accept the current match?

        :meth:`answers` inlines the same checks: its loop runs once per
        match on every repair of every enumerating request.
        """

        for check in self.comparisons:
            if not check(slots, null_is_unknown):
                return False
        for predicate, specs in self.negatives:
            values = tuple(
                slots[slot] if slot is not None else constant for slot, constant in specs
            )
            if instance.contains_tuple(predicate, values):
                return False
        return True

    def _select(
        self,
        instance: DatabaseInstance,
        null_is_unknown: bool,
        candidate: Optional[Sequence[Constant]],
        keep: Optional[RowsFilter],
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """The answers whose matches *keep* accepts, or the decision of *candidate*.

        A candidate of the wrong arity, or with unequal values for a
        repeated head variable, is no answer.  Otherwise its values are
        written into the head slots and run through :attr:`bound_plan`
        when *instance* already holds the hash index of every relation
        that plan probes (a session's own instance), else through
        :attr:`pinned_plan` (a repair, whose relations touched by its
        delta have no index), which compares them in the row loop —
        before comparisons, negation and *keep*.  So a decision builds no
        index the answer set would not, and it stops at the first match
        that survives every filter.
        """

        plan = self.plan
        initial: Optional[Dict[Variable, Constant]] = None
        answer: Optional[Tuple[Constant, ...]] = None
        if candidate is not None:
            answer = tuple(candidate)
            if len(answer) != len(self.head_slots):
                return _NO_ANSWERS
            values: Dict[int, Constant] = {}
            for slot, value in zip(self.head_slots, answer):
                if slot not in values:
                    values[slot] = value
                elif values[slot] != value:
                    return _NO_ANSWERS
            if all(instance.indexed(predicate) for predicate in self._bound_probes):
                plan = self.bound_plan
            else:
                plan = self.pinned_plan
            initial = {variable: values[slot] for variable, slot in plan.initial}
        results: Set[Tuple[Constant, ...]] = set()
        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * plan.n_atoms
        head_slots = self.head_slots
        for _ in _codegen.matcher(plan)(instance, slots, rows, None, initial):
            if not self._passes(instance, slots, null_is_unknown):
                continue
            if keep is not None and not keep(rows):
                continue
            if answer is not None:
                return frozenset((answer,))
            results.add(tuple(slots[slot] for slot in head_slots))
        return frozenset(results)


# --------------------------------------------------------------------------- bodies
class CompiledBody:
    """A bare body join (no constraint semantics): assignments + facts."""

    def __init__(self, atoms: Tuple[Atom, ...]) -> None:
        self.atoms = atoms
        self._var_slots = _slot_layout(atoms)
        self.n_slots = len(self._var_slots)
        empty: FrozenSet[Variable] = frozenset()
        order = _static_schedule(atoms, empty, skip=None)
        self.plan = JoinPlan(
            steps=_build_steps(atoms, order, self._var_slots, empty, empty),
            n_slots=self.n_slots,
            n_atoms=len(atoms),
            var_slots=tuple(self._var_slots.items()),
        )
        self._layout: Tuple[Tuple[Variable, int], ...] = tuple(self._var_slots.items())

    def iter_assignments(self, relations: Relations) -> Iterator[Dict[Variable, Constant]]:
        """Yield one assignment dict per body match."""

        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * self.plan.n_atoms
        layout = self._layout
        for _ in _codegen.matcher(self.plan)(relations, slots, rows):
            yield {variable: slots[slot] for variable, slot in layout}

    def iter_matches(
        self, relations: Relations
    ) -> Iterator[Tuple[Dict[Variable, Constant], Tuple[Fact, ...]]]:
        """Yield (assignment, facts-in-atom-order) per body match."""

        slots: List[Constant] = [None] * self.n_slots  # type: ignore[list-item]
        rows: List[Optional[Row]] = [None] * self.plan.n_atoms
        layout = self._layout
        atoms = self.atoms
        for _ in _codegen.matcher(self.plan)(relations, slots, rows):
            yield (
                {variable: slots[slot] for variable, slot in layout},
                tuple(
                    Fact(atom.predicate, rows[index])  # type: ignore[arg-type]
                    for index, atom in enumerate(atoms)
                ),
            )


class GroundAtomRelations(Relations):
    """Adapt grouped ground-atom sets to the plan executor's protocol.

    The ASP grounder holds its derivable atoms grouped by (predicate,
    arity); this view exposes them as relations so rule bodies join
    through the same compiled kernel as constraints and queries.  Rows
    of a predicate may mix arities (unlike a schema-checked instance) —
    the per-step arity check of the executor handles that.
    """

    def __init__(self, grouped: Mapping[Tuple[str, int], Iterable[Atom]]) -> None:
        self._rows: Dict[str, List[Row]] = {}
        for (predicate, _arity), atoms in grouped.items():
            self._rows.setdefault(predicate, []).extend(atom.terms for atom in atoms)

    def tuples_matching(
        self, predicate: str, bound: Mapping[int, Constant]
    ) -> Iterable[Row]:
        rows = self._rows.get(predicate, ())
        if not bound:
            return rows
        items = tuple(bound.items())
        return [
            row
            for row in rows
            if all(position < len(row) and row[position] == value for position, value in items)
        ]


# --------------------------------------------------------------------------- programs
class CompiledProgram:
    """One compiled unit per constraint of a set, index-aligned.

    Built once per constraint set per process (see
    :func:`compile_program`); :class:`repro.core.repairs.ViolationIndex`
    carries it so the violation tracker and the repair search share
    the same compiled plans.
    """

    def __init__(self, constraints: Tuple[AnyConstraint, ...]) -> None:
        self.constraints = constraints
        self.units: Tuple[CompiledUnit, ...] = tuple(
            compiled_constraint(constraint) for constraint in constraints
        )

    def unit(self, index: int) -> CompiledUnit:
        """The compiled unit of the *index*-th constraint."""

        return self.units[index]

    def all_violations(self, relations: Relations) -> List[Violation]:
        """Violations of every constraint, in constraint order."""

        found: List[Violation] = []
        for unit in self.units:
            found.extend(unit.violations(relations))  # type: ignore[arg-type]
        return found


# --------------------------------------------------------------------------- memo caches
@lru_cache(maxsize=4096)
def compiled_constraint(constraint: AnyConstraint) -> CompiledUnit:
    """The compiled unit of *constraint* — compiled once per process, ever."""

    _STATISTICS.constraints_compiled += 1
    _metrics.counter(
        "repro_compile_constraints_total", "constraint compilations (memo misses)"
    ).inc()
    with _trace.span("compile.constraint") as sp:
        if sp:
            sp.add(constraint=str(constraint))
        if isinstance(constraint, NotNullConstraint):
            return CompiledNotNull(constraint)
        return CompiledConstraint(constraint)


@lru_cache(maxsize=2048)
def compiled_query(query: "ConjunctiveQuery") -> CompiledQuery:  # noqa: F821
    """The compiled form of *query* — compiled once per process, ever."""

    _STATISTICS.queries_compiled += 1
    _metrics.counter(
        "repro_compile_queries_total", "query compilations (memo misses)"
    ).inc()
    with _trace.span("compile.query") as sp:
        if sp:
            sp.add(query=str(query))
        return CompiledQuery(query)


@lru_cache(maxsize=2048)
def compiled_body(atoms: Tuple[Atom, ...]) -> CompiledBody:
    """The compiled join of a bare atom sequence (grounding, body_matches)."""

    _STATISTICS.bodies_compiled += 1
    _metrics.counter(
        "repro_compile_bodies_total", "bare-body compilations (memo misses)"
    ).inc()
    with _trace.span("compile.body"):
        return CompiledBody(atoms)


@lru_cache(maxsize=512)
def compile_program(constraints: Tuple[AnyConstraint, ...]) -> CompiledProgram:
    """The compiled program of a constraint tuple — once per set per process.

    The per-constraint units come from :func:`compiled_constraint`, so
    two programs over overlapping sets share their common units.
    """

    _STATISTICS.programs_compiled += 1
    _metrics.counter(
        "repro_compile_programs_total", "program compilations (memo misses)"
    ).inc()
    with _trace.span("compile.program") as sp:
        if sp:
            sp.add(constraints=len(constraints))
        return CompiledProgram(constraints)

