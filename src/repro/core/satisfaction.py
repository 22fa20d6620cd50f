"""The satisfaction relation ``|=_N`` (Definitions 4–5) and violation enumeration.

Two implementations are provided:

* the **faithful** one, :func:`satisfies_via_projection`, literally builds
  ``D^{A(ψ)}`` and ``ψ_N`` and evaluates the formula with the generic
  first-order evaluator — this is Definition 4 verbatim;
* the **direct** one, :func:`violations`, enumerates the ground violations
  of a constraint without materialising the projection.  It is what the
  repair engine and the benchmarks use, because it also reports *which*
  antecedent facts participate in each violation (the information the
  repair search branches on, mirroring the ground repair-program rules).

The two are equivalent and cross-validated by the test-suite:
``satisfies(D, ψ)`` (no violations) iff ``satisfies_via_projection(D, ψ)``.

The direct enumeration executes **compiled plans** by default: each
constraint is lowered once (per process) by :mod:`repro.compile.kernel`
into a join plan with a precomputed atom schedule, slot-based bindings
and specialised per-atom matchers, and every call after that runs the
plan — through the per-plan generated executor of
:mod:`repro.compile.codegen` (on by default; see
``docs/kernel-codegen.md`` for the fallback knob).  Two interpreted
paths survive for cross-validation: the original
nested-loop joins behind ``naive=True``, and the per-call index-backed
join (:func:`indexed_body_matches` + :func:`violation_filter`) behind
``compiled=False``.  All three produce the same violation sets.  The
seeded variants (:func:`seeded_violations`,
:func:`violations_under_assignment`) restrict the join to matches
involving one given fact / partial assignment through the compiled
**delta plans** — the violation maintenance of
:mod:`repro.core.repairs` is built on them, and so is the parallel
frontier search of :mod:`repro.core.parallel`: every worker process
keeps its own :class:`~repro.core.repairs.ViolationTracker` warm by
replaying task deltas through exactly these seeded updates, so a task
never pays a full violation sweep.

(Paper cross-reference: Definition 4 is
:func:`satisfies_via_projection`, Definition 3's witness-relevant
positions are :func:`witness_positions` — see ``docs/paper-map.md`` for
the full map.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.obs import trace as _trace
from repro.relational.domain import Constant, is_null
from repro.resilience import budget as _budget
from repro.relational.instance import DatabaseInstance, Fact
from repro.constraints.atoms import Atom, BuiltinEvaluationError, Comparison
from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable
from repro.compile.matchers import extend_match
from repro.core.projection import project_for_constraint
from repro.core.relevant import relevant_body_variables, relevant_positions
from repro.core.transform import null_aware_formula
from repro.logic.evaluation import holds


Assignment = Dict[Variable, Constant]


@dataclass(frozen=True)
class Violation:
    """One ground violation of a constraint.

    ``bindings`` is the assignment of the antecedent variables obtained by
    matching the antecedent atoms against concrete facts; ``body_facts``
    are those facts, in the order of the constraint's antecedent atoms.
    For a NOT-NULL constraint the assignment is empty and ``body_facts``
    holds the single offending fact.
    """

    constraint: AnyConstraint
    bindings: Tuple[Tuple[Variable, Constant], ...]
    body_facts: Tuple[Fact, ...]

    @cached_property
    def assignment(self) -> Assignment:
        """The variable assignment as a dictionary (memoised).

        The repair search reads this in its innermost loop;
        ``cached_property`` stores the dict in the instance ``__dict__``,
        which bypasses the frozen-dataclass ``__setattr__`` guard and does
        not participate in equality or hashing.  Treat the result as
        read-only — it is shared between accesses.
        """

        return dict(self.bindings)

    def __hash__(self) -> int:  # cached: violations are hashed per search state
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.constraint, self.bindings, self.body_facts))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        assign = ", ".join(f"{v.name}={value!r}" for v, value in self.bindings)
        return f"Violation({self.constraint!r}; {assign}; facts={list(self.body_facts)})"


# --------------------------------------------------------------------------- joins
def body_matches(
    instance: DatabaseInstance,
    body: Sequence[Atom],
    naive: bool = False,
    compiled: Optional[bool] = None,
) -> Iterator[Tuple[Assignment, Tuple[Fact, ...]]]:
    """Enumerate the matches of the antecedent atoms against the instance.

    ``null`` is treated as an ordinary constant (it joins with itself),
    exactly as in the evaluation of ``ψ_N`` over ``D^A`` (Example 12).

    By default the body is lowered once into a compiled join plan
    (:func:`repro.compile.kernel.compiled_body` — schedule, slots and
    per-atom matchers fixed at compile time) and every call executes the
    plan.  ``compiled=False`` selects the per-call index-backed
    interpreter, ``naive=True`` the original left-to-right nested-loop
    join — both kept as reference paths for cross-validation.  All
    paths produce the same set of matches (``body_facts`` always in
    antecedent-atom order); only the enumeration order may differ.
    """

    if compiled is None:
        compiled = not naive
    if naive:
        yield from _body_matches_naive(instance, body)
    elif compiled:
        from repro.compile.kernel import compiled_body

        yield from compiled_body(tuple(body)).iter_matches(instance)
    else:
        yield from indexed_body_matches(instance, body)


def _body_matches_naive(
    instance: DatabaseInstance, body: Sequence[Atom]
) -> Iterator[Tuple[Assignment, Tuple[Fact, ...]]]:
    def extend(
        index: int, assignment: Assignment, facts: Tuple[Fact, ...]
    ) -> Iterator[Tuple[Assignment, Tuple[Fact, ...]]]:
        if index == len(body):
            yield dict(assignment), facts
            return
        atom = body[index]
        for row in instance.tuples(atom.predicate):
            extended = _match_atom(atom, row, assignment)
            if extended is None:
                continue
            yield from extend(index + 1, extended, facts + (Fact(atom.predicate, row),))

    yield from extend(0, {}, ())


def indexed_body_matches(
    instance: DatabaseInstance,
    body: Sequence[Atom],
    initial: Optional[Mapping[Variable, Constant]] = None,
    fixed: Optional[Mapping[int, Fact]] = None,
) -> Iterator[Tuple[Assignment, Tuple[Fact, ...]]]:
    """Index-backed enumeration of the antecedent matches.

    *initial* seeds the assignment (e.g. with the universal variables a
    deleted witness used to pin down); *fixed* pins body atoms (by index)
    to concrete facts — the basis of the tracker's seeded enumeration.
    At every step the join extends the **most-bound** remaining atom
    (most positions already determined, then smallest relation), probing
    the per-position hash indexes instead of scanning.
    """

    count = len(body)
    facts: List[Optional[Fact]] = [None] * count
    assignment: Assignment = dict(initial) if initial else {}
    remaining = []
    for index, atom in enumerate(body):
        if fixed is not None and index in fixed:
            fact = fixed[index]
            extended = _match_atom(atom, fact.values, assignment)
            if extended is None:
                return
            assignment = extended
            facts[index] = fact
        else:
            remaining.append(index)

    def extend(
        remaining: Sequence[int], assignment: Assignment
    ) -> Iterator[Tuple[Assignment, Tuple[Fact, ...]]]:
        if not remaining:
            yield dict(assignment), tuple(facts)  # type: ignore[arg-type]
            return
        best = min(
            remaining,
            key=lambda i: (
                -len(body[i].bound_positions(assignment)),
                instance.row_count(body[i].predicate),
                i,
            ),
        )
        atom = body[best]
        rest = [i for i in remaining if i != best]
        bound = atom.bound_positions(assignment)
        for row in instance.tuples_matching(atom.predicate, bound):
            extended = _match_atom(atom, row, assignment)
            if extended is None:
                continue
            facts[best] = Fact(atom.predicate, row)
            yield from extend(rest, extended)
        facts[best] = None

    yield from extend(remaining, assignment)


#: The one atom-matching routine, shared with :mod:`repro.logic.queries`
#: and the rewriting residues so null/constant/repeated-variable
#: semantics can never drift between the layers (the compiled kernel
#: specialises the same semantics at compile time).
_match_atom = extend_match


def row_witnesses_atom(
    atom: Atom,
    row: Tuple[Constant, ...],
    assignment: Mapping[Variable, Constant],
    positions: Sequence[int],
) -> bool:
    """Does *row* match *atom* on *positions* under *assignment*?

    Universal variables take their value from *assignment*; existential
    variables merely have to be consistent across their occurrences within
    the atom (Example 13); constants must match literally.  Positions not
    listed are ignored — they were projected away.
    """

    if len(row) != atom.arity:
        return False
    existential_binding: Dict[Variable, Constant] = {}
    for position in positions:
        term = atom.terms[position]
        value = row[position]
        if is_variable(term):
            if term in assignment:
                if assignment[term] != value:
                    return False
            else:
                bound = existential_binding.get(term)
                if bound is None and term not in existential_binding:
                    existential_binding[term] = value
                elif bound != value:
                    return False
        elif term != value:
            return False
    return True


def _head_atom_has_witness(
    instance: DatabaseInstance,
    atom: Atom,
    assignment: Assignment,
    positions: Sequence[int],
    naive: bool = False,
) -> bool:
    """Does some tuple of ``atom.predicate`` match the atom on *positions*?

    The indexed path probes the hash index on the witness positions whose
    value is already pinned (universal variables and constants) and only
    re-checks the existential-consistency part per candidate row.
    """

    if naive:
        rows: Iterable[Tuple[Constant, ...]] = instance.tuples(atom.predicate)
    else:
        bound = atom.bound_positions(assignment, positions)
        rows = instance.tuples_matching(atom.predicate, bound)
    for row in rows:
        if row_witnesses_atom(atom, row, assignment, positions):
            return True
    return False


def _comparison_disjunction_holds(
    comparisons: Sequence[Comparison], assignment: Assignment
) -> bool:
    """Evaluate the built-in disjunction ``ϕ`` under *assignment*.

    Every variable of ``ϕ`` is relevant, so when this is reached none of
    them is ``null``; a comparison that still cannot be evaluated (e.g.
    a string compared with a number) counts as not satisfied.
    """

    for comparison in comparisons:
        try:
            if comparison.evaluate(assignment):
                return True
        except BuiltinEvaluationError:
            continue
    return False


# --------------------------------------------------------------------------- |=_N
def violations(
    instance: DatabaseInstance,
    constraint: AnyConstraint,
    naive: bool = False,
    compiled: Optional[bool] = None,
) -> List[Violation]:
    """All ground violations of *constraint* in *instance* under ``|=_N``.

    The default executes the constraint's compiled plan
    (:func:`repro.compile.kernel.compiled_constraint` — lowered once per
    process).  ``compiled=False`` selects the per-call index-backed
    interpreter and ``naive=True`` the unindexed nested-loop joins (the
    original reference implementation).  All three return the same
    violations, possibly in a different order.
    """

    if isinstance(constraint, NotNullConstraint):
        return not_null_violations(instance, constraint)
    if compiled is None:
        compiled = not naive
    if compiled and not naive:
        from repro.compile.kernel import compiled_constraint

        return compiled_constraint(constraint).violations(instance)
    return _ic_violations(instance, constraint, naive=naive)


def not_null_violations(
    instance: DatabaseInstance, constraint: NotNullConstraint
) -> List[Violation]:
    """Facts of the constrained predicate with ``null`` at the protected position."""

    found: List[Violation] = []
    for fact in instance.facts(constraint.predicate):
        if constraint.position < fact.arity and is_null(fact.values[constraint.position]):
            found.append(Violation(constraint, (), (fact,)))
    return found


@lru_cache(maxsize=4096)
def _cached_relevant_positions(
    constraint: IntegrityConstraint,
) -> Dict[str, Tuple[int, ...]]:
    """Memoised :func:`relevant_positions` (treated as read-only by callers)."""

    return relevant_positions(constraint)


@lru_cache(maxsize=4096)
def _cached_relevant_body_variables(
    constraint: IntegrityConstraint,
) -> FrozenSet[Variable]:
    """Memoised :func:`relevant_body_variables`."""

    return relevant_body_variables(constraint)


def witness_positions(constraint: IntegrityConstraint, atom: Atom) -> Tuple[int, ...]:
    """The positions a witness for *atom* must agree on (Definition 3's kept set)."""

    positions = _cached_relevant_positions(constraint)
    return positions.get(atom.predicate, tuple(range(atom.arity)))


def violation_filter(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    matches: Iterable[Tuple[Assignment, Tuple[Fact, ...]]],
    naive: bool = False,
) -> Iterator[Violation]:
    """Keep the body *matches* that are genuine ground violations.

    Applies, in order, the relevant-null guard, the built-in disjunction
    and the head-atom witness check — the three conditions of ``|=_N`` —
    and yields a :class:`Violation` for every match that fails all of
    them.  Shared by the full and the seeded enumerations.
    """

    relevant_vars = _cached_relevant_body_variables(constraint)
    for assignment, facts in matches:
        if any(is_null(assignment[v]) for v in relevant_vars):
            continue  # a null in a relevant antecedent attribute: satisfied
        if _comparison_disjunction_holds(constraint.head_comparisons, assignment):
            continue
        witnessed = False
        for atom in constraint.head_atoms:
            kept = witness_positions(constraint, atom)
            if _head_atom_has_witness(instance, atom, assignment, kept, naive=naive):
                witnessed = True
                break
        if witnessed:
            continue
        bindings = tuple(sorted(assignment.items(), key=lambda item: item[0].name))
        yield Violation(constraint, bindings, facts)


def _ic_violations(
    instance: DatabaseInstance, constraint: IntegrityConstraint, naive: bool = False
) -> List[Violation]:
    # The interpreted reference paths: compiled=False keeps the body
    # join interpreted too, so cross-validation against the kernel is
    # never circular.
    return list(
        violation_filter(
            instance,
            constraint,
            body_matches(instance, constraint.body, naive=naive, compiled=False),
            naive=naive,
        )
    )


# ------------------------------------------------------------------- seeded
def seeded_violations(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    fact: Fact,
    compiled: bool = True,
) -> Iterator[Violation]:
    """The violations of *constraint* whose body involves *fact*.

    Pins *fact* at every antecedent atom of the same predicate in turn
    and joins the remaining atoms; matches using the fact at several
    occurrences are deduplicated.  After inserting *fact* this yields
    exactly the violations created by the insertion.  The default runs
    the constraint's compiled **delta plans** (one per body occurrence,
    schedule seeded from the pinned atom's bindings);
    ``compiled=False`` keeps the per-call interpreted enumeration as
    the cross-validation reference.
    """

    if compiled:
        from repro.compile.kernel import compiled_constraint

        yield from compiled_constraint(constraint).seeded_violations(instance, fact)
        return
    seen: Set[Violation] = set()
    for index, atom in enumerate(constraint.body):
        if atom.predicate != fact.predicate or atom.arity != fact.arity:
            continue
        matches = indexed_body_matches(instance, constraint.body, fixed={index: fact})
        for violation in violation_filter(instance, constraint, matches):
            if violation not in seen:
                seen.add(violation)
                yield violation


def violations_under_assignment(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    partial: Mapping[Variable, Constant],
    compiled: bool = True,
) -> Iterator[Violation]:
    """The violations of *constraint* compatible with the *partial* assignment.

    Used after deleting a fact of a consequent predicate: the partial
    assignment pins the universal variables the deleted witness agreed
    on, so only the body matches that may have lost their witness are
    re-examined.  The default runs a compiled binding-pattern plan
    (memoised per set of pre-bound variables); a partial assignment
    mentioning a non-body variable — possible only through direct API
    use, never from the tracker — falls back to the interpreter, whose
    reported bindings include such extra variables.
    """

    if compiled:
        from repro.compile.kernel import compiled_constraint

        unit = compiled_constraint(constraint)
        if unit.covers_partial(partial):
            yield from unit.violations_under(instance, partial)
            return
    matches = indexed_body_matches(instance, constraint.body, initial=partial)
    yield from violation_filter(instance, constraint, matches)


def satisfies(instance: DatabaseInstance, constraint: AnyConstraint) -> bool:
    """``D |=_N ψ``: no violations under the null-aware semantics."""

    return not violations(instance, constraint)


def satisfies_via_projection(
    instance: DatabaseInstance, constraint: IntegrityConstraint
) -> bool:
    """Definition 4 verbatim: ``D^{A(ψ)} |= ψ_N`` via the generic evaluator."""

    projected = project_for_constraint(instance, constraint)
    formula = null_aware_formula(constraint)
    return holds(projected, formula)


def all_violations(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    naive: bool = False,
    compiled: Optional[bool] = None,
) -> List[Violation]:
    """Violations of every constraint, in constraint order.

    ``naive``/``compiled`` select the evaluation path per constraint
    exactly as in :func:`violations`.
    """

    budget = _budget.active()
    with _trace.span("violations.enumerate") as sp:
        found: List[Violation] = []
        count = 0
        for constraint in constraints:
            if budget:  # cooperative deadline/cancel check, once per constraint
                budget.checkpoint()
            found.extend(
                violations(instance, constraint, naive=naive, compiled=compiled)
            )
            count += 1
        if sp:
            sp.add(constraints=count, violations=len(found))
    return found


def is_consistent(
    instance: DatabaseInstance, constraints: Union[ConstraintSet, Iterable[AnyConstraint]]
) -> bool:
    """``D |=_N IC``: the instance satisfies every constraint."""

    return all(satisfies(instance, constraint) for constraint in constraints)
