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

The direct enumeration has one fast path and one reference.  By
default each constraint is lowered once (per process) by
:mod:`repro.compile.kernel` into a join plan with a precomputed atom
schedule, slot-based bindings and specialised per-atom matchers, and
every call after that runs the plan's generated executor
(:mod:`repro.compile.codegen`).  ``naive=True`` keeps the original
unindexed nested-loop joins as the reference the property suite pins the
compiled plans to; both produce the same violation sets.  The seeded
enumerations — violations involving one changed fact or one partial
assignment — are the compiled **delta plans** of
:class:`repro.compile.kernel.CompiledConstraint`, which the
:class:`~repro.core.repairs.ViolationTracker` of
:mod:`repro.core.repairs` calls directly; so does the depth-first
search of :mod:`repro.core.parallel`, which keeps its tracker current
through those seeded updates, one per fix it applies, so the search
never pays a full violation sweep past its first.

(Paper cross-reference: Definition 4 is
:func:`satisfies_via_projection`, Definition 3's witness-relevant
positions are :func:`witness_positions` — see ``docs/paper-map.md`` for
the full map.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

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
) -> Iterator[Tuple[Assignment, Tuple[Fact, ...]]]:
    """Enumerate the matches of the antecedent atoms against the instance.

    ``null`` is treated as an ordinary constant (it joins with itself),
    exactly as in the evaluation of ``ψ_N`` over ``D^A`` (Example 12).

    By default the body is lowered once into a compiled join plan
    (:func:`repro.compile.kernel.compiled_body` — schedule, slots and
    per-atom matchers fixed at compile time) and every call executes the
    plan.  ``naive=True`` selects the original left-to-right nested-loop
    join, the reference for cross-validation.  Both produce the same set
    of matches (``body_facts`` always in antecedent-atom order); only the
    enumeration order may differ.
    """

    if naive:
        yield from _body_matches_naive(instance, body)
    else:
        from repro.compile.kernel import compiled_body

        yield from compiled_body(tuple(body)).iter_matches(instance)


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
) -> List[Violation]:
    """All ground violations of *constraint* in *instance* under ``|=_N``.

    The default executes the constraint's compiled plan
    (:func:`repro.compile.kernel.compiled_constraint` — lowered once per
    process); ``naive=True`` selects the unindexed nested-loop joins (the
    original reference implementation).  Both return the same
    violations, possibly in a different order.
    """

    if isinstance(constraint, NotNullConstraint):
        return not_null_violations(instance, constraint)
    if naive:
        return _naive_violations(instance, constraint)
    from repro.compile.kernel import compiled_constraint

    return compiled_constraint(constraint).violations(instance)


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


def _naive_violations(
    instance: DatabaseInstance, constraint: IntegrityConstraint
) -> List[Violation]:
    """The nested-loop reference: every body match that is a ground violation.

    Applies, in order, the relevant-null guard, the built-in disjunction
    and the head-atom witness check — the three conditions of ``|=_N`` —
    and keeps every match that fails all of them.  Nothing here touches
    the compiled kernel, so the cross-validation is never circular.
    """

    relevant_vars = _cached_relevant_body_variables(constraint)
    found: List[Violation] = []
    for assignment, facts in _body_matches_naive(instance, constraint.body):
        if any(is_null(assignment[v]) for v in relevant_vars):
            continue  # a null in a relevant antecedent attribute: satisfied
        if _comparison_disjunction_holds(constraint.head_comparisons, assignment):
            continue
        if any(
            _head_atom_has_witness(
                instance, atom, assignment, witness_positions(constraint, atom), naive=True
            )
            for atom in constraint.head_atoms
        ):
            continue
        bindings = tuple(sorted(assignment.items(), key=lambda item: item[0].name))
        found.append(Violation(constraint, bindings, facts))
    return found


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
) -> List[Violation]:
    """Violations of every constraint, in constraint order.

    ``naive`` selects the evaluation path per constraint exactly as in
    :func:`violations`.
    """

    budget = _budget.active()
    with _trace.span("violations.enumerate") as sp:
        found: List[Violation] = []
        count = 0
        for constraint in constraints:
            if budget:  # cooperative deadline/cancel check, once per constraint
                budget.checkpoint()
            found.extend(violations(instance, constraint, naive=naive))
            count += 1
        if sp:
            sp.add(constraints=count, violations=len(found))
    return found


def is_consistent(
    instance: DatabaseInstance, constraints: Union[ConstraintSet, Iterable[AnyConstraint]]
) -> bool:
    """``D |=_N IC``: the instance satisfies every constraint."""

    return all(satisfies(instance, constraint) for constraint in constraints)
