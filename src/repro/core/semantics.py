"""Alternative null-value semantics compared in the paper (Example 4).

The paper positions its semantics against four others:

* **classical** first-order satisfaction with ``null`` treated as an
  ordinary constant (the implicit reading of Arenas–Bertossi–Chomicki 1999);
* the **liberal** semantics of Bravo & Bertossi 2004 ([10] in the paper):
  a tuple containing ``null`` *anywhere* never causes an inconsistency;
* the SQL:2003 **simple-match** foreign-key semantics (the one commercial
  DBMSs implement): a referencing tuple with a null in any referencing
  column is acceptable, otherwise an exactly matching referenced tuple must
  exist;
* the SQL:2003 **partial-match** semantics: the non-null referencing
  columns must match some referenced tuple;
* the SQL:2003 **full-match** semantics: either all referencing columns are
  null, or none is and an exact match exists.

``Semantics.PAPER`` is the semantics of Definition 4, implemented in
:mod:`repro.core.satisfaction`.  The match semantics are only defined for
reference-shaped constraints (one antecedent atom, one consequent atom);
for any other constraint they fall back to the paper's semantics, which
the paper itself presents as their generalisation.

Every semantics but ``PAPER`` is a reference: it runs the ``naive=True``
nested-loop joins of :mod:`repro.core.satisfaction` and never a compiled
plan, so comparing one of them with ``PAPER`` (the compiled fast path)
never puts the kernel on both sides.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.relational.domain import Constant, is_null
from repro.relational.instance import DatabaseInstance, Fact
from repro.constraints.atoms import Atom
from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable
from repro.core import satisfaction as paper_satisfaction
from repro.core.satisfaction import Violation, body_matches, not_null_violations


class Semantics(enum.Enum):
    """The integrity-constraint satisfaction semantics supported."""

    PAPER = "paper"
    CLASSICAL = "classical"
    LIBERAL = "liberal"
    SIMPLE_MATCH = "simple_match"
    PARTIAL_MATCH = "partial_match"
    FULL_MATCH = "full_match"


def violations_under(
    instance: DatabaseInstance,
    constraint: AnyConstraint,
    semantics: Semantics = Semantics.PAPER,
) -> List[Violation]:
    """Ground violations of *constraint* under the chosen *semantics*."""

    if isinstance(constraint, NotNullConstraint):
        # NNCs are interpreted classically under every semantics (Definition 5).
        return not_null_violations(instance, constraint)
    if semantics is Semantics.PAPER:
        return paper_satisfaction.violations(instance, constraint)
    if semantics is Semantics.CLASSICAL:
        return _classical_violations(instance, constraint)
    if semantics is Semantics.LIBERAL:
        return _liberal_violations(instance, constraint)
    if semantics in (Semantics.SIMPLE_MATCH, Semantics.PARTIAL_MATCH, Semantics.FULL_MATCH):
        if _is_reference_shaped(constraint):
            return _match_violations(instance, constraint, semantics)
        return paper_satisfaction.violations(instance, constraint, naive=True)
    raise ValueError(f"unknown semantics {semantics!r}")


def satisfies_under(
    instance: DatabaseInstance,
    constraint: AnyConstraint,
    semantics: Semantics = Semantics.PAPER,
) -> bool:
    """True iff *instance* satisfies *constraint* under *semantics*."""

    return not violations_under(instance, constraint, semantics)


def is_consistent_under(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    semantics: Semantics = Semantics.PAPER,
) -> bool:
    """True iff *instance* satisfies every constraint under *semantics*."""

    return all(satisfies_under(instance, c, semantics) for c in constraints)


def semantics_matrix(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
) -> Dict[Semantics, bool]:
    """Consistency verdict of the instance under every supported semantics.

    This reproduces the comparison of Example 4: the same database can be
    consistent under some semantics and inconsistent under others.
    """

    constraint_list = list(constraints)
    return {
        semantics: is_consistent_under(instance, constraint_list, semantics)
        for semantics in Semantics
    }


# --------------------------------------------------------------------------- classical
def _witness_all_positions(
    instance: DatabaseInstance, atom: Atom, assignment: Mapping[Variable, Constant]
) -> bool:
    """Classical witness check: the atom must match on *every* position."""

    return paper_satisfaction._head_atom_has_witness(  # noqa: SLF001 - shared helper
        instance, atom, dict(assignment), tuple(range(atom.arity)), naive=True
    )


def _classical_violations(
    instance: DatabaseInstance, constraint: IntegrityConstraint
) -> List[Violation]:
    found: List[Violation] = []
    for assignment, facts in body_matches(instance, constraint.body, naive=True):
        if paper_satisfaction._comparison_disjunction_holds(  # noqa: SLF001
            constraint.head_comparisons, assignment
        ):
            continue
        if any(
            _witness_all_positions(instance, atom, assignment)
            for atom in constraint.head_atoms
        ):
            continue
        bindings = tuple(sorted(assignment.items(), key=lambda item: item[0].name))
        found.append(Violation(constraint, bindings, facts))
    return found


# --------------------------------------------------------------------------- liberal [10]
def _liberal_violations(
    instance: DatabaseInstance, constraint: IntegrityConstraint
) -> List[Violation]:
    found: List[Violation] = []
    for assignment, facts in body_matches(instance, constraint.body, naive=True):
        if any(fact.has_null() for fact in facts):
            continue  # a null anywhere in an antecedent tuple: never inconsistent
        if paper_satisfaction._comparison_disjunction_holds(  # noqa: SLF001
            constraint.head_comparisons, assignment
        ):
            continue
        if any(
            _witness_all_positions(instance, atom, assignment)
            for atom in constraint.head_atoms
        ):
            continue
        bindings = tuple(sorted(assignment.items(), key=lambda item: item[0].name))
        found.append(Violation(constraint, bindings, facts))
    return found


# --------------------------------------------------------------------------- SQL matches
def _is_reference_shaped(constraint: IntegrityConstraint) -> bool:
    """One antecedent atom, one consequent atom, no built-ins: an inclusion/FK shape."""

    return (
        len(constraint.body) == 1
        and len(constraint.head_atoms) == 1
        and not constraint.head_comparisons
    )


def _reference_positions(
    constraint: IntegrityConstraint,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(referencing positions in the antecedent, referenced positions in the consequent)."""

    body_atom = constraint.body[0]
    head_atom = constraint.head_atoms[0]
    body_vars = constraint.body_variables()
    referencing: List[int] = []
    referenced: List[int] = []
    for head_pos, term in enumerate(head_atom.terms):
        if is_variable(term) and term in body_vars:
            body_occurrences = body_atom.positions_of(term)
            if body_occurrences:
                referencing.append(body_occurrences[0])
                referenced.append(head_pos)
    return tuple(referencing), tuple(referenced)


def _match_violations(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    semantics: Semantics,
) -> List[Violation]:
    body_atom = constraint.body[0]
    head_atom = constraint.head_atoms[0]
    referencing, referenced = _reference_positions(constraint)
    parent_rows = instance.tuples(head_atom.predicate)

    found: List[Violation] = []
    for assignment, facts in body_matches(instance, (body_atom,), naive=True):
        fact = facts[0]
        ref_values = tuple(fact.values[p] for p in referencing)
        nulls = [is_null(v) for v in ref_values]
        if semantics is Semantics.SIMPLE_MATCH and any(nulls):
            continue
        if semantics is Semantics.PARTIAL_MATCH and all(nulls):
            continue
        if semantics is Semantics.FULL_MATCH:
            if all(nulls):
                continue
            if any(nulls):
                bindings = tuple(sorted(assignment.items(), key=lambda item: item[0].name))
                found.append(Violation(constraint, bindings, facts))
                continue
        matched = False
        for row in parent_rows:
            row_ok = True
            for value, parent_pos, value_is_null in zip(ref_values, referenced, nulls):
                if semantics is Semantics.PARTIAL_MATCH and value_is_null:
                    continue  # null referencing columns are ignored by partial match
                if is_null(row[parent_pos]) or row[parent_pos] != value:
                    row_ok = False
                    break
            if row_ok:
                matched = True
                break
        if not matched:
            bindings = tuple(sorted(assignment.items(), key=lambda item: item[0].name))
            found.append(Violation(constraint, bindings, facts))
    return found
