"""Per-atom certainty residues.

The rewriting of :mod:`repro.rewriting.rewriter` turns a conjunctive
query ``Q`` into ``Q' = Q ∧ ⋀ residues``: each query atom picks up a
conjunction of *residues* — first-order conditions on the matched fact
that hold iff the fact (or, for unpinned key atoms, its conflict group)
survives in **every** repair.  The residues mirror the violation
conditions of :func:`repro.core.satisfaction.violations` exactly, so
each condition is the literal negation of "this fact participates in a
live violation":

* :class:`NotNullResidue` — the protected attribute is not null (a
  violating fact is deleted in every repair);
* :class:`CheckResidue` — the single-atom denial/check constraint does
  not fire on the fact (same forced deletion);
* :class:`RICResidue` — the referential constraint is satisfied by the
  fact in ``D`` itself: a dangling fact is deleted in the repairs that do
  not insert the null-padded witness, and an inserted witness is never
  in every repair, so certainty coincides with plain satisfaction;
* :class:`FDResidue` — no conflicting partner exists in the fact's key
  group (the fragment keeps checks and non-determinant NNCs off keyed
  predicates, so every partner survives in some repair and the branch
  deleting the fact instead always exists);
* :class:`DenialResidue` — the fact participates in no ground violation
  of a multi-atom denial constraint (every such violation has a repair
  deleting this particular participant).

Every residue evaluates three ways: fast in-memory (:meth:`holds`
against :class:`RewriteIndexes`), as a first-order formula
(:meth:`formula`, for the paper-faithful ``Q'``), and as SQL (rendered
by :mod:`repro.rewriting.sqlgen`).

The in-memory evaluators execute the **compiled delta plans** of
:mod:`repro.compile.kernel`: "does this fact participate in a live
violation?" is exactly one early-exit run of the constraint's seeded
plan with the fact pinned at the relevant body occurrence
(:meth:`~repro.compile.kernel.CompiledConstraint.has_violation_at`), so
residue checking, constraint checking and the violation tracker share
one compiled definition of the violation conditions and can never
drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.relational.domain import Constant, is_null
from repro.relational.instance import DatabaseInstance
from repro.compile.matchers import extend_match as _extend_match
from repro.compile.matchers import match_atom as _shared_match_atom
from repro.constraints.atoms import Atom, Comparison, IsNullAtom
from repro.constraints.ic import IntegrityConstraint, NotNullConstraint
from repro.constraints.terms import Term, Variable, is_variable
from repro.core.relevant import relevant_body_variables, relevant_positions
from repro.logic.formula import (
    AtomFormula,
    ComparisonFormula,
    Exists,
    FalseFormula,
    Formula,
    IsNullFormula,
    Not,
    TrueFormula,
    conjunction,
    disjunction,
)
from repro.rewriting.fragment import KeyInfo


Row = Tuple[Constant, ...]


class FreshVariables:
    """Generator of variables that cannot clash with query variables."""

    def __init__(self, prefix: str = "_r"):
        self._prefix = prefix
        self._count = 0

    def next(self) -> Variable:
        self._count += 1
        return Variable(f"{self._prefix}{self._count}")


#: Extend an assignment so an atom matches a row — the one unification
#: routine shared with constraint checking and query answering (see
#: :mod:`repro.compile.matchers`); ``null`` joins with itself, exactly
#: as in the evaluation of ``|=_N``.
extend_assignment = _extend_match

#: Match an atom against a row from the empty assignment.
match_atom = _shared_match_atom


class RewriteIndexes:
    """The per-evaluation context the residue evaluators run against.

    Historically this class carried private per-residue witness indexes
    and key-group lookups; the compiled delta plans of
    :mod:`repro.compile.kernel` replaced both (they probe the
    instance's own hash indexes), so the context reduces to the
    instance handle every :meth:`Residue.holds` receives.
    """

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance


def _participates(
    instance: DatabaseInstance, constraint: IntegrityConstraint, occurrence: int, row: Row
) -> bool:
    """Does *row*, pinned at body *occurrence*, join a live violation?

    One early-exit execution of the constraint's compiled seeded plan —
    shared with the violation tracker's delta maintenance, so the
    violation conditions the residues negate are literally the ones the
    repair search resolves.
    """

    from repro.compile.kernel import compiled_constraint

    unit = compiled_constraint(constraint)
    return unit.has_violation_at(instance, occurrence, row)  # type: ignore[union-attr]


class _NoRelations:
    """A relation view with no rows (single-atom plans never probe it)."""

    def tuples_matching(self, predicate: str, bound: Mapping[int, Constant]) -> Tuple[Row, ...]:
        return ()


_NO_RELATIONS = _NoRelations()


def check_violates(check: IntegrityConstraint, row: Row) -> bool:
    """Does *row* violate the single-atom *check* under ``|=_N``?

    Runs the check constraint's compiled seeded plan: the fact is pinned
    at the only body occurrence, so the relevant-null guard and the
    built-in disjunction (both resolved at compile time) decide the
    answer without touching any relation.
    """

    return _participates(_NO_RELATIONS, check, 0, row)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- residues
class Residue:
    """A certainty condition attached to one query atom."""

    #: The constraint the residue was derived from.
    constraint: object

    def holds(self, row: Row, indexes: RewriteIndexes) -> bool:
        """Does the condition hold for the fact *row* in the indexed instance?"""

        raise NotImplementedError

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        """The condition as a first-order formula over the query atom's *terms*."""

        raise NotImplementedError


def _term_for(check_term: Term, var_positions: Mapping[Variable, int], terms: Sequence[Term]) -> Term:
    """Translate a constraint term into the query atom's term language."""

    if is_variable(check_term):
        return terms[var_positions[check_term]]
    return check_term


def _first_positions(atom: Atom) -> Dict[Variable, int]:
    positions: Dict[Variable, int] = {}
    for index, term in enumerate(atom.terms):
        if is_variable(term) and term not in positions:
            positions[term] = index
    return positions


def _not_null_formula(term: Term) -> Formula:
    if is_variable(term):
        return Not(IsNullFormula(IsNullAtom(term)))
    return FalseFormula() if is_null(term) else TrueFormula()


@dataclass
class NotNullResidue(Residue):
    """``¬IsNull`` of the protected position."""

    constraint: NotNullConstraint

    def holds(self, row: Row, indexes: RewriteIndexes) -> bool:
        return not is_null(row[self.constraint.position])

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        return _not_null_formula(terms[self.constraint.position])

    def __repr__(self) -> str:
        return f"not-null[{self.constraint.predicate}[{self.constraint.position + 1}]]"


@dataclass
class CheckResidue(Residue):
    """The single-atom denial/check constraint does not fire on the fact."""

    constraint: IntegrityConstraint

    def holds(self, row: Row, indexes: RewriteIndexes) -> bool:
        return not check_violates(self.constraint, row)

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        return check_cert_formula(self.constraint, terms)

    def __repr__(self) -> str:
        return f"check[{self.constraint.name or repr(self.constraint)}]"


def check_cert_formula(check: IntegrityConstraint, terms: Sequence[Term]) -> Formula:
    """``¬(pattern ∧ relevant-non-null ∧ ¬ϕ)`` over the query atom's *terms*."""

    atom = check.body[0]
    var_positions = _first_positions(atom)
    violation: List[Formula] = []
    # Pattern: constants and repeated variables of the constraint atom.
    for position, term in enumerate(atom.terms):
        if not is_variable(term):
            violation.append(ComparisonFormula(Comparison("=", terms[position], term)))
        elif var_positions[term] != position:
            violation.append(
                ComparisonFormula(
                    Comparison("=", terms[position], terms[var_positions[term]])
                )
            )
    for variable in sorted(relevant_body_variables(check), key=lambda v: v.name):
        violation.append(_not_null_formula(terms[var_positions[variable]]))
    satisfied = disjunction(
        [
            ComparisonFormula(
                Comparison(
                    comparison.op,
                    _term_for(comparison.left, var_positions, terms),
                    _term_for(comparison.right, var_positions, terms),
                )
            )
            for comparison in check.head_comparisons
        ]
    )
    violation.append(Not(satisfied))
    return Not(conjunction(violation))


@dataclass
class FDResidue(Residue):
    """No conflicting partner in the fact's key group.

    A partner is a row with the same (non-null) determinant whose
    dependent value is non-null and different: the repair branch deleting
    this fact instead of the partner always exists, so any partner makes
    the fact uncertain.  (The fragment guarantees partners cannot be
    "dead on arrival" — keyed predicates carry no checks and only
    determinant NNCs — so no refinement by partner liveness is needed,
    and none would survive ``≤_D``'s null-coverage quirk anyway.)
    """

    key: KeyInfo

    @property
    def constraint(self) -> object:  # type: ignore[override]
        return self.key.fds[0].constraint

    def holds(self, row: Row, indexes: RewriteIndexes) -> bool:
        # One compiled seeded run per FD of the key: a conflicting
        # partner is exactly a live violation with this row pinned at
        # the first body occurrence (the determinant join, the null
        # guards on determinant and dependent, and the equality
        # disjunct are all resolved in the compiled plan).
        for fd in self.key.fds:
            if _participates(indexes.instance, fd.constraint, 0, row):
                return False
        return True

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        arity = self.key.fds[0].constraint.body[0].arity
        partner_vars: List[Variable] = [fresh.next() for _ in range(arity)]
        conjuncts: List[Formula] = [
            AtomFormula(Atom(self.key.predicate, partner_vars))
        ]
        for position in self.key.determinant:
            conjuncts.append(
                ComparisonFormula(Comparison("=", partner_vars[position], terms[position]))
            )
            conjuncts.append(_not_null_formula(terms[position]))
        per_fd: List[Formula] = []
        for fd in self.key.fds:
            per_fd.append(
                conjunction(
                    [
                        _not_null_formula(terms[fd.dependent]),
                        _not_null_formula(partner_vars[fd.dependent]),
                        ComparisonFormula(
                            Comparison("!=", partner_vars[fd.dependent], terms[fd.dependent])
                        ),
                    ]
                )
            )
        conjuncts.append(disjunction(per_fd))
        return Not(Exists(partner_vars, conjunction(conjuncts)))

    def __repr__(self) -> str:
        determinant = ",".join(str(p + 1) for p in self.key.determinant)
        return f"key[{self.key.predicate}[{determinant}]]"


@dataclass
class RICResidue(Residue):
    """The referential constraint is satisfied by the fact in ``D`` itself."""

    constraint: IntegrityConstraint

    def __post_init__(self) -> None:
        body_atom = self.constraint.body[0]
        head_atom = self.constraint.head_atoms[0]
        positions = relevant_positions(self.constraint)
        kept = positions.get(head_atom.predicate, tuple(range(head_atom.arity)))
        body_vars = self.constraint.body_variables()
        self.body_atom = body_atom
        self.head_atom = head_atom
        self.relevant_vars = relevant_body_variables(self.constraint)
        self.bound_kept: Tuple[int, ...] = tuple(
            p for p in kept
            if is_variable(head_atom.terms[p]) and head_atom.terms[p] in body_vars
        )
        self.constant_kept: Tuple[int, ...] = tuple(
            p for p in kept if not is_variable(head_atom.terms[p])
        )
        self.existential_kept: Tuple[int, ...] = tuple(
            p
            for p in kept
            if is_variable(head_atom.terms[p]) and head_atom.terms[p] not in body_vars
        )

    def holds(self, row: Row, indexes: RewriteIndexes) -> bool:
        # The fact satisfies the RIC in D itself iff it is not a live
        # dangling antecedent: one compiled seeded run, whose witness
        # probe replaces the hand-built per-residue witness index.
        return not _participates(indexes.instance, self.constraint, 0, row)

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        body_atom = self.body_atom
        head_atom = self.head_atom
        var_positions = _first_positions(body_atom)
        violation: List[Formula] = []
        for position, term in enumerate(body_atom.terms):
            if not is_variable(term):
                violation.append(
                    ComparisonFormula(Comparison("=", terms[position], term))
                )
            elif var_positions[term] != position:
                violation.append(
                    ComparisonFormula(
                        Comparison("=", terms[position], terms[var_positions[term]])
                    )
                )
        for variable in sorted(self.relevant_vars, key=lambda v: v.name):
            violation.append(_not_null_formula(terms[var_positions[variable]]))

        witness_vars: List[Term] = []
        quantified: List[Variable] = []
        existential_map: Dict[Variable, Variable] = {}
        kept = set(self.bound_kept) | set(self.constant_kept) | set(self.existential_kept)
        for position, term in enumerate(head_atom.terms):
            if position not in kept:
                variable = fresh.next()
                quantified.append(variable)
                witness_vars.append(variable)
            elif position in self.constant_kept:
                witness_vars.append(term)
            elif position in self.bound_kept:
                witness_vars.append(terms[var_positions[term]])
            else:  # repeated existential: one shared fresh variable
                mapped = existential_map.get(term)
                if mapped is None:
                    mapped = fresh.next()
                    existential_map[term] = mapped
                    quantified.append(mapped)
                witness_vars.append(mapped)
        witness = Exists(
            tuple(quantified), AtomFormula(Atom(head_atom.predicate, witness_vars))
        ) if quantified else AtomFormula(Atom(head_atom.predicate, witness_vars))
        violation.append(Not(witness))
        return Not(conjunction(violation))

    def __repr__(self) -> str:
        return f"ric[{self.constraint.name or repr(self.constraint)}]"


@dataclass
class DenialResidue(Residue):
    """The fact does not participate (as occurrence *index*) in a violation."""

    constraint: IntegrityConstraint
    index: int

    def holds(self, row: Row, indexes: RewriteIndexes) -> bool:
        # One compiled seeded run with the fact pinned at this body
        # occurrence: the remaining body atoms join through the
        # instance's hash indexes (the interpreted version scanned every
        # candidate relation per row).
        return not _participates(indexes.instance, self.constraint, self.index, row)

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        atom = self.constraint.body[self.index]
        var_positions = _first_positions(atom)
        translation: Dict[Variable, Term] = {
            variable: terms[position] for variable, position in var_positions.items()
        }
        violation: List[Formula] = []
        for position, term in enumerate(atom.terms):
            if not is_variable(term):
                violation.append(
                    ComparisonFormula(Comparison("=", terms[position], term))
                )
            elif var_positions[term] != position:
                violation.append(
                    ComparisonFormula(
                        Comparison("=", terms[position], terms[var_positions[term]])
                    )
                )
        quantified: List[Variable] = []
        other_formulas: List[Formula] = []
        for i, other in enumerate(self.constraint.body):
            if i == self.index:
                continue
            other_terms: List[Term] = []
            for term in other.terms:
                if is_variable(term):
                    mapped = translation.get(term)
                    if mapped is None:
                        mapped = fresh.next()
                        translation[term] = mapped
                        quantified.append(mapped)
                    other_terms.append(mapped)
                else:
                    other_terms.append(term)
            other_formulas.append(AtomFormula(Atom(other.predicate, other_terms)))
        violation.extend(other_formulas)
        for variable in sorted(
            relevant_body_variables(self.constraint), key=lambda v: v.name
        ):
            violation.append(_not_null_formula(translation[variable]))
        satisfied = disjunction(
            [
                ComparisonFormula(
                    Comparison(
                        comparison.op,
                        translation.get(comparison.left, comparison.left)
                        if is_variable(comparison.left)
                        else comparison.left,
                        translation.get(comparison.right, comparison.right)
                        if is_variable(comparison.right)
                        else comparison.right,
                    )
                )
                for comparison in self.constraint.head_comparisons
            ]
        )
        violation.append(Not(satisfied))
        body = conjunction(violation)
        if quantified:
            return Not(Exists(tuple(quantified), body))
        return Not(body)

    def __repr__(self) -> str:
        name = self.constraint.name or repr(self.constraint)
        return f"denial[{name}#{self.index}]"


