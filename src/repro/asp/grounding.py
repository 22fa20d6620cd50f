"""Intelligent grounding of disjunctive programs.

A naive grounding over the full Herbrand base explodes quickly; instead we
compute an over-approximation of the atoms that can possibly become true
(ignoring negation and treating every disjunct of a head as derivable) and
instantiate rules only with positive bodies drawn from that set.  Negative
literals over atoms that can never be true are simply removed from the
ground rule (they are trivially satisfied), which keeps the ground program
small without changing its stable models.

Rule bodies join through the same compiled kernel as constraints and
queries: each rule's positive body is lowered once
(:func:`repro.compile.kernel.compiled_body`) and executed against a
:class:`repro.compile.kernel.GroundAtomRelations` view of the current
possible-atom set — slot-based matching instead of one dictionary copy
per candidate atom.  ``compiled=False`` on :func:`possible_atoms` /
:func:`ground_program` keeps the original per-atom interpreted matching
(through the shared :func:`repro.compile.matchers.extend_match`) as the
cross-validation reference — the grounder has no naive path, so this is
its only reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.relational.domain import Constant
from repro.compile.matchers import extend_match
from repro.constraints.atoms import Atom, BuiltinEvaluationError, Comparison
from repro.constraints.terms import Variable
from repro.asp.syntax import Program, Rule


Assignment = Dict[Variable, Constant]


@dataclass(frozen=True)
class GroundRule:
    """A ground rule (all atoms variable-free, comparisons already resolved)."""

    head: Tuple[Atom, ...]
    positive: Tuple[Atom, ...]
    negative: Tuple[Atom, ...]

    @property
    def is_denial(self) -> bool:
        """True iff the head is empty."""

        return not self.head

    def __repr__(self) -> str:
        head = " | ".join(repr(a) for a in self.head) if self.head else ""
        body = ", ".join(
            [repr(a) for a in self.positive] + [f"not {a!r}" for a in self.negative]
        )
        if not body:
            return f"{head}."
        if not head:
            return f":- {body}."
        return f"{head} :- {body}."


@dataclass
class GroundProgram:
    """The result of grounding: facts, ground rules, and the possible atoms."""

    facts: FrozenSet[Atom]
    rules: Tuple[GroundRule, ...]
    possible_atoms: FrozenSet[Atom]

    def atoms(self) -> FrozenSet[Atom]:
        """Every atom mentioned anywhere in the ground program."""

        mentioned: Set[Atom] = set(self.facts) | set(self.possible_atoms)
        for rule in self.rules:
            mentioned |= set(rule.head) | set(rule.positive) | set(rule.negative)
        return frozenset(mentioned)


def _atoms_by_predicate(atoms: Iterable[Atom]) -> Dict[Tuple[str, int], Set[Atom]]:
    grouped: Dict[Tuple[str, int], Set[Atom]] = {}
    for atom in atoms:
        grouped.setdefault((atom.predicate, atom.arity), set()).add(atom)
    return grouped


def _comparisons_hold(comparisons: Sequence[Comparison], assignment: Assignment) -> bool:
    for comparison in comparisons:
        try:
            if not comparison.evaluate(assignment):
                return False
        except BuiltinEvaluationError:
            return False
    return True


def _body_instantiations_interpreted(
    rule: Rule, available: Mapping[Tuple[str, int], Set[Atom]]
) -> Iterator[Assignment]:
    """Reference path: per-atom interpreted matching with dict copies."""

    def extend(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(rule.positive):
            if _comparisons_hold(rule.comparisons, assignment):
                yield dict(assignment)
            return
        atom = rule.positive[index]
        candidates = available.get((atom.predicate, atom.arity), set())
        for ground in candidates:
            extended = extend_match(atom, ground.terms, assignment)
            if extended is not None:
                yield from extend(index + 1, extended)

    yield from extend(0, {})


def _body_instantiations(
    rule: Rule,
    available: Mapping[Tuple[str, int], Set[Atom]],
    relations: Optional[object] = None,
    compiled: bool = True,
) -> Iterator[Assignment]:
    """All assignments matching the positive body against *available* atoms.

    The default executes the rule body's compiled join plan against the
    (caller-provided, reused across rules) *relations* view of the
    possible-atom sets; ``compiled=False`` keeps the interpreted
    reference.  Both check the rule's built-in comparisons here, with
    the grounder's semantics (unevaluable ⇒ the instantiation is
    dropped).
    """

    if not compiled:
        yield from _body_instantiations_interpreted(rule, available)
        return
    from repro.compile.kernel import GroundAtomRelations, compiled_body

    if relations is None:
        relations = GroundAtomRelations(available)
    body = compiled_body(tuple(rule.positive))
    for assignment in body.iter_assignments(relations):
        if _comparisons_hold(rule.comparisons, assignment):
            yield assignment


def possible_atoms(program: Program, compiled: bool = True) -> FrozenSet[Atom]:
    """Fixpoint over-approximation of the atoms derivable by the program."""

    from repro.compile.kernel import GroundAtomRelations

    possible: Set[Atom] = set(program.facts)
    changed = True
    while changed:
        changed = False
        grouped = _atoms_by_predicate(possible)
        relations = GroundAtomRelations(grouped) if compiled else None
        for rule in program.rules:
            if not rule.head:
                continue
            for assignment in _body_instantiations(
                rule, grouped, relations=relations, compiled=compiled
            ):
                for head_atom in rule.head:
                    ground_head = head_atom.substitute(assignment)
                    if not ground_head.is_ground():
                        raise ValueError(
                            f"rule {rule!r} produced a non-ground head {ground_head!r}"
                        )
                    if ground_head not in possible:
                        possible.add(ground_head)
                        changed = True
    return frozenset(possible)


def ground_program(program: Program, compiled: bool = True) -> GroundProgram:
    """Ground *program* over its possible atoms."""

    from repro.compile.kernel import GroundAtomRelations

    possible = possible_atoms(program, compiled=compiled)
    grouped = _atoms_by_predicate(possible)
    relations = GroundAtomRelations(grouped) if compiled else None
    facts = frozenset(program.facts)

    ground_rules: List[GroundRule] = []
    seen: Set[Tuple[Tuple[Atom, ...], Tuple[Atom, ...], Tuple[Atom, ...]]] = set()
    for rule in program.rules:
        for assignment in _body_instantiations(
            rule, grouped, relations=relations, compiled=compiled
        ):
            head = tuple(atom.substitute(assignment) for atom in rule.head)
            positive = tuple(atom.substitute(assignment) for atom in rule.positive)
            negative_all = [atom.substitute(assignment) for atom in rule.negative]
            # Negative literals over atoms that can never hold are trivially
            # satisfied; drop them.  (They are ground by safety.)
            negative = tuple(atom for atom in negative_all if atom in possible)
            key = (head, positive, negative)
            if key in seen:
                continue
            seen.add(key)
            ground_rules.append(GroundRule(head=head, positive=positive, negative=negative))
    return GroundProgram(facts=facts, rules=tuple(ground_rules), possible_atoms=possible)
