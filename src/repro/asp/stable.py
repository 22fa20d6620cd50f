"""Stable models of ground disjunctive programs.

The solver is a straightforward but complete branch-and-propagate search:

1. rules are treated as clauses (``body satisfied ⇒ some head atom true``)
   over which unit propagation runs in both directions;
2. an *unsupportedness* propagation sets an atom to false as soon as every
   rule with that atom in its head is already known not to need it (its
   body is falsified, or another of its head atoms is already true) — a
   sound necessary condition for membership in a stable model that prunes
   the vast majority of the classical models;
3. every total assignment that survives is checked for stability with the
   Gelfond–Lifschitz reduct: the candidate must be a model of its reduct
   and no proper subset may be one.  Normal programs use the cheaper
   least-model fixpoint check.

The search enumerates *all* stable models (the repair programs need the
full set to read off every repair, and cautious reasoning needs it for
consistent query answering).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.constraints.atoms import Atom
from repro.asp.grounding import GroundProgram, GroundRule, ground_program
from repro.asp.syntax import Program
from repro.resilience import budget as _budget


class SolverBudgetExceeded(RuntimeError):
    """Raised when the solver exceeds its node budget."""


# --------------------------------------------------------------------------- reduct
def gelfond_lifschitz_reduct(
    rules: Sequence[GroundRule], model: FrozenSet[Atom]
) -> List[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]]:
    """The GL reduct ``Π^M``: drop rules with a negative literal in ``M``,
    and strip the remaining negative literals.  Returns (head, positive-body) pairs."""

    reduct: List[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]] = []
    for rule in rules:
        if any(atom in model for atom in rule.negative):
            continue
        reduct.append((rule.head, rule.positive))
    return reduct


def _is_model_of_reduct(
    reduct: Sequence[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]],
    facts: FrozenSet[Atom],
    candidate: FrozenSet[Atom],
) -> bool:
    if not facts <= candidate:
        return False
    for head, positive in reduct:
        if all(atom in candidate for atom in positive) and not any(
            atom in candidate for atom in head
        ):
            return False
    return True


def least_model_of_reduct(
    reduct: Sequence[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]],
    facts: FrozenSet[Atom],
) -> Optional[FrozenSet[Atom]]:
    """Least model of a *normal* positive reduct (None if a denial fires).

    Only valid when every rule of the reduct has at most one head atom.
    """

    model: Set[Atom] = set(facts)
    changed = True
    while changed:
        changed = False
        for head, positive in reduct:
            if all(atom in model for atom in positive):
                if not head:
                    return None  # violated denial
                if head[0] not in model:
                    model.add(head[0])
                    changed = True
    # Denials must be re-checked once the fixpoint is reached.
    for head, positive in reduct:
        if not head and all(atom in model for atom in positive):
            return None
    return frozenset(model)


def _has_smaller_model(
    reduct: Sequence[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]],
    facts: FrozenSet[Atom],
    model: FrozenSet[Atom],
) -> bool:
    """Is there a model of the reduct strictly contained in *model*?

    Atoms outside *model* are fixed to false (a smaller model can only use
    atoms of *model*); rules whose positive body mentions such an atom are
    vacuously satisfied and are dropped up-front.  The ambient request
    budget is checked once per search node.
    """

    budget = _budget.active()

    atoms = sorted(model, key=repr)
    relevant: List[Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]] = []
    for head, positive in reduct:
        if any(atom not in model for atom in positive):
            continue
        head_in_model = tuple(atom for atom in head if atom in model)
        relevant.append((head_in_model, positive))

    assignment: Dict[Atom, Optional[bool]] = {atom: None for atom in atoms}
    for fact in facts:
        if fact in assignment:
            assignment[fact] = True

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for head, positive in relevant:
                if any(assignment[a] is False for a in positive):
                    continue
                body_true = all(assignment[a] is True for a in positive)
                if any(assignment[a] is True for a in head):
                    continue
                unassigned_heads = [a for a in head if assignment[a] is None]
                if body_true:
                    if not unassigned_heads:
                        return False
                    if len(unassigned_heads) == 1:
                        assignment[unassigned_heads[0]] = True
                        changed = True
                        continue
                # head entirely false: keep the body falsifiable
                if not unassigned_heads:
                    unassigned_body = [a for a in positive if assignment[a] is None]
                    if not unassigned_body:
                        return False
                    if len(unassigned_body) == 1:
                        assignment[unassigned_body[0]] = False
                        changed = True
        return True

    def search() -> bool:
        budget.checkpoint()
        snapshot = dict(assignment)
        if not propagate():
            assignment.update(snapshot)
            return False
        unassigned = [atom for atom in atoms if assignment[atom] is None]
        if not unassigned:
            true_set = frozenset(atom for atom in atoms if assignment[atom])
            result = true_set != model and _is_model_of_reduct(reduct, facts, true_set)
            assignment.update(snapshot)
            return result
        atom = unassigned[0]
        for value in (False, True):
            assignment[atom] = value
            if search():
                assignment.update(snapshot)
                return True
            # restore everything decided below this point before retrying
            for key in atoms:
                assignment[key] = snapshot[key]
            assignment[atom] = value
        assignment.update(snapshot)
        return False

    return search()


def is_stable_model(
    ground: GroundProgram, candidate: FrozenSet[Atom]
) -> bool:
    """Check that *candidate* is a stable model of the ground program."""

    # Facts must hold, and the candidate must be a classical model.
    if not ground.facts <= candidate:
        return False
    for rule in ground.rules:
        body_true = all(atom in candidate for atom in rule.positive) and not any(
            atom in candidate for atom in rule.negative
        )
        if body_true and rule.head and not any(atom in candidate for atom in rule.head):
            return False
        if body_true and not rule.head:
            return False

    reduct = gelfond_lifschitz_reduct(ground.rules, candidate)
    if all(len(head) <= 1 for head, _ in reduct):
        least = least_model_of_reduct(reduct, ground.facts)
        return least is not None and least == candidate
    if not _is_model_of_reduct(reduct, ground.facts, candidate):
        return False
    return not _has_smaller_model(reduct, ground.facts, candidate)


# --------------------------------------------------------------------------- solver
class _Solver:
    """Enumerate the stable models of a ground program.

    :meth:`solve` takes the ambient request budget once and checks it
    once per search node (a no-op when none is active), so a deadline
    or a cancellation stops the search, not only the grounding.
    """

    def __init__(self, ground: GroundProgram, max_nodes: Optional[int] = None):
        self.ground = ground
        self.atoms: List[Atom] = sorted(ground.atoms(), key=repr)
        self.index: Dict[Atom, int] = {atom: i for i, atom in enumerate(self.atoms)}
        self.facts: Set[int] = {self.index[a] for a in ground.facts}
        self.rules: List[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = [
            (
                tuple(self.index[a] for a in rule.head),
                tuple(self.index[a] for a in rule.positive),
                tuple(self.index[a] for a in rule.negative),
            )
            for rule in ground.rules
        ]
        self.head_rules: Dict[int, List[int]] = {}
        for rule_index, (head, _, _) in enumerate(self.rules):
            for atom_index in head:
                self.head_rules.setdefault(atom_index, []).append(rule_index)
        self.max_nodes = max_nodes
        self.nodes = 0
        self.models: List[FrozenSet[Atom]] = []

    # .................................................................. propagation
    def _propagate(self, assign: List[Optional[bool]]) -> bool:
        changed = True
        while changed:
            changed = False
            for head, positive, negative in self.rules:
                body_false = any(assign[p] is False for p in positive) or any(
                    assign[n] is True for n in negative
                )
                if body_false:
                    continue
                head_true = any(assign[h] is True for h in head)
                unassigned_heads = [h for h in head if assign[h] is None]
                body_true = all(assign[p] is True for p in positive) and all(
                    assign[n] is False for n in negative
                )
                if body_true and not head_true:
                    if not unassigned_heads:
                        return False
                    if len(unassigned_heads) == 1:
                        assign[unassigned_heads[0]] = True
                        changed = True
                        continue
                if not head_true and not unassigned_heads:
                    # every head atom is false: the body must end up falsified
                    unassigned_pos = [p for p in positive if assign[p] is None]
                    unassigned_neg = [n for n in negative if assign[n] is None]
                    if not unassigned_pos and not unassigned_neg:
                        if body_true:
                            return False
                        continue
                    if len(unassigned_pos) + len(unassigned_neg) == 1:
                        if unassigned_pos:
                            assign[unassigned_pos[0]] = False
                        else:
                            assign[unassigned_neg[0]] = True
                        changed = True
            # unsupportedness: an atom with no rule that could still need it is false
            for atom_index in range(len(self.atoms)):
                if assign[atom_index] is not None or atom_index in self.facts:
                    continue
                needed = False
                for rule_index in self.head_rules.get(atom_index, []):
                    head, positive, negative = self.rules[rule_index]
                    body_false = any(assign[p] is False for p in positive) or any(
                        assign[n] is True for n in negative
                    )
                    if body_false:
                        continue
                    other_head_true = any(
                        assign[h] is True for h in head if h != atom_index
                    )
                    if other_head_true:
                        continue
                    needed = True
                    break
                if not needed:
                    assign[atom_index] = False
                    changed = True
        return True

    # .................................................................. search
    def solve(self, max_models: Optional[int] = None) -> List[FrozenSet[Atom]]:
        assign: List[Optional[bool]] = [None] * len(self.atoms)
        for fact_index in self.facts:
            assign[fact_index] = True
        self._budget = _budget.active()
        self._search(assign, max_models)
        return self.models

    def _search(self, assign: List[Optional[bool]], max_models: Optional[int]) -> None:
        if max_models is not None and len(self.models) >= max_models:
            return
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise SolverBudgetExceeded(
                f"stable-model search exceeded {self.max_nodes} nodes"
            )
        self._budget.checkpoint()
        working = list(assign)
        if not self._propagate(working):
            return
        try:
            unassigned = working.index(None)
        except ValueError:
            candidate = frozenset(
                self.atoms[i] for i, value in enumerate(working) if value
            )
            if is_stable_model(self.ground, candidate) and candidate not in self.models:
                self.models.append(candidate)
            return
        for value in (False, True):
            if max_models is not None and len(self.models) >= max_models:
                return
            working_copy = list(working)
            working_copy[unassigned] = value
            self._search(working_copy, max_models)


# --------------------------------------------------------------------------- API
ProgramLike = Union[Program, GroundProgram]


def _ensure_ground(program: ProgramLike) -> GroundProgram:
    if isinstance(program, GroundProgram):
        return program
    return ground_program(program)


def stable_models(
    program: ProgramLike,
    max_models: Optional[int] = None,
    max_nodes: Optional[int] = 2_000_000,
) -> List[FrozenSet[Atom]]:
    """All stable models of *program* (ground or non-ground)."""

    ground = _ensure_ground(program)
    solver = _Solver(ground, max_nodes=max_nodes)
    models = solver.solve(max_models=max_models)
    return sorted(models, key=lambda model: sorted(repr(a) for a in model))


def cautious_consequences(
    program: ProgramLike, max_models: Optional[int] = None
) -> FrozenSet[Atom]:
    """Atoms true in every stable model (empty frozenset if there is none)."""

    models = stable_models(program, max_models=max_models)
    if not models:
        return frozenset()
    result = set(models[0])
    for model in models[1:]:
        result &= model
    return frozenset(result)


def brave_consequences(
    program: ProgramLike, max_models: Optional[int] = None
) -> FrozenSet[Atom]:
    """Atoms true in at least one stable model."""

    models = stable_models(program, max_models=max_models)
    result: Set[Atom] = set()
    for model in models:
        result |= model
    return frozenset(result)
