"""Null-introducing database repairs (Definitions 6–7, Proposition 1).

A repair of ``D`` w.r.t. ``IC`` is an instance over the same schema that
satisfies ``IC`` under ``|=_N`` and is ``≤_D``-minimal, where ``≤_D``
(Definition 6) compares instances through their symmetric difference with
``D`` and treats atoms containing ``null`` specially: an atom with nulls
in the difference of ``D'`` only requires *some* atom with the same
non-null part in the difference of ``D''``.  This makes a repair that
inserts ``Q(a, null)`` strictly preferable to one that inserts
``Q(a, b)`` for an arbitrary domain constant ``b``, which is how the
paper regains finitely many repairs and decidability of CQA.

The enumeration engine mirrors the ground repair-program rules: it picks a
ground violation and branches over its possible fixes — delete one of the
participating antecedent facts, or insert one of the consequent atoms with
``null`` in the existentially quantified positions — until the instance is
consistent, and finally filters the candidates through ``≤_D``-minimality.
A tuple inserted along a branch is never deleted on the same branch and
vice versa (the analogue of the program denial ``← P(x̄, ta), P(x̄, fa)``),
which guarantees termination because the universe of candidate atoms is
finite (Proposition 1).

For non-conflicting constraint sets (the paper's standing assumption, see
:meth:`repro.constraints.ic.ConstraintSet.is_non_conflicting`) this
computes exactly the repairs of Definition 7; a brute-force reference
enumerator over the restricted domain is provided for cross-validation on
tiny instances.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import abc
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.relational.domain import Constant, NULL, constant_sort_key, is_null
from repro.relational.instance import DatabaseInstance, Fact
from repro.constraints.atoms import Atom
from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable
from repro.errors import StateBudgetExceededError
from repro.obs import clock as _clock
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience import budget as _budget
from repro.core.satisfaction import (
    Violation,
    all_violations,
    is_consistent,
    row_witnesses_atom,
    witness_positions,
)


# --------------------------------------------------------------------------- ≤_D
def delta(original: DatabaseInstance, other: DatabaseInstance) -> FrozenSet[Fact]:
    """``∆(D, D')``: the symmetric difference as a set of facts."""

    return original.symmetric_difference(other)


def _null_atom_covered(
    fact: Fact, delta_other: FrozenSet[Fact], delta_self: FrozenSet[Fact]
) -> bool:
    """Condition (b) of Definition 6 for one atom with nulls."""

    non_null = fact.non_null_positions()
    for candidate in delta_other:
        if candidate.predicate != fact.predicate or candidate.arity != fact.arity:
            continue
        if candidate in delta_self:
            continue
        if all(candidate.values[i] == fact.values[i] for i in non_null):
            return True
    return False


def leq_deltas(delta_first: FrozenSet[Fact], delta_second: FrozenSet[Fact]) -> bool:
    """``≤_D`` (Definition 6) evaluated directly on two symmetric differences.

    The repair search and the anytime stream hold the candidates as
    precomputed ``∆(D, ·)`` sets; this is :func:`leq_d` without the
    instance subtraction, and the reference the tests pin
    :class:`DeltaMinimality` to.
    """

    for fact in delta_first:
        if not fact.has_null():
            if fact not in delta_second:
                return False
        else:
            if not _null_atom_covered(fact, delta_second, delta_first):
                return False
    return True


def leq_d(
    original: DatabaseInstance,
    first: DatabaseInstance,
    second: DatabaseInstance,
) -> bool:
    """``first ≤_D second`` (Definition 6), with ``D = original``."""

    return leq_deltas(delta(original, first), delta(original, second))


def lt_d(
    original: DatabaseInstance,
    first: DatabaseInstance,
    second: DatabaseInstance,
) -> bool:
    """``first <_D second``: ``first ≤_D second`` but not ``second ≤_D first``."""

    return leq_d(original, first, second) and not leq_d(original, second, first)


# --------------------------------------------------------------------------- fixes
def deletion_fixes(violation: Violation) -> List[Fact]:
    """The antecedent facts whose deletion resolves *violation*."""

    seen: Set[Fact] = set()
    ordered: List[Fact] = []
    for fact in violation.body_facts:
        if fact not in seen:
            seen.add(fact)
            ordered.append(fact)
    return ordered


def insertion_fixes(violation: Violation) -> List[Fact]:
    """The consequent atoms whose insertion resolves *violation*.

    Universal variables take their value from the violation's assignment,
    constants stay, and existential variables are filled with ``null`` —
    the paper's way of repairing referential constraints without picking an
    arbitrary domain value.  NOT-NULL and denial/check constraints have no
    insertion fixes.
    """

    constraint = violation.constraint
    if isinstance(constraint, NotNullConstraint):
        return []
    assignment = violation.assignment
    fixes: List[Fact] = []
    for atom in constraint.head_atoms:
        values: List[Constant] = []
        for term in atom.terms:
            if is_variable(term):
                values.append(assignment.get(term, NULL))
            else:
                values.append(term)
        fixes.append(Fact(atom.predicate, values))
    return fixes


# --------------------------------------------------------------------------- chooser
@lru_cache(maxsize=4096)
def constraint_structural_key(constraint: AnyConstraint) -> Tuple:
    """A name-independent, totally ordered signature of a constraint.

    Variables are numbered by first occurrence (antecedent atoms first,
    then consequent atoms, then built-ins), so two constraints that differ
    only in variable or constraint *names* share a key.  Used by the
    repair search's violation chooser so that exploration order — and the
    ``≤_D`` corner documented in ROADMAP — no longer depends on how
    constraints happen to be named.
    """

    if isinstance(constraint, NotNullConstraint):
        return ("nnc", constraint.predicate, constraint.position)
    order: Dict[Variable, int] = {}

    def encode(term: object) -> Tuple:
        if is_variable(term):
            return ("var", (order.setdefault(term, len(order)),))
        return ("const", constant_sort_key(term))  # type: ignore[arg-type]

    body_sig = tuple(
        (atom.predicate, tuple(encode(t) for t in atom.terms))
        for atom in constraint.body
    )
    head_sig = tuple(
        (atom.predicate, tuple(encode(t) for t in atom.terms))
        for atom in constraint.head_atoms
    )
    comparison_sig = tuple(
        (c.op, encode(c.left), encode(c.right)) for c in constraint.head_comparisons
    )
    return ("ic", body_sig, head_sig, comparison_sig)


def violation_choice_key(violation: Violation) -> Tuple:
    """Deterministic, name-independent ordering key for the violation chooser.

    Structural constraint signature first, then the participating facts,
    then the bound values — so two runs (and all three engine methods)
    always resolve the same violation first, whatever the constraints are
    called and in whatever order the joins enumerated the matches.

    The search asks for the key of every current violation at every
    state, and a violation object stays in the tracker's store from one
    state to the next, so the key is memoised on the (frozen) violation
    the way its hash is; it takes no part in equality or hashing.
    """

    cached = violation.__dict__.get("_choice_key")
    if cached is None:
        cached = (
            constraint_structural_key(violation.constraint),
            tuple(fact.sort_key() for fact in violation.body_facts),
            tuple(constant_sort_key(value) for _, value in violation.bindings),
        )
        object.__setattr__(violation, "_choice_key", cached)
    return cached


# --------------------------------------------------------------------------- tracking
class ViolationIndex:
    """Map each predicate to the constraints whose body or head mention it.

    Built once per constraint set; the violation tracker consults it to
    recompute only the affected constraints when a single fact changes.
    The index also carries the set's
    :class:`~repro.compile.kernel.CompiledProgram` (``.program``): one
    compiled unit per constraint — full plan, seeded delta plans,
    witness probes — resolved through the process-wide memo cache, so a
    session, its repair engines and the production search of
    :mod:`repro.core.parallel` all execute the same compiled plans and
    each constraint set is compiled at most once, ever.
    """

    def __init__(self, constraints: Union[ConstraintSet, Iterable[AnyConstraint]]):
        from repro.compile.kernel import compile_program

        self.constraints: List[AnyConstraint] = list(constraints)
        #: The compiled plans, index-aligned with ``constraints``.
        self.program = compile_program(tuple(self.constraints))
        self._body: Dict[str, List[int]] = {}
        self._head: Dict[str, List[int]] = {}
        self._affected: Dict[str, List[int]] = {}
        for index, constraint in enumerate(self.constraints):
            if isinstance(constraint, NotNullConstraint):
                self._body.setdefault(constraint.predicate, []).append(index)
                continue
            for predicate in sorted(constraint.body_predicates()):
                self._body.setdefault(predicate, []).append(index)
            for predicate in sorted(constraint.head_predicates()):
                self._head.setdefault(predicate, []).append(index)
        self._body_sets: Dict[str, FrozenSet[int]] = {
            predicate: frozenset(indices) for predicate, indices in self._body.items()
        }
        self._head_sets: Dict[str, FrozenSet[int]] = {
            predicate: frozenset(indices) for predicate, indices in self._head.items()
        }
        for predicate in set(self._body) | set(self._head):
            merged = set(self._body.get(predicate, ())) | set(
                self._head.get(predicate, ())
            )
            self._affected[predicate] = sorted(merged)

    _EMPTY: FrozenSet[int] = frozenset()

    def body_mentions(self, predicate: str) -> Sequence[int]:
        """Indices of constraints whose antecedent mentions *predicate*."""

        return self._body.get(predicate, ())

    def head_mentions(self, predicate: str) -> Sequence[int]:
        """Indices of constraints whose consequent mentions *predicate*."""

        return self._head.get(predicate, ())

    def body_mention_set(self, predicate: str) -> FrozenSet[int]:
        """:meth:`body_mentions` as a set, for membership tests on the hot path."""

        return self._body_sets.get(predicate, self._EMPTY)

    def head_mention_set(self, predicate: str) -> FrozenSet[int]:
        """:meth:`head_mentions` as a set, for membership tests on the hot path."""

        return self._head_sets.get(predicate, self._EMPTY)

    def affected(self, predicate: str) -> Sequence[int]:
        """Indices of constraints a change to *predicate* can affect."""

        return self._affected.get(predicate, ())


@dataclass
class ViolationDelta:
    """Undo record of one :class:`ViolationTracker` update."""

    removed: List[Tuple[int, Violation]] = field(default_factory=list)
    added: List[Tuple[int, Violation]] = field(default_factory=list)


class ViolationTracker:
    """Maintain the violation set of a mutating instance incrementally.

    The tracker holds, per constraint, the current set of ground
    violations of a live :class:`DatabaseInstance`.  After every single
    fact insertion (:meth:`notify_added`) or deletion
    (:meth:`notify_removed`) — performed on the instance *first* — it
    updates only the constraints whose body or head mentions the fact's
    predicate, seeding the re-enumeration from the changed fact through
    the constraint set's compiled delta plans (the
    :class:`~repro.compile.kernel.CompiledProgram` carried by the
    :class:`ViolationIndex` — compiled once per constraint set, shared
    by every tracker over the same index):

    * a fact added to a **body** predicate can only create violations
      that use the fact itself (the seeded delta plans,
      :meth:`~repro.compile.kernel.CompiledConstraint.seeded_violations`);
    * a fact removed from a **body** predicate only destroys the stored
      violations listing it among their ``body_facts``;
    * a fact added to a **head** predicate can only resolve stored
      violations it now witnesses (one :func:`row_witnesses_atom` check
      per stored violation);
    * a fact removed from a **head** predicate can only surface matches
      whose witness it was — re-enumerated under the partial assignment
      the deleted witness pins down (the binding-pattern delta plans,
      :meth:`~repro.compile.kernel.CompiledConstraint.violations_under`).

    Every update returns a :class:`ViolationDelta` that :meth:`revert`
    undoes exactly, which is what lets the repair search run as a
    mutate/undo depth-first search over a single working instance.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ViolationIndex, ConstraintSet, Iterable[AnyConstraint]],
        seed: Optional["ViolationTracker"] = None,
    ):
        self.index = (
            constraints
            if isinstance(constraints, ViolationIndex)
            else ViolationIndex(constraints)
        )
        self.instance = instance
        if seed is not None:
            # Warm start: adopt another tracker's violation store instead of
            # re-enumerating.  The caller guarantees *seed* tracks the same
            # constraints (in the same order) over an instance with the same
            # facts — the session façade hands its warm tracker to the repair
            # engine this way, so a query on an already-tracked database
            # skips the full violation sweep entirely.
            if len(seed._store) != len(self.index.constraints):
                raise ValueError(
                    "seed tracker covers a different constraint set "
                    f"({len(seed._store)} stores vs {len(self.index.constraints)} constraints)"
                )
            self._store: List[Dict[Violation, None]] = [
                dict(store) for store in seed._store
            ]
        else:
            with _trace.span("violations.sweep") as sweep_span:
                self._store = [
                    dict.fromkeys(unit.violations(instance))
                    for unit in self.index.program.units
                ]
                if sweep_span:
                    swept = sum(len(store) for store in self._store)
                    sweep_span.add(violations=swept, constraints=len(self._store))
            _metrics.counter(
                "repro_tracker_sweeps_total", "full violation sweeps (tracker builds)"
            ).inc()
        #: Counters surfaced through :class:`RepairStatistics`.
        self.updates = 0
        self.constraints_reevaluated = 0

    # ------------------------------------------------------------------ queries
    def violations(self) -> List[Violation]:
        """The current violations, grouped in constraint order."""

        found: List[Violation] = []
        for store in self._store:
            found.extend(store)
        return found

    def has_violations(self) -> bool:
        """True iff any constraint currently has a violation."""

        return any(self._store)

    def violation_count(self) -> int:
        """Total number of current violations."""

        return sum(len(store) for store in self._store)

    # ------------------------------------------------------------------ updates
    def notify_added(self, fact: Fact) -> ViolationDelta:
        """Update after *fact* was inserted into the tracked instance."""

        self.updates += 1
        delta = ViolationDelta()
        head_indices = self.index.head_mention_set(fact.predicate)
        body_indices = self.index.body_mention_set(fact.predicate)
        for index in self.index.affected(fact.predicate):
            constraint = self.index.constraints[index]
            store = self._store[index]
            self.constraints_reevaluated += 1
            if isinstance(constraint, NotNullConstraint):
                if constraint.position < fact.arity and is_null(
                    fact.values[constraint.position]
                ):
                    violation = Violation(constraint, (), (fact,))
                    if violation not in store:
                        store[violation] = None
                        delta.added.append((index, violation))
                continue
            # A new consequent fact may witness (and thereby resolve)
            # stored violations; check it against each of them directly.
            if index in head_indices:
                resolved: List[Violation] = []
                for violation in store:
                    for atom in constraint.head_atoms:
                        if atom.predicate != fact.predicate:
                            continue
                        kept = witness_positions(constraint, atom)
                        if row_witnesses_atom(
                            atom, fact.values, violation.assignment, kept
                        ):
                            resolved.append(violation)
                            break
                for violation in resolved:
                    del store[violation]
                    delta.removed.append((index, violation))
            # A new antecedent fact can only create violations involving
            # it — enumerated through the constraint's compiled delta plans.
            if index in body_indices:
                unit = self.index.program.units[index]
                for violation in unit.seeded_violations(self.instance, fact):
                    if violation not in store:
                        store[violation] = None
                        delta.added.append((index, violation))
        return delta

    def notify_removed(self, fact: Fact) -> ViolationDelta:
        """Update after *fact* was deleted from the tracked instance."""

        self.updates += 1
        delta = ViolationDelta()
        head_indices = self.index.head_mention_set(fact.predicate)
        body_indices = self.index.body_mention_set(fact.predicate)
        for index in self.index.affected(fact.predicate):
            constraint = self.index.constraints[index]
            store = self._store[index]
            self.constraints_reevaluated += 1
            if isinstance(constraint, NotNullConstraint):
                violation = Violation(constraint, (), (fact,))
                if violation in store:
                    del store[violation]
                    delta.removed.append((index, violation))
                continue
            if index in body_indices:
                doomed = [v for v in store if fact in v.body_facts]
                for violation in doomed:
                    del store[violation]
                    delta.removed.append((index, violation))
            if index in head_indices:
                unit = self.index.program.units[index]
                for partial in _lost_witness_assignments(constraint, fact):
                    for violation in unit.violations_under(self.instance, partial):
                        if violation not in store:
                            store[violation] = None
                            delta.added.append((index, violation))
        return delta

    def revert(self, delta: ViolationDelta) -> None:
        """Undo one update (used when the search backtracks)."""

        for index, violation in delta.added:
            del self._store[index][violation]
        for index, violation in delta.removed:
            self._store[index][violation] = None


def _lost_witness_assignments(
    constraint: IntegrityConstraint, fact: Fact
) -> Iterator[Dict[Variable, Constant]]:
    """Partial assignments whose witness the deleted *fact* may have been.

    For each consequent atom of the fact's predicate, pins the universal
    variables at the witness-relevant positions to the fact's values; body
    matches incompatible with one of these assignments never counted
    *fact* as a witness, so only the compatible ones need re-checking.
    Yields nothing when the fact cannot have matched the atom at all
    (constant mismatch or inconsistent repeated variables).
    """

    body_vars = constraint.body_variables()
    for atom in constraint.head_atoms:
        if atom.predicate != fact.predicate or atom.arity != fact.arity:
            continue
        kept = witness_positions(constraint, atom)
        partial: Dict[Variable, Constant] = {}
        existential: Dict[Variable, Constant] = {}
        feasible = True
        for position in kept:
            term = atom.terms[position]
            value = fact.values[position]
            if is_variable(term):
                binding = partial if term in body_vars else existential
                if term in binding:
                    if binding[term] != value:
                        feasible = False
                        break
                else:
                    binding[term] = value
            elif term != value:
                feasible = False
                break
        if feasible:
            yield partial


# --------------------------------------------------------------------------- engine
class RepairSearchBudgetExceeded(StateBudgetExceededError):
    """Raised when the repair search exceeds its configured state budget.

    Part of the :mod:`repro.errors` taxonomy since the resilience layer
    landed: deriving from :class:`~repro.errors.StateBudgetExceededError`
    (itself a :class:`RuntimeError` for backward compatibility) means
    both ``except RepairSearchBudgetExceeded`` and the taxonomy-level
    ``except BudgetExceededError`` keep working.
    """


@dataclass
class RepairStatistics:
    """Counters describing one repair enumeration (used by the benchmarks).

    The first four counters describe the search tree, and both searches
    report the same values for them; the rest are documented in the
    benchmark harness (see ``benchmarks/harness.py``):

    * ``violation_updates`` — :class:`ViolationTracker` updates, one per
      fact added or deleted along the search, so ``states_explored − 1``
      (production search only; the naive reference recomputes);
    * ``constraints_reevaluated`` — per-constraint seeded update passes
      the tracker ran (≤ ``violation_updates × |IC|``; the smaller the
      ratio, the better the predicate → constraint index is pruning);
    * ``leq_d_comparisons`` — pairwise ``≤_D`` checks performed by the
      minimality filter;
    * ``search_seconds`` / ``minimality_seconds`` — **wall-clock** split
      between candidate enumeration and the ``≤_D`` filter, measured by
      the driving engine;
    * ``instance_ship_bytes`` — always 0: the search runs in this process
      and ships no instance anywhere.  Kept only because the benchmark's
      traced mode reads it, as it reads the ``repro_columnar_store_*``
      counters.
    """

    states_explored: int = 0
    candidates_found: int = 0
    repairs_found: int = 0
    dead_branches: int = 0
    violation_updates: int = 0
    constraints_reevaluated: int = 0
    leq_d_comparisons: int = 0
    search_seconds: float = 0.0
    minimality_seconds: float = 0.0
    instance_ship_bytes: int = 0


_T = TypeVar("_T")

#: One repair as its ``∆(D, ·)``: (inserted facts, deleted facts).
RepairDelta = Tuple[FrozenSet[Fact], FrozenSet[Fact]]


@dataclass(frozen=True)
class SearchRecord:
    """What one finished repair search touched (see :func:`carry_repairs`).

    * ``region`` — *R*: the body facts of every violation in the search
      tracker's store at any state the search entered (the root store
      plus each update's ``added``), and every fix of every violation
      it resolved, deletions and insertions, before the program-denial
      and ``working`` filters;
    * ``inserted`` — *I*: every fact the search inserted at any state;
    * ``deleted`` — *Dl*: every fact it deleted at any state.  So
      ``D ∪ I`` holds the facts of every state, and ``D ∖ Dl`` lies in
      every state;
    * ``leaf_deletions`` — what each leaf of the search (a candidate or
      a dead branch) deleted, each distinct set once.  A state's
      deletions only grow along a branch, and a child the search skips
      as visited was entered before, so every state the search entered
      deleted a subset of one of them;
    * ``settled`` — one flag per constraint of the search's index: a
      NOT NULL constraint, or one whose antecedent names no predicate
      of *I* and whose consequent names no predicate of *Dl*.
    """

    region: FrozenSet[Fact]
    inserted: FrozenSet[Fact]
    deleted: FrozenSet[Fact]
    leaf_deletions: Tuple[FrozenSet[Fact], ...]
    settled: Tuple[bool, ...]

    @classmethod
    def of(
        cls,
        constraints: Sequence[AnyConstraint],
        region: Iterable[Fact],
        inserted: Iterable[Fact],
        deleted: Iterable[Fact],
        leaf_deletions: Iterable[FrozenSet[Fact]],
    ) -> "SearchRecord":
        """The record of a search over *constraints*, with its settled flags."""

        inserted = frozenset(inserted)
        deleted = frozenset(deleted)
        inserted_predicates = {fact.predicate for fact in inserted}
        deleted_predicates = {fact.predicate for fact in deleted}
        return cls(
            frozenset(region),
            inserted,
            deleted,
            tuple(leaf_deletions),
            tuple(
                isinstance(constraint, NotNullConstraint)
                or (
                    constraint.body_predicates().isdisjoint(inserted_predicates)
                    and constraint.head_predicates().isdisjoint(deleted_predicates)
                )
                for constraint in constraints
            ),
        )


class RepairSequence(abc.Sequence):
    """The repairs of one instance, held as their minimal deltas.

    A read-only sequence over a *base* snapshot and the repairs' deltas
    in discovery order.  ``len()`` builds nothing; indexing and
    iteration build each repair on access, as a copy-on-write copy of
    the base plus its delta (:meth:`DatabaseInstance.with_delta`), and
    keep none of them.  The base is a snapshot taken before the search
    starts, so a repair built after the source instance changed is still
    the snapshot's repair.  It compares equal to any sequence of equal
    instances in the same order (a plain list of repairs included, from
    either side of ``==``).  :func:`repro.core.cqa.result_from_repairs`
    decides a conjunctive query's answers from :attr:`deltas` without
    building any repair.  The production search attaches its
    :class:`SearchRecord`, which lets :func:`carry_repairs` carry the
    deltas across writes; a slice, like the naive search's list, has
    none.
    """

    __slots__ = ("base", "deltas", "record")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        base: DatabaseInstance,
        deltas: Sequence[RepairDelta],
        record: Optional[SearchRecord] = None,
    ):
        self.base = base
        self.deltas: Tuple[RepairDelta, ...] = tuple(deltas)
        self.record = record

    def __len__(self) -> int:
        return len(self.deltas)

    def _build(self, delta: RepairDelta) -> DatabaseInstance:
        with _trace.span("repair.materialise"):
            return self.base.with_delta(*delta)

    def __getitem__(  # type: ignore[override]
        self, index: Union[int, slice]
    ) -> Union[DatabaseInstance, "RepairSequence"]:
        if isinstance(index, slice):
            return RepairSequence(self.base, self.deltas[index])
        return self._build(self.deltas[index])

    def __iter__(self) -> Iterator[DatabaseInstance]:
        for delta in self.deltas:
            yield self._build(delta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, abc.Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"RepairSequence({len(self)} repairs)"


def carry_repairs(
    repairs: RepairSequence,
    current: DatabaseInstance,
    inserted: AbstractSet[Fact],
    deleted: AbstractSet[Fact],
    index: ViolationIndex,
) -> Optional[RepairSequence]:
    """The repairs of *current*, carried from *repairs* with no search, or ``None``.

    *repairs* holds the repairs of its base ``D`` and the
    :class:`SearchRecord` of the search that found them (``R``, ``I``,
    ``Dl``, the leaf deletion sets, the settled flags); *current* is
    ``D′``, which differs from ``D`` by the net change ``F+`` =
    *inserted*, ``F−`` = *deleted*.  *index* is the search's
    :class:`ViolationIndex`.  A match *has a head witness in every
    state* of a fact set ``S`` when one of its witnesses lies in
    ``S ∖ Dl``, or else, for each leaf deletion set ``l``, one lies in
    ``S ∖ l``.  The held deltas are also the repairs of ``D′``, in the
    same order, when

    1. every write since ``D`` left the session tracker's violations
       unchanged (an empty :class:`ViolationDelta`) — the caller's
       part, checked per write;
    2. no fact of ``F+ ∪ F−`` is in ``R``;
    3. for every constraint that is not settled, each body match over
       ``D′ ∪ I`` that uses an ``F+`` fact satisfies one of the
       constraint's comparisons, or has a head witness in every state
       of ``D′``;
    4. for every constraint that is not settled, each body match over
       ``(D ∩ D′) ∪ I`` whose consequent an ``F+`` or ``F−`` fact
       witnesses satisfies a comparison, or has a head witness in every
       state of ``D ∩ D′``, the facts both searches share.

    Rules 2–4 are decided here, after one checkpoint of the ambient
    request budget, the matches and witness probes running on
    :class:`~repro.compile.kernel.FactOverlay` views of *current*; a
    body match is a match of the kernel's plans, so the relevant-null
    guard applies.  The leaf deletion sets are read only for a match
    that no fact outside ``Dl`` witnesses, e.g. a child of a key
    conflict's parent, each of whose rows some repair deletes.  The
    carried sequence keeps the deltas and the record, over a base
    built from the old base plus the net change — never a copy of
    *current*, so the caller's next write still finds its relations
    owned.

    Why it holds.  A state ``s`` of the search over ``D`` holds
    ``D_s = (D ∖ del_s) ∪ ins_s`` with ``ins_s ⊆ I`` and ``del_s ⊆ Dl``,
    and ``del_s`` lies in some leaf deletion set (:class:`SearchRecord`),
    so a match with a head witness in every state of ``S`` has one in
    ``S ∖ del_s``.
    Every applied fix is a fix of a resolved violation, so ``I`` and
    ``Dl`` lie in ``R`` and miss ``F+ ∪ F−`` (rule 2); the same fixes
    applied to ``D′`` give ``D′_s = (D_s ∖ F−) ∪ F+``.  Every state the
    search entered has the same violations over ``D′_s`` as over ``D_s``:

    * a settled constraint's antecedent sees no inserted fact and its
      consequent loses no base fact in any state, so its violations at
      ``s`` are the root's violations whose body ``del_s`` misses and no
      fact of ``ins_s`` witnesses, over ``D`` and over ``D′`` alike, and
      rule 1 makes the two roots' violations equal.  A NOT NULL
      violation is one fact, which rule 1 alone keeps;
    * for any other constraint, a violation at ``D_s`` was in the
      tracker's store at ``s``, so its body facts lie in ``R`` and
      (rule 2) outside ``F−``: its match survives in ``D′_s``.  A
      witness it gains is an ``F+`` fact, which would make it a match
      over ``(D ∩ D′) ∪ I`` that rule 4 gives a witness in
      ``(D ∩ D′) ∖ del_s``, one ``D_s`` holds too.  Conversely, a
      violation at ``D′_s`` that uses an ``F+`` fact is a match over
      ``D′ ∪ I``, to which rule 3 gives a witness in
      ``D′ ∖ del_s ⊆ D′_s``; so it lies in ``D_s ∖ F−``, and a witness
      in ``D_s`` that ``D′_s`` lacks is an ``F−`` fact, against rule 4
      in the same way.

    With the same violations at every state, a search over ``D′``
    resolves the same violation at each state with the same fixes: the
    ``working`` filter on insertion fixes reads only facts of ``R``,
    where ``D_s`` and ``D′_s`` agree.  It enters the same states and
    finds the same candidates in the same order, each with the same
    ``∆`` (``I`` misses ``D′`` and ``Dl`` lies in it), so the ``≤_D``
    filter keeps the same ones.  Its stores and fixes are the same too,
    so the record carries with the deltas.
    """

    record = repairs.record
    if record is None:
        return None
    _budget.active().checkpoint()
    if not inserted and not deleted:
        return repairs
    region = record.region
    if not (region.isdisjoint(inserted) and region.isdisjoint(deleted)):
        return None
    settled = record.settled
    if not all(settled):
        from repro.compile.kernel import FactOverlay

        units = index.program.units
        leaves = record.leaf_deletions

        def open_in_some_state(
            position: int,
            matches: "FactOverlay",
            outside_dl: "FactOverlay",
            excluded: AbstractSet[Fact],
            seed: Optional[Fact] = None,
            partial: Optional[Dict[Variable, Constant]] = None,
        ) -> bool:
            # Rules 3 and 4: does some state keep no head witness of some
            # match over *matches*, the witnesses taken from current ∖
            # excluded?  *outside_dl* is current ∖ excluded ∖ Dl, which
            # every state keeps; only a match it leaves open reads the
            # leaf deletion sets.
            unit = units[position]
            if not unit.unwitnessed_match(matches, outside_dl, seed=seed, partial=partial):  # type: ignore[union-attr]
                return False
            return any(
                unit.unwitnessed_match(  # type: ignore[union-attr]
                    matches,
                    FactOverlay(current, removed=itertools.chain(leaf, excluded)),
                    seed=seed,
                    partial=partial,
                )
                for leaf in leaves
            )

        grown = FactOverlay(current, added=record.inserted)
        open_witnesses = FactOverlay(current, removed=record.deleted)
        for fact in inserted:
            for position in index.body_mentions(fact.predicate):
                if not settled[position] and open_in_some_state(
                    position, grown, open_witnesses, frozenset(), seed=fact
                ):
                    return None
        kept = FactOverlay(current, added=record.inserted, removed=inserted)
        stable = FactOverlay(current, removed=itertools.chain(record.deleted, inserted))
        for fact in itertools.chain(inserted, deleted):
            for position in index.head_mentions(fact.predicate):
                if settled[position]:
                    continue
                constraint = index.constraints[position]
                for partial in _lost_witness_assignments(constraint, fact):  # type: ignore[arg-type]
                    if open_in_some_state(position, kept, stable, inserted, partial=partial):
                        return None
    base = repairs.base.copy()
    for fact in deleted:
        base.discard(fact)
    for fact in inserted:
        base.add(fact)
    return RepairSequence(base, repairs.deltas, record)


#: The production search: the delta-carrying depth-first search of
#: :mod:`repro.core.parallel`.  It runs in the calling process; the name
#: stays only because the end-to-end benchmark's ``pool_enum`` sessions
#: pass ``repair_mode="parallel"``.
PARALLEL_METHOD = "parallel"

#: Everything ``RepairEngine(method=)`` accepts: the production search and
#: the nested-loop ``"naive"`` reference the property suites compare it
#: against.  Both return the same repair list, order included.
REPAIR_METHODS = (PARALLEL_METHOD, "naive")


class RepairEngine:
    """Enumerate the repairs of Definition 7 for a fixed constraint set.

    Two searches are available.  They pick the same violation to resolve
    at every state and return the same repair list, order included
    (benchmark E12 and the property suites assert it):

    * ``"parallel"`` (default) — the production search of
      :mod:`repro.core.parallel`: a mutate/undo depth-first search over one
      working instance whose violations a :class:`ViolationTracker` keeps
      current.  It enters the same states as the reference; each
      candidate comes back as its ``∆(D, ·)``, ``≤_D`` is decided on
      those deltas (:class:`DeltaMinimality`), and the minimal ones are
      returned as a :class:`RepairSequence`, which builds a repair (a
      copy-on-write copy of the base plus its delta,
      :meth:`DatabaseInstance.with_delta`) only when a caller accesses
      it.  *seed_tracker* warm-starts
      the driver's search from a tracker already kept over the same facts,
      so no full violation sweep runs;
    * ``"naive"`` — the reference: a full nested-loop violation
      recomputation and an instance copy per state, minimality through
      recomputed symmetric differences.

    >>> from repro.relational.instance import DatabaseInstance
    >>> from repro.constraints.parser import parse_constraint
    >>> instance = DatabaseInstance.from_dict(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr")]})
    >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    >>> production = RepairEngine([key]).repairs(instance)
    >>> production == RepairEngine([key], method="naive").repairs(instance)
    True
    >>> [sorted(map(repr, r.facts())) for r in production]
    [['Emp(e1, sales)'], ['Emp(e1, hr)']]
    """

    def __init__(
        self,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
        max_states: Optional[int] = 200_000,
        method: str = PARALLEL_METHOD,
        violation_index: Optional[ViolationIndex] = None,
    ):
        if method not in REPAIR_METHODS:
            raise ValueError(
                f"unknown repair method {method!r}; use one of {', '.join(REPAIR_METHODS)}"
            )
        self._constraints = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet(list(constraints))
        )
        self._max_states = max_states
        self._method = method
        #: *violation_index* lets a caller that already indexed the same
        #: constraint set (the session façade) share it instead of
        #: rebuilding; it must cover exactly *constraints*, in order.
        self._violation_index = (
            violation_index
            if violation_index is not None
            else ViolationIndex(self._constraints)
        )
        self.statistics = RepairStatistics()

    @property
    def constraints(self) -> ConstraintSet:
        """The constraint set the engine repairs against."""

        return self._constraints

    @property
    def method(self) -> str:
        """The repair search the engine runs."""

        return self._method

    # ------------------------------------------------------------------ search
    def candidates(
        self,
        instance: DatabaseInstance,
        seed_tracker: Optional[ViolationTracker] = None,
    ) -> List[DatabaseInstance]:
        """All consistent instances reachable by resolving violations.

        The result is a superset of the repairs, in discovery order;
        :meth:`repairs` filters it through ``≤_D``-minimality.
        """

        if self._method != PARALLEL_METHOD:
            return self._timed_search(self._candidates_naive, instance)
        ordered, _ = self._timed_search(self._collect, instance, seed_tracker)
        return [instance.with_delta(inserted, deleted) for inserted, deleted in ordered]

    def _timed_search(self, search: Callable[..., _T], *args: object) -> _T:
        """Run *search* from fresh statistics inside the ``repair.search`` span."""

        self.statistics = RepairStatistics()
        with _trace.span("repair.search", method=self._method):
            started = _clock.now()
            try:
                return search(*args)
            finally:
                self.statistics.search_seconds = _clock.now() - started

    def _enter_state(
        self,
        visited: Set[Tuple[FrozenSet[Fact], FrozenSet[Fact]]],
        inserted: FrozenSet[Fact],
        deleted: FrozenSet[Fact],
    ) -> bool:
        """Record a search state; False if seen before, raises over budget."""

        state_key = (inserted, deleted)
        if state_key in visited:
            return False
        visited.add(state_key)
        self.statistics.states_explored += 1
        if self._max_states is not None and self.statistics.states_explored > self._max_states:
            raise RepairSearchBudgetExceeded(
                f"repair search exceeded {self._max_states} states; "
                "raise max_states or simplify the instance"
            )
        budget = _budget.active()
        if budget:  # the ambient request budget: deadline / cancel / memory
            budget.charge_states(1)
            budget.checkpoint()
        return True

    def _candidates_naive(self, instance: DatabaseInstance) -> List[DatabaseInstance]:
        """The reference search: nested-loop violations, one copy per state."""

        found: Dict[FrozenSet[Fact], DatabaseInstance] = {}
        visited: Set[Tuple[FrozenSet[Fact], FrozenSet[Fact]]] = set()

        def explore(
            current: DatabaseInstance,
            inserted: FrozenSet[Fact],
            deleted: FrozenSet[Fact],
        ) -> None:
            if not self._enter_state(visited, inserted, deleted):
                return

            violations = all_violations(current, self._constraints, naive=True)
            if not violations:
                key = current.fact_set()
                if key not in found:
                    found[key] = current.copy()
                    self.statistics.candidates_found += 1
                return

            violation = min(violations, key=violation_choice_key)
            branched = False
            for fact in deletion_fixes(violation):
                if fact in inserted:
                    continue  # the program denial: never undo an insertion
                next_instance = current.copy()
                next_instance.discard(fact)
                branched = True
                explore(next_instance, inserted, deleted | {fact})
            for fact in insertion_fixes(violation):
                if fact in deleted or fact in current:
                    continue
                next_instance = current.copy()
                next_instance.add(fact)
                branched = True
                explore(next_instance, inserted | {fact}, deleted)
            if not branched:
                self.statistics.dead_branches += 1

        explore(instance.copy(), frozenset(), frozenset())
        return list(found.values())

    def _collect(
        self,
        instance: DatabaseInstance,
        seed_tracker: Optional[ViolationTracker],
    ) -> Tuple[List[RepairDelta], Optional[SearchRecord]]:
        """The production search's candidates as (Δins, Δdel), in discovery order, and its record."""

        from repro.core.parallel import ParallelRepairSearch

        search = ParallelRepairSearch(
            instance,
            self._constraints,
            max_states=self._max_states,
            violation_index=self._violation_index,
            seed_tracker=seed_tracker,
        )
        # The engine reports the search's own counters.
        self.statistics = search.statistics
        return search.collect(), search.record

    def repairs(
        self,
        instance: DatabaseInstance,
        seed_tracker: Optional[ViolationTracker] = None,
    ) -> Sequence[DatabaseInstance]:
        """The ``≤_D``-minimal consistent candidates (Definition 7).

        The production search returns a :class:`RepairSequence` over a
        snapshot of *instance* and the minimal deltas, which builds each
        repair only when it is accessed, with the search's
        :class:`SearchRecord` attached; the naive reference returns a
        list of instances, which nothing carries.  The two compare
        equal, order included.

        *seed_tracker* is a :class:`ViolationTracker` over an instance with
        the same facts and constraints; the production search copies its
        violation store instead of sweeping (the naive reference ignores it).
        """

        minimal: Sequence[DatabaseInstance]
        if self._method != PARALLEL_METHOD:
            candidates = self.candidates(instance)
            started = _clock.now()
            with _trace.span("repair.minimality", candidates=len(candidates)):
                minimal, comparisons = _minimal_under_leq_d_counted(instance, candidates)
        else:
            base = instance.copy()
            ordered, record = self._timed_search(self._collect, base, seed_tracker)
            started = _clock.now()
            with _trace.span("repair.minimality", candidates=len(ordered)):
                flags, comparisons = minimal_flags_counted(
                    [inserted | deleted for inserted, deleted in ordered]
                )
            minimal = RepairSequence(
                base, [delta for delta, keep in zip(ordered, flags) if keep], record
            )
        self.statistics.minimality_seconds = _clock.now() - started
        self.statistics.leq_d_comparisons = comparisons
        self.statistics.repairs_found = len(minimal)
        _metrics.absorb_repair_statistics(self.statistics)
        return minimal


def minimal_under_leq_d(
    original: DatabaseInstance, candidates: Sequence[DatabaseInstance]
) -> List[DatabaseInstance]:
    """The candidates not strictly dominated (``<_D``) by another candidate."""

    minimal, _ = _minimal_under_leq_d_counted(original, candidates)
    return minimal


class DeltaMinimality:
    """``≤_D`` (Definition 6) decided on candidate deltas held as bitsets.

    One bit stands for each distinct fact across all deltas, so each
    delta is two ints: ``full[i]`` is all of ``∆(i)`` and ``plain[i]``
    its null-free part.  The *cover* of a null atom is the bits of every
    delta fact with the same predicate and arity that agrees with it on
    its non-null positions; ``covers[i]`` holds one per null atom of
    ``∆(i)``.  Then ``i ≤_D j`` iff ``plain[i] ⊆ full[j]`` (condition
    (a)) and every cover of ``i`` meets ``full[j] ∖ full[i]`` (condition
    (b)) — exactly :func:`leq_deltas`.

    :meth:`dominated` visits only the rivals whose null-free part is
    smaller than ``|∆(i)|``.  That bound is sound: for ``j ≠ i``,
    ``j <_D i`` implies ``|plain(j)| < |∆(i)|``.  ``j ≤_D i`` puts
    ``plain(j)`` inside ``∆(i)``; if the two have equal size they are
    equal, so a null atom of ``j`` has no cover in ``∆(i) ∖ ∆(j) = ∅``;
    then ``∆(j) = ∆(i)`` is null-free and ``i ≤_D j`` holds too.
    """

    def __init__(self, deltas: Sequence[FrozenSet[Fact]]):
        bits: Dict[Fact, int] = {}
        null_atoms: Dict[int, Fact] = {}
        self.plain: List[int] = []
        self.full: List[int] = []
        #: ``|∆(i)|`` per candidate.
        self.sizes: List[int] = []
        nulls_of: List[List[int]] = []
        for delta in deltas:
            plain = full = 0
            nulls: List[int] = []
            for fact in delta:
                bit = bits.get(fact)
                if bit is None:
                    bit = bits[fact] = 1 << len(bits)
                    if fact.has_null():
                        null_atoms[bit] = fact
                full |= bit
                if bit in null_atoms:
                    nulls.append(bit)
                else:
                    plain |= bit
            self.plain.append(plain)
            self.full.append(full)
            self.sizes.append(len(delta))
            nulls_of.append(nulls)
        cover = _null_covers(bits, null_atoms)
        self.covers: List[Tuple[int, ...]] = [
            tuple(cover[bit] for bit in nulls) for nulls in nulls_of
        ]
        plain_sizes = [size - len(nulls) for size, nulls in zip(self.sizes, nulls_of)]
        #: Candidate indices by ascending null-free size, for the bound.
        self._rivals = sorted(range(len(plain_sizes)), key=plain_sizes.__getitem__)
        self._rival_sizes = [plain_sizes[other] for other in self._rivals]
        #: Pairwise ``≤_D`` checks performed through this context.
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self.full)

    def leq(self, first: int, second: int) -> bool:
        """``candidate[first] ≤_D candidate[second]`` on the stored deltas."""

        self.comparisons += 1
        plain, target = self.plain[first], self.full[second]
        if plain & target != plain:
            return False
        gained = target & ~self.full[first]
        return all(cover & gained for cover in self.covers[first])

    def dominated(self, index: int) -> bool:
        """Is the candidate strictly ``<_D``-dominated by any other?"""

        outside = ~self.full[index]
        plain = self.plain
        bound = bisect_left(self._rival_sizes, self.sizes[index])
        for other in self._rivals[:bound]:
            if plain[other] & outside or other == index:
                continue
            if self.leq(other, index) and not self.leq(index, other):
                return True
        return False


def _null_covers(bits: Dict[Fact, int], null_atoms: Dict[int, Fact]) -> Dict[int, int]:
    """The cover bits of each null atom's bit, one table per cover signature."""

    relations: Dict[Tuple[str, int], List[Fact]] = {}
    if null_atoms:
        for fact in bits:
            relations.setdefault((fact.predicate, fact.arity), []).append(fact)
    tables: Dict[Tuple[str, int, Tuple[int, ...]], Dict[Tuple, int]] = {}
    cover: Dict[int, int] = {}
    for bit, atom in null_atoms.items():
        positions = atom.non_null_positions()
        signature = (atom.predicate, atom.arity, positions)
        table = tables.get(signature)
        if table is None:
            table = tables[signature] = {}
            for fact in relations[(atom.predicate, atom.arity)]:
                key = tuple(fact.values[p] for p in positions)
                table[key] = table.get(key, 0) | bits[fact]
        cover[bit] = table[tuple(atom.values[p] for p in positions)]
    return cover


def minimal_flags_counted(
    deltas: Sequence[FrozenSet[Fact]],
) -> Tuple[List[bool], int]:
    """Per-candidate minimality flags plus the number of ``≤_D`` checks."""

    context = DeltaMinimality(deltas)
    return _undominated(context), context.comparisons


def _undominated(context: DeltaMinimality) -> List[bool]:
    """True per candidate of *context* iff no other strictly dominates it.

    Checkpoints the ambient budget before each candidate: the filter is
    quadratic in the candidate count, so a deadline or cancellation must
    be able to stop it.
    """

    budget = _budget.active()
    flags = []
    for index in range(len(context)):
        budget.checkpoint()
        flags.append(not context.dominated(index))
    return flags


def minimal_flags_for_deltas(deltas: Sequence[FrozenSet[Fact]]) -> List[bool]:
    """True per index iff the candidate is not strictly ``<_D``-dominated."""

    flags, _ = minimal_flags_counted(deltas)
    return flags


def _minimal_under_leq_d_counted(
    original: DatabaseInstance, candidates: Sequence[DatabaseInstance]
) -> Tuple[List[DatabaseInstance], int]:
    """``≤_D``-minimality via :class:`DeltaMinimality` (single context)."""

    count = len(candidates)
    if count <= 1:
        return list(candidates), 0
    context = DeltaMinimality(
        [original.symmetric_difference(candidate) for candidate in candidates]
    )
    minimal = [
        candidate
        for candidate, keep in zip(candidates, _undominated(context))
        if keep
    ]
    return minimal, context.comparisons


def repairs(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    max_states: Optional[int] = 200_000,
) -> List[DatabaseInstance]:
    """Convenience wrapper: the repairs of *instance* w.r.t. *constraints*."""

    return RepairEngine(constraints, max_states=max_states).repairs(instance)


# --------------------------------------------------------------------------- Proposition 1
def restricted_domain(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
) -> FrozenSet[Constant]:
    """``adom(D) ∪ const(IC) ∪ {null}``: the domain repairs live in (Proposition 1)."""

    constraint_set = (
        constraints if isinstance(constraints, ConstraintSet) else ConstraintSet(list(constraints))
    )
    return frozenset(
        set(instance.active_domain()) | set(constraint_set.constants()) | {NULL}
    )


def within_restricted_domain(
    original: DatabaseInstance,
    repaired: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
) -> bool:
    """Check Proposition 1(a) for a candidate repair."""

    allowed = restricted_domain(original, constraints)
    return all(
        value in allowed or is_null(value)
        for fact in repaired.facts()
        for value in fact.values
    )


# --------------------------------------------------------------------------- brute force
def brute_force_repairs(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    max_insertable_atoms: int = 14,
) -> List[DatabaseInstance]:
    """Reference implementation of Definition 7 by exhaustive enumeration.

    Enumerates every instance over the restricted domain of Proposition 1
    whose facts are either original facts or atoms built from that domain,
    keeps the consistent ones and filters them through ``≤_D``-minimality.
    Exponential — only usable for very small instances; the property-based
    tests use it to validate :class:`RepairEngine`.
    """

    constraint_set = (
        constraints if isinstance(constraints, ConstraintSet) else ConstraintSet(list(constraints))
    )
    domain = sorted(restricted_domain(instance, constraint_set), key=lambda v: repr(v))

    # Candidate atoms: every atom over the constrained predicates and the
    # predicates of the instance, with values from the restricted domain.
    predicates: Dict[str, int] = {}
    for pred in instance.predicates:
        predicates[pred] = instance.schema.arity(pred)
    for constraint in constraint_set:
        if isinstance(constraint, NotNullConstraint):
            continue
        for atom in constraint.body + constraint.head_atoms:
            predicates.setdefault(atom.predicate, atom.arity)

    insertable: List[Fact] = []
    for pred, arity in sorted(predicates.items()):
        for values in itertools.product(domain, repeat=arity):
            fact = Fact(pred, values)
            if fact not in instance:
                insertable.append(fact)
    if len(insertable) > max_insertable_atoms:
        raise ValueError(
            f"brute-force enumeration would consider {len(insertable)} insertable atoms; "
            f"the limit is {max_insertable_atoms}"
        )

    original_facts = list(instance.facts())
    consistent: List[DatabaseInstance] = []
    for keep_mask in itertools.product((False, True), repeat=len(original_facts)):
        kept = [fact for fact, keep in zip(original_facts, keep_mask) if keep]
        for insert_mask in itertools.product((False, True), repeat=len(insertable)):
            added = [fact for fact, add in zip(insertable, insert_mask) if add]
            candidate = DatabaseInstance.from_facts(
                kept + added, schema=instance.schema
            )
            if is_consistent(candidate, constraint_set):
                consistent.append(candidate)
    return minimal_under_leq_d(instance, consistent)
