"""The production repair search: one mutate/undo depth-first search.

The search walks the violation-resolution tree of the nested-loop
``"naive"`` reference of :class:`~repro.core.repairs.RepairEngine`
depth-first, over one working copy of the instance whose violations one
:class:`~repro.core.repairs.ViolationTracker` keeps current
(warm-started from the caller's tracker when one is given).  At every
state it resolves the same violation as the reference and tries the
same fixes in the same order, and it checks one visited set before it
applies a fix, so a state reached twice costs no tracker update.  It
therefore enters the same states, finds the same candidates in the same
order and meets the same dead branches as the reference, with one
tracker update per state entered after the root.  Each candidate is
reported as its delta ``(Δins, Δdel)`` instead of an instance.

Every :data:`PAUSE_STATES` states the search pauses and hands its
caller the candidates found since the last pause and its **open
frontier**: for every state on the stack, its committed delta plus each
of its fixes still untried — the roots of the subtrees not yet explored.
A finished search also leaves its
:class:`~repro.core.repairs.SearchRecord`: the facts of every violation
it met and every fix it tried, every fact it inserted or deleted, and
what each of its leaves deleted, which lets a session carry the repairs
across a later write the search never reached
(:func:`~repro.core.repairs.carry_repairs`).

:class:`AnytimeRepairStream` turns the pauses into an **anytime**
enumeration: a candidate ``C`` is provably a repair *before the search
finishes* once (a) no candidate found so far strictly
``≤_D``-dominates it and (b) no open frontier subtree could ever
produce a dominator.  (b) is sound because a frontier root's delta
``∆_f`` is contained in the delta of every candidate below it: inserted
facts are never deleted again and deleted facts never return, so if
``∆_f`` already contains a null-free atom outside ``∆(D, C)`` — or a
null atom with no cover in ``∆(D, C)`` (Definition 6(b)) — nothing
below ``f`` can be ``≤_D C``.

Everything runs in the calling process: the search, the anytime proofs
and the ``≤_D`` filter of :class:`~repro.core.repairs.DeltaMinimality`.
This module's name, :class:`ParallelRepairSearch` with its no-op
:meth:`~ParallelRepairSearch.close` and :data:`parallel_minimal_flags`
stay only because the benchmark's traced mode (``perfbench/``) resolves
them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.errors import budget_error
from repro.obs import clock as _clock
from repro.obs import trace as _trace
from repro.resilience import budget as _budget
from repro.resilience.budget import Budget, Degradation
from repro.core.repairs import (
    DeltaMinimality,
    RepairSearchBudgetExceeded,
    RepairSequence,
    RepairStatistics,
    SearchRecord,
    ViolationDelta,
    ViolationIndex,
    ViolationTracker,
    deletion_fixes,
    insertion_fixes,
    minimal_flags_counted,  # importable here: the benchmark's traced mode wraps it
    minimal_flags_for_deltas,  # importable here: the benchmark's traced mode wraps it
    violation_choice_key,
)
from repro.relational.instance import DatabaseInstance, Fact

#: Nothing calls this name; it stays importable here because the
#: benchmark's traced mode wraps it by name.
parallel_minimal_flags = minimal_flags_counted

#: States the search enters between two pauses.  A search of at most
#: this many states finishes before its first pause, so the anytime
#: stream makes one proof pass over it.
PAUSE_STATES = 1024

#: Coarse per-fact cost (bytes) used to charge candidate deltas against
#: a memory budget.  Deliberately rough: the budget is a tripwire against
#: unbounded accumulation, not an allocator.
_DELTA_COST = 96

_EMPTY_FACTS: FrozenSet[Fact] = frozenset()

#: A discovered candidate: (inserted facts, deleted facts).  The
#: candidate's fact set is ``(D ∖ deleted) ∪ inserted`` and its delta is
#: ``inserted ∪ deleted`` — the (usually tiny) delta instead of the
#: whole instance, so the search holds memory proportional to the repair
#: distance, not the database size.
Candidate = Tuple[FrozenSet[Fact], FrozenSet[Fact]]


@dataclass
class SearchBatch:
    """What the search hands over at a pause: new candidates and the open frontier."""

    candidates: List[Candidate]
    #: The delta of every unexplored subtree root; empty once the search is done.
    frontier: Tuple[FrozenSet[Fact], ...]


class _State:
    """A state on the search stack: its committed delta, the applicable
    fixes of the violation it resolves (its deletions first), the next
    fix to try and the tracker's undo record of the fix being explored."""

    __slots__ = ("inserted", "deleted", "fixes", "deletions", "next", "undo")

    def __init__(
        self,
        inserted: FrozenSet[Fact],
        deleted: FrozenSet[Fact],
        fixes: List[Fact],
        deletions: int,
    ):
        self.inserted = inserted
        self.deleted = deleted
        self.fixes = fixes
        self.deletions = deletions
        self.next = 0
        self.undo: Optional[ViolationDelta] = None


# --------------------------------------------------------------------------- search
class ParallelRepairSearch:
    """One depth-first repair search over one working copy and one tracker.

    *seed_tracker* warm-starts it: a tracker over an instance with the
    same facts and constraints, whose violation store is copied when the
    search starts, so no violation sweep runs.  :attr:`statistics` holds
    the search's own counters: ``states_explored``, ``candidates_found``
    and ``dead_branches`` equal the naive reference's, and
    ``violation_updates`` is ``states_explored − 1``.

    Nothing about it is parallel: the class keeps its name only because
    the benchmark's traced mode resolves it.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
        *,
        max_states: Optional[int] = 200_000,
        violation_index: Optional[ViolationIndex] = None,
        budget: Optional[Budget] = None,
        seed_tracker: Optional[ViolationTracker] = None,
    ):
        self._instance = instance
        self._index = (
            violation_index
            if violation_index is not None
            else ViolationIndex(constraints)
        )
        self._max_states = max_states
        self._request_budget = budget
        self._seed_tracker = seed_tracker
        #: Set when a ``degrade=True`` budget ran out mid-search: the
        #: batches yielded so far cover a sound *prefix* of the search
        #: and this record says why the rest was never explored.
        self.degradation: Optional[Degradation] = None
        #: What the search touched, set with its last batch: what a
        #: write must miss for the repairs to carry across it
        #: (:func:`repro.core.repairs.carry_repairs`).
        self.record: Optional[SearchRecord] = None
        self.statistics = RepairStatistics()

    def request_budget(self) -> Optional[Budget]:
        """The budget this search answers to: the constructor's, else the ambient one."""

        if self._request_budget is not None:
            return self._request_budget
        ambient = _budget.active()
        return ambient if ambient else None

    def settle(self, budget: Budget, reason: str, open_subtrees: int) -> None:
        """The budget ran out with work left: record the degradation, or raise."""

        if budget.degrade:
            self.degradation = budget.degradation(
                detail=f"{open_subtrees} frontier subtrees unexplored"
            )
            return
        raise budget.error(reason)

    def batches(self) -> Iterator[SearchBatch]:
        """Run the search, yielding a :class:`SearchBatch` at every pause.

        The last batch, with an empty frontier, comes when the search is
        done, and :attr:`record` is set just before it.  Raises
        :class:`RepairSearchBudgetExceeded` once more than
        ``max_states`` states are entered.

        A request :class:`Budget` (the constructor's, else the ambient
        one) is charged per state and per candidate and checked before
        every state: on exhaustion the generator either raises the typed
        error (strict) or — with ``degrade=True`` — records
        :attr:`degradation` and stops, leaving the batches yielded so far
        as a sound prefix.
        """

        budget = self.request_budget()
        max_states = self._max_states
        stats = self.statistics
        resumed = _clock.now()
        working = self._instance.copy()
        tracker = ViolationTracker(working, self._index, seed=self._seed_tracker)
        visited = {(_EMPTY_FACTS, _EMPTY_FACTS)}
        stack: List[_State] = []
        found: List[Candidate] = []
        # The record: every violation's body facts and every fix (region),
        # every fact inserted and every fact deleted at any state, and the
        # deletions of every leaf (a candidate or a dead branch).
        region: Set[Fact] = set()
        for violation in tracker.violations():
            region.update(violation.body_facts)
        inserted_any: Set[Fact] = set()
        deleted_any: Set[Fact] = set()
        leaf_deletions: Set[FrozenSet[Fact]] = set()

        def spent(budget: Budget) -> bool:
            """Is the budget spent?  Then settle it (degrade or raise)."""

            reason = budget.exhausted()
            if reason is None:
                return False
            open_subtrees = sum(len(frame.fixes) - frame.next for frame in stack)
            self.settle(budget, reason, open_subtrees)
            return True

        def enter(inserted: FrozenSet[Fact], deleted: FrozenSet[Fact]) -> None:
            """Count a new state; push it, or record a candidate or a dead branch."""

            stats.states_explored += 1
            if max_states is not None and stats.states_explored > max_states:
                raise RepairSearchBudgetExceeded(
                    f"repair search exceeded {max_states} states; "
                    "raise max_states or simplify the instance"
                )
            if budget is not None:
                budget.charge_states(1)
            violations = tracker.violations()
            if not violations:
                stats.candidates_found += 1
                found.append((inserted, deleted))
                leaf_deletions.add(deleted)
                if budget is not None:
                    budget.charge_memory(_DELTA_COST * (len(inserted) + len(deleted)))
                return
            violation = min(violations, key=violation_choice_key)
            # The program denial: never undo an insertion, never re-insert a deletion.
            fixes = deletion_fixes(violation)  # a fresh list
            if inserted:
                fixes = [fact for fact in fixes if fact not in inserted]
            deletions = len(fixes)
            for fact in insertion_fixes(violation):
                region.add(fact)
                if fact not in deleted and fact not in working:
                    fixes.append(fact)
            if fixes:
                stack.append(_State(inserted, deleted, fixes, deletions))
            else:
                stats.dead_branches += 1
                leaf_deletions.add(deleted)

        def tally() -> None:
            # Called just before each yield: only the time since the search
            # last resumed is search time, not the caller's between pauses.
            stats.violation_updates = tracker.updates
            stats.constraints_reevaluated = tracker.constraints_reevaluated
            stats.search_seconds += _clock.now() - resumed

        enter(_EMPTY_FACTS, _EMPTY_FACTS)
        paused_at = 0
        while stack:
            state = stack[-1]
            if state.undo is not None:  # back from the fix explored last
                tracker.revert(state.undo)
                state.undo = None
                if state.next <= state.deletions:
                    working.add(state.fixes[state.next - 1])
                else:
                    working.discard(state.fixes[state.next - 1])
            if state.next == len(state.fixes):
                stack.pop()
                continue
            fact = state.fixes[state.next]
            deletion = state.next < state.deletions
            if deletion:
                inserted, deleted = state.inserted, state.deleted | {fact}
            else:
                inserted, deleted = state.inserted | {fact}, state.deleted
            child = (inserted, deleted)
            if child in visited:
                state.next += 1
                continue
            if stats.states_explored - paused_at >= PAUSE_STATES:
                tally()
                yield SearchBatch(
                    found,
                    tuple(
                        frame.inserted | frame.deleted | {fix}
                        for frame in stack
                        for fix in frame.fixes[frame.next :]
                    ),
                )
                found = []
                paused_at = stats.states_explored
                resumed = _clock.now()
            if budget is not None and spent(budget):
                return
            state.next += 1
            visited.add(child)
            if deletion:
                working.discard(fact)
                deleted_any.add(fact)
                state.undo = tracker.notify_removed(fact)
            else:
                working.add(fact)
                inserted_any.add(fact)
                state.undo = tracker.notify_added(fact)
            for _, added in state.undo.added:
                region.update(added.body_facts)
            enter(inserted, deleted)
        tally()
        self.record = SearchRecord.of(
            self._index.constraints, region, inserted_any, deleted_any, leaf_deletions
        )
        yield SearchBatch(found, ())

    def close(self) -> None:
        """A no-op, idempotent: the search holds no resource to release.

        Kept only because the benchmark's traced mode observes it by name.
        """

    # ------------------------------------------------------------------ collection
    def collect(self) -> List[Candidate]:
        """Drain the search and return its candidates in discovery order.

        That is the order the naive reference discovers them in; each
        appears once, because the visited set keeps the search from
        entering a state twice and a candidate's delta determines its
        fact set.

        Always strict: a degraded (partial) search would make the
        returned list silently wrong — some repair might never have been
        discovered and some non-minimal candidate never dominated — so
        if the budget degraded mid-search this raises the typed error
        the strict mode would have.  Partial results only flow through
        :class:`AnytimeRepairStream`, whose per-repair proofs stay sound
        under truncation.
        """

        found: List[Candidate] = []
        for batch in self.batches():
            found.extend(batch.candidates)
        if self.degradation is not None:
            raise budget_error(
                self.degradation.reason,
                "repair search degraded mid-collection: " + self.degradation.render(),
            )
        return found


# --------------------------------------------------------------------------- anytime
def frontier_could_dominate(
    frontier_delta: FrozenSet[Fact], candidate_delta: FrozenSet[Fact]
) -> bool:
    """Could *any* candidate below this frontier state be ``≤_D`` the candidate?

    The frontier's committed delta is contained in the delta of every
    candidate below it, so a null-free atom outside the candidate's
    delta — or a null atom with no same-non-null-projection cover in it
    (a conservative superset of Definition 6(b)'s cover) — rules the
    whole subtree out as a source of dominators.  Conservative: may
    answer True for a subtree that never produces one, never False for
    one that does.
    """

    for fact in frontier_delta:
        if not fact.has_null():
            if fact not in candidate_delta:
                return False
        else:
            non_null = fact.non_null_positions()
            if not any(
                other.predicate == fact.predicate
                and other.arity == fact.arity
                and all(other.values[i] == fact.values[i] for i in non_null)
                for other in candidate_delta
            ):
                return False
    return True


@dataclass
class _StreamCandidate:
    inserted: FrozenSet[Fact]
    deleted: FrozenSet[Fact]
    delta: FrozenSet[Fact]
    #: Set once its minimality is proven (and its repair yielded).
    proven: bool = False
    dominated: bool = False


class AnytimeRepairStream:
    """Iterate repairs as they are *proven* ``≤_D``-minimal, mid-search.

    Wraps a :class:`ParallelRepairSearch` and, at each of its pauses,
    yields every repair whose minimality is now certain:
    :func:`frontier_could_dominate` clears every open frontier subtree,
    and no discovered candidate strictly dominates it.  Once the
    frontier is empty every candidate is decided, so the yielded set is
    always exactly the repair set — anytime changes *when* each repair
    becomes available, never *which*.  Each repair is built once, as a
    copy-on-write copy of the base plus its delta, and not kept.

    The proof pass checks the request budget before each candidate and,
    once it is spent, settles exactly as the search does
    (:meth:`ParallelRepairSearch.settle`): it records the degradation and
    stops, or raises the typed error.

    After exhaustion :attr:`ordered_repairs` holds the repairs in
    discovery order as the :class:`~repro.core.repairs.RepairSequence`
    ``RepairEngine.repairs`` returns, built from the proven deltas with
    the search's record attached, and
    :attr:`states_at_first_yield` records how deep into the search the
    first proof landed.
    """

    def __init__(self, search: ParallelRepairSearch):
        self._search = search
        self.ordered_repairs: Optional[RepairSequence] = None
        self.states_at_first_yield: Optional[int] = None
        #: Repairs yielded so far.
        self.proven = 0
        #: Repairs yielded while frontier subtrees were still open.
        self.yields_before_completion = 0
        #: Set when the underlying search degraded: everything yielded is
        #: a proven repair, but the enumeration may be incomplete and
        #: :attr:`ordered_repairs` stays ``None`` (never cache a partial
        #: list as the full answer).
        self.degradation: Optional[Degradation] = None

    @property
    def statistics(self) -> RepairStatistics:
        """The underlying search's counters."""

        return self._search.statistics

    def __iter__(self) -> Iterator[DatabaseInstance]:
        search = self._search
        base = search._instance
        budget = search.request_budget()
        pool: List[_StreamCandidate] = []

        def provable(frontier: Sequence[FrozenSet[Fact]]) -> Iterator[DatabaseInstance]:
            # Every span below closes before the yield: the consumer runs
            # while this generator is suspended, outside the proof.
            with _trace.span("repair.minimality", candidates=len(pool)):
                context = DeltaMinimality([entry.delta for entry in pool])
            for index, entry in enumerate(pool):
                if entry.proven or entry.dominated:
                    continue
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        search.settle(budget, reason, len(frontier))
                        return
                with _trace.span("repair.minimality"):
                    if any(
                        frontier_could_dominate(delta, entry.delta) for delta in frontier
                    ):
                        continue
                    entry.dominated = context.dominated(index)
                if entry.dominated:
                    continue
                entry.proven = True
                with _trace.span("repair.materialise"):
                    repair = base.with_delta(entry.inserted, entry.deleted)
                if self.states_at_first_yield is None:
                    self.states_at_first_yield = search.statistics.states_explored
                yield repair

        batches = search.batches()
        try:
            while True:
                # One span per pause, closed before the proof pass yields:
                # the search up to the pause and the intake of its candidates.
                with _trace.span("repair.search"):
                    batch = next(batches, None)
                    if batch is None:
                        break
                    pool.extend(
                        _StreamCandidate(inserted, deleted, inserted | deleted)
                        for inserted, deleted in batch.candidates
                    )
                for repair in provable(batch.frontier):
                    self.proven += 1
                    if batch.frontier:
                        self.yields_before_completion += 1
                    yield repair
                if search.degradation is not None:
                    break
        finally:
            batches.close()

        if search.degradation is not None:
            # The budget ran out: every repair yielded above carried a sound
            # minimality proof, but the rest was never explored or decided —
            # flag the truncation and leave ordered_repairs unset so nothing
            # caches this as the complete repair set.
            self.degradation = replace(search.degradation, proven=self.proven)
            return
        # The last batch had no open frontier, so every candidate is decided.
        self.ordered_repairs = RepairSequence(
            base,
            [(entry.inserted, entry.deleted) for entry in pool if entry.proven],
            search.record,
        )
