"""The production repair search: a delta-carrying mutate/undo DFS frontier.

The search explores one violation-resolution tree depth-first over a
single working instance whose violations a
:class:`~repro.core.repairs.ViolationTracker` keeps current, and reports
every consistent candidate as its delta ``(path, Δins, Δdel)`` instead of
an instance.  The tree is split into **frontier tasks** — unexplored
subtree roots identified by their branch-index *path* from the root —
run inline, in FIFO order, on one context warm-started from the
caller's tracker when one is given.

Three properties make the result exactly the sequential depth-first
search's, which the nested-loop ``"naive"`` reference of
:class:`~repro.core.repairs.RepairEngine` walks:

* **Deterministic decomposition.**  A task explores at most
  ``chunk_states`` states; whatever frontier it could not expand is
  *deferred* back to the scheduler as new tasks.  Which tasks exist and
  what each explores is a pure function of (instance, constraints,
  chunk budget).  Oversized tasks split again, so granularity adapts to
  the tree shape the way a work-stealing deque would.
* **Path-ordered merging.**  Every candidate is reported with the
  branch-index path of the state that produced it.  Sorting the merged
  candidates by path and keeping the lexicographically least occurrence
  of each fact set reproduces the *discovery order* of the sequential
  depth-first search (a DFS discovers every state at its
  lexicographically least reachable path), so the repair list is
  bit-identical to the reference's for every chunk size.
* **Sibling-exclusion partitioning** (denial-only constraint sets).
  When no constraint has consequent atoms, every fix is a deletion of
  an original fact, and branch *i* of a violation can soundly exclude
  the fixes of branches ``< i`` from its whole subtree: a candidate
  missing fact ``f`` must delete ``f`` somewhere, so forbidding the
  deletion partitions the candidates of sibling subtrees.  Tasks then
  never duplicate each other's states.  With consequent atoms
  (RICs/UICs) the exclusion is unsound — an inserted witness of one
  constraint can resolve another, making some candidates reachable
  only through mixed resolution orders — so subtrees may overlap and
  the path-ordered dedup does the reconciliation instead.

On top of the decomposition, :class:`AnytimeRepairStream` turns the
search into an **anytime** enumeration: a candidate ``C`` is provably a
repair *before the search finishes* once (a) no candidate found so far
strictly ``≤_D``-dominates it and (b) no open frontier task could ever
produce a dominator.  (b) is sound because a task's committed delta
``∆_f`` (its inserted and deleted facts) is contained in the delta of
every candidate below it: inserted facts are never deleted again and
deleted facts never return, so if ``∆_f`` already contains a null-free
atom outside ``∆(D, C)`` — or a null atom with no cover in ``∆(D, C)``
(Definition 6(b)) — nothing below ``f`` can be ``≤_D C``.

Everything runs in the calling process: the search, the anytime proofs
and the ``≤_D`` filter of :class:`~repro.core.repairs.DeltaMinimality`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.constraints.ic import AnyConstraint, ConstraintSet, NotNullConstraint
from repro.errors import budget_error
from repro.obs import clock as _clock
from repro.obs import trace as _trace
from repro.resilience import budget as _budget
from repro.resilience.budget import Budget, Degradation
from repro.core.repairs import (
    DeltaMinimality,
    RepairSearchBudgetExceeded,
    RepairStatistics,
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

#: Branch-index path of a search state, relative to the search root.
Path = Tuple[int, ...]

#: Default number of states one task may explore before it must defer
#: the rest of its subtree back to the scheduler.
DEFAULT_CHUNK_STATES = 1024

#: Coarse per-fact cost (bytes) used to charge candidate and frontier
#: deltas against a memory budget.  Deliberately rough: the budget is a
#: tripwire against unbounded accumulation, not an allocator.
_DELTA_COST = 96

_EMPTY_FACTS: FrozenSet[Fact] = frozenset()


def exclusion_safe(constraints: Union[ConstraintSet, Iterable[AnyConstraint]]) -> bool:
    """Can sibling subtrees soundly exclude each other's fixes?

    True iff no constraint has consequent atoms — i.e. every violation
    is repaired by deletions only (keys/FDs, denials, checks, NOT
    NULL).  See the module docstring for why consequent atoms break the
    partition argument.
    """

    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        if constraint.head_atoms:
            return False
    return True


@dataclass(frozen=True)
class FrontierTask:
    """One unexplored subtree of the repair search.

    ``inserted``/``deleted`` are the facts committed on the path from
    the search root to this state (the task's *delta* — a lower bound,
    under ``⊆``, of the delta of every candidate in the subtree).  The
    exclusion sets are only populated for denial-only constraint sets.
    """

    path: Path
    inserted: FrozenSet[Fact]
    deleted: FrozenSet[Fact]
    excluded_deletions: FrozenSet[Fact] = _EMPTY_FACTS
    excluded_insertions: FrozenSet[Fact] = _EMPTY_FACTS

    def delta(self) -> FrozenSet[Fact]:
        """The facts every candidate below this state must differ on."""

        return self.inserted | self.deleted


#: A discovered candidate: (path, inserted facts, deleted facts).  The
#: candidate's fact set is ``(D ∖ deleted) ∪ inserted`` and its delta is
#: ``inserted ∪ deleted`` — the (usually tiny) delta instead of the
#: whole instance, so the search holds memory proportional to the repair
#: distance, not the database size.
Candidate = Tuple[Path, FrozenSet[Fact], FrozenSet[Fact]]


@dataclass
class TaskResult:
    """What one executed task hands back to the scheduler."""

    task: FrontierTask
    candidates: List[Candidate]
    deferred: List[FrontierTask]
    statistics: RepairStatistics


@dataclass
class SearchBatch:
    """One scheduler round: new results plus the still-open frontier."""

    candidates: List[Candidate]
    open_tasks: Tuple[FrontierTask, ...]
    states_explored: int  #: cumulative states across all finished tasks


class SearchContext:
    """A private search state: instance, tracker, exclusion flag.

    A search builds one; it pays the full violation sweep once — or
    copies *seed*'s store, a tracker over an instance with the same
    facts — and then runs any number of tasks against the same working
    instance by replaying each task's delta before the bounded DFS and
    undoing it after: mutate/undo, lifted to task granularity.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ViolationIndex, ConstraintSet, Iterable[AnyConstraint]],
        seed: Optional[ViolationTracker] = None,
    ):
        self.index = (
            constraints
            if isinstance(constraints, ViolationIndex)
            else ViolationIndex(constraints)
        )
        self.working = instance.copy()
        self.tracker = ViolationTracker(self.working, self.index, seed=seed)
        self.exclusions = exclusion_safe(self.index.constraints)

    # ------------------------------------------------------------------ tasks
    def run_task(
        self,
        task: FrontierTask,
        budget: int,
        request_budget: Optional[Budget] = None,
    ) -> TaskResult:
        """Explore up to *budget* states of the task's subtree.

        Candidates are reported with their global path; the unexplored
        remainder of the subtree comes back as deferred tasks.  The
        working instance and tracker are restored exactly before
        returning, so contexts are reusable across tasks.

        *request_budget* is the request's resource envelope.  Exhaustion
        mid-task never raises here: the current state is *deferred*
        instead, exactly like a chunk-budget stop, so the open frontier
        the scheduler sees stays sound — the scheduler decides whether
        to raise or degrade.
        """

        budget = max(budget, 1)
        stats = RepairStatistics()
        updates_before = self.tracker.updates
        reevaluated_before = self.tracker.constraints_reevaluated
        candidates: List[Candidate] = []
        deferred: List[FrontierTask] = []
        visited: Set[Tuple[FrozenSet[Fact], FrozenSet[Fact]]] = set()
        states_used = 0

        task_span = _trace.span("repair.task")
        if task_span:
            task_span.add(path=str(task.path), delta=len(task.delta()))
        cpu_started = _clock.cpu_now()
        replay: List[Tuple[str, Fact, object]] = []
        task_span.__enter__()
        try:
            for fact in sorted(task.deleted, key=Fact.sort_key):
                self.working.discard(fact)
                replay.append(("del", fact, self.tracker.notify_removed(fact)))
            for fact in sorted(task.inserted, key=Fact.sort_key):
                self.working.add(fact)
                replay.append(("ins", fact, self.tracker.notify_added(fact)))

            def explore(
                path: Path,
                inserted: FrozenSet[Fact],
                deleted: FrozenSet[Fact],
                excluded_deletions: FrozenSet[Fact],
                excluded_insertions: FrozenSet[Fact],
            ) -> None:
                nonlocal states_used
                state_key = (inserted, deleted)
                if state_key in visited:
                    return
                if states_used >= budget or (
                    request_budget is not None
                    and request_budget.exhausted() is not None
                ):
                    deferred.append(
                        FrontierTask(
                            path,
                            inserted,
                            deleted,
                            excluded_deletions,
                            excluded_insertions,
                        )
                    )
                    return
                visited.add(state_key)
                states_used += 1
                stats.states_explored += 1
                if request_budget is not None:
                    # Per-state accounting keeps a states budget precise
                    # *within* a chunk.
                    request_budget.charge_states(1)

                current = self.tracker.violations()
                if not current:
                    stats.candidates_found += 1
                    candidates.append((path, inserted, deleted))
                    return

                violation = min(current, key=violation_choice_key)
                branched = False
                branch = 0
                for fact in deletion_fixes(violation):
                    index = branch
                    branch += 1
                    if fact in inserted:  # the program denial: never undo an insertion
                        continue
                    if fact in excluded_deletions:
                        continue  # the candidate lives in an earlier sibling subtree
                    self.working.discard(fact)
                    delta = self.tracker.notify_removed(fact)
                    branched = True
                    explore(
                        path + (index,),
                        inserted,
                        deleted | {fact},
                        excluded_deletions,
                        excluded_insertions,
                    )
                    self.tracker.revert(delta)
                    self.working.add(fact)
                    if self.exclusions:
                        excluded_deletions = excluded_deletions | {fact}
                for fact in insertion_fixes(violation):
                    index = branch
                    branch += 1
                    if fact in deleted or fact in self.working:
                        continue
                    if fact in excluded_insertions:
                        continue
                    self.working.add(fact)
                    delta = self.tracker.notify_added(fact)
                    branched = True
                    explore(
                        path + (index,),
                        inserted | {fact},
                        deleted,
                        excluded_deletions,
                        excluded_insertions,
                    )
                    self.tracker.revert(delta)
                    self.working.discard(fact)
                    if self.exclusions:
                        excluded_insertions = excluded_insertions | {fact}
                if not branched:
                    stats.dead_branches += 1

            explore(
                task.path,
                task.inserted,
                task.deleted,
                task.excluded_deletions,
                task.excluded_insertions,
            )
        finally:
            for kind, fact, delta in reversed(replay):
                self.tracker.revert(delta)  # type: ignore[arg-type]
                if kind == "del":
                    self.working.add(fact)
                else:
                    self.working.discard(fact)
            stats.task_cpu_seconds = _clock.cpu_now() - cpu_started
            if task_span:
                task_span.add(
                    states=stats.states_explored,
                    candidates=stats.candidates_found,
                    deferred=len(deferred),
                )
            task_span.__exit__(None, None, None)
        stats.violation_updates = self.tracker.updates - updates_before
        stats.constraints_reevaluated = (
            self.tracker.constraints_reevaluated - reevaluated_before
        )
        return TaskResult(task, candidates, deferred, stats)


# --------------------------------------------------------------------------- search
class ParallelRepairSearch:
    """Schedule the frontier tasks of one repair search.

    Tasks run inline, in FIFO order — fully deterministic, still anytime
    (batches surface as each task finishes) — over one context
    warm-started from *seed_tracker* when given (a tracker over an
    instance with the same facts and constraints; its store is copied
    when the search starts).

    Aggregate counters accumulate into :attr:`statistics` via
    :meth:`RepairStatistics.merge` as tasks finish; ``states_explored``
    sums the per-task counts, so with overlapping subtrees (non
    denial-only constraints) it may exceed the naive reference's
    unique-state count — the ``max_states`` budget applies to that sum.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
        *,
        max_states: Optional[int] = 200_000,
        chunk_states: int = DEFAULT_CHUNK_STATES,
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
        self._chunk_states = max(chunk_states, 1)
        self._request_budget = budget
        self._seed_tracker = seed_tracker
        #: Set when a ``degrade=True`` budget ran out mid-search: the
        #: batches yielded so far cover a sound *prefix* of the frontier
        #: and this record says why the rest was never explored.
        self.degradation: Optional[Degradation] = None
        self.statistics = RepairStatistics()

    def request_budget(self) -> Optional[Budget]:
        """The budget this search answers to: the constructor's, else the ambient one."""

        if self._request_budget is not None:
            return self._request_budget
        ambient = _budget.active()
        return ambient if ambient else None

    def settle(self, budget: Budget, reason: str, open_tasks: int) -> None:
        """The budget ran out with work left: record the degradation, or raise."""

        if budget.degrade:
            self.degradation = budget.degradation(
                detail=f"{open_tasks} frontier tasks unexplored"
            )
            return
        raise budget.error(reason)

    def batches(self) -> Iterator[SearchBatch]:
        """Run the search, yielding one :class:`SearchBatch` per finished task.

        Every task runs inline, on one :class:`SearchContext`
        warm-started from *seed_tracker* (else swept).  Raises
        :class:`RepairSearchBudgetExceeded` when the cumulative state
        count crosses ``max_states``.

        A request :class:`Budget` (the constructor's, else the ambient
        one) is charged per state and checked between tasks: on
        exhaustion the generator either raises the typed error (strict)
        or — with ``degrade=True`` — records :attr:`degradation` and
        stops cleanly, leaving the batches yielded so far as a sound
        partial frontier.
        """

        budget = self.request_budget()
        root = FrontierTask((), _EMPTY_FACTS, _EMPTY_FACTS)
        queue: deque[FrontierTask] = deque([root])
        open_tasks: Dict[Path, FrontierTask] = {root.path: root}
        total_states = 0
        started = _clock.now()
        context = SearchContext(self._instance, self._index, seed=self._seed_tracker)
        while queue:
            if budget is not None:
                reason = budget.exhausted()
                if reason is not None:
                    self.settle(budget, reason, len(open_tasks))
                    return
            result = context.run_task(
                queue.popleft(), self._chunk_states, request_budget=budget
            )
            total_states += result.statistics.states_explored
            self.statistics.merge(result.statistics)
            # Wall clock is the search's elapsed time, never the sum of the
            # per-task CPU seconds merge() accumulates separately.
            self.statistics.search_seconds = _clock.now() - started
            del open_tasks[result.task.path]
            for sub_task in result.deferred:
                open_tasks[sub_task.path] = sub_task
                queue.append(sub_task)
            if budget is not None:
                # A coarse estimate of what this round pinned in memory:
                # candidate deltas plus deferred frontier roots.
                budget.charge_memory(
                    sum(
                        _DELTA_COST * (len(inserted) + len(deleted))
                        for _, inserted, deleted in result.candidates
                    )
                    + _DELTA_COST * sum(len(t.delta()) for t in result.deferred)
                )
            if self._max_states is not None and total_states > self._max_states:
                raise RepairSearchBudgetExceeded(
                    f"repair search exceeded {self._max_states} states; "
                    "raise max_states or simplify the instance"
                )
            yield SearchBatch(
                result.candidates, tuple(open_tasks.values()), total_states
            )

    def close(self) -> None:
        """Release the search: a no-op, idempotent.

        The search holds no processes — it runs in this one — so there
        is nothing to reap.  Kept for callers that tear a finished or
        abandoned search down (the benchmark's traced mode observes it).
        """

    # ------------------------------------------------------------------ collection
    def collect(self) -> List[Tuple[Path, FrozenSet[Fact], FrozenSet[Fact]]]:
        """Drain the search and return the candidates in discovery order.

        Candidates are sorted by path and deduplicated keeping the
        lexicographically least path per (inserted, deleted) pair —
        exactly the order the sequential depth-first search first
        discovers them in (a candidate's fact set determines its delta
        and vice versa, so delta-level dedup is fact-level dedup).

        Always strict: a degraded (partial) frontier would make the
        returned list silently wrong — some repair might never have been
        discovered and some non-minimal candidate never dominated — so
        if the budget degraded mid-search this raises the typed error
        the strict mode would have.  Partial results only flow through
        :class:`AnytimeRepairStream`, whose per-repair proofs stay sound
        under truncation.
        """

        first_paths: Dict[Tuple[FrozenSet[Fact], FrozenSet[Fact]], Path] = {}
        for batch in self.batches():
            for path, inserted, deleted in batch.candidates:
                key = (inserted, deleted)
                previous = first_paths.get(key)
                if previous is None or path < previous:
                    first_paths[key] = path
        if self.degradation is not None:
            raise budget_error(
                self.degradation.reason,
                "repair search degraded mid-collection: " + self.degradation.render(),
            )
        ordered = sorted(first_paths.items(), key=lambda item: item[1])
        self.statistics.candidates_found = len(ordered)
        return [(path, key[0], key[1]) for key, path in ordered]


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
    path: Path
    inserted: FrozenSet[Fact]
    deleted: FrozenSet[Fact]
    delta: FrozenSet[Fact]
    #: The materialised repair, built once, when its minimality is proven.
    repair: Optional[DatabaseInstance] = None
    dominated: bool = False


class AnytimeRepairStream:
    """Iterate repairs as they are *proven* ``≤_D``-minimal, mid-search.

    Wraps a :class:`ParallelRepairSearch` and yields each repair at the
    earliest moment its minimality is certain: :func:`frontier_could_dominate`
    clears every open task, and no discovered candidate strictly dominates
    it.  Once the frontier is empty every candidate is decided, so the
    yielded set is always exactly the repair set — anytime changes *when*
    each repair becomes available, never *which*.  Each repair is built
    once, as a copy-on-write copy of the base plus its delta.

    The proof pass checks the request budget before each candidate and,
    once it is spent, settles exactly as the search does
    (:meth:`ParallelRepairSearch.settle`): it records the degradation and
    stops, or raises the typed error.

    After exhaustion :attr:`ordered_repairs` holds the repairs in the
    canonical discovery order (the order ``RepairEngine.repairs``
    returns), and :attr:`states_at_first_yield` records how deep into the
    search the first proof landed.
    """

    def __init__(self, search: ParallelRepairSearch):
        self._search = search
        self.ordered_repairs: Optional[List[DatabaseInstance]] = None
        self.states_at_first_yield: Optional[int] = None
        #: Repairs yielded while frontier tasks were still open.
        self.yields_before_completion = 0
        #: Set when the underlying search degraded: everything yielded is
        #: a proven repair, but the enumeration may be incomplete and
        #: :attr:`ordered_repairs` stays ``None`` (never cache a partial
        #: list as the full answer).
        self.degradation: Optional[Degradation] = None

    @property
    def statistics(self) -> RepairStatistics:
        """The underlying search's aggregate counters."""

        return self._search.statistics

    def __iter__(self) -> Iterator[DatabaseInstance]:
        search = self._search
        base = search._instance
        budget = search.request_budget()
        pool: Dict[Tuple[FrozenSet[Fact], FrozenSet[Fact]], _StreamCandidate] = {}
        yielded = 0

        def provable(open_tasks: Sequence[FrontierTask]) -> Iterator[DatabaseInstance]:
            # Every span below closes before the yield: the consumer runs
            # while this generator is suspended, outside the proof.
            candidates = list(pool.values())
            with _trace.span("repair.minimality", candidates=len(candidates)):
                context = DeltaMinimality([entry.delta for entry in candidates])
            for index, entry in enumerate(candidates):
                if entry.repair is not None or entry.dominated:
                    continue
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        search.settle(budget, reason, len(open_tasks))
                        return
                with _trace.span("repair.minimality"):
                    if any(
                        frontier_could_dominate(task.delta(), entry.delta)
                        for task in open_tasks
                    ):
                        continue
                    entry.dominated = context.dominated(index)
                if entry.dominated:
                    continue
                with _trace.span("repair.materialise"):
                    entry.repair = base.with_delta(entry.inserted, entry.deleted)
                if self.states_at_first_yield is None:
                    self.states_at_first_yield = search.statistics.states_explored
                yield entry.repair

        batches = search.batches()
        try:
            while True:
                # One span per batch, closed before the proof pass yields:
                # the search's task and the intake of its candidates.
                with _trace.span("repair.search"):
                    batch = next(batches, None)
                    if batch is None:
                        break
                    for path, inserted, deleted in batch.candidates:
                        key = (inserted, deleted)
                        entry = pool.get(key)
                        if entry is None:
                            pool[key] = _StreamCandidate(
                                path, inserted, deleted, inserted | deleted
                            )
                        elif path < entry.path:
                            entry.path = path
                for repair in provable(batch.open_tasks):
                    yielded += 1
                    if batch.open_tasks:
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
            self.degradation = replace(search.degradation, proven=yielded)
            return
        # The last batch had no open frontier, so every candidate is decided.
        self.ordered_repairs = [
            entry.repair
            for entry in sorted(pool.values(), key=lambda entry: entry.path)
            if entry.repair is not None
        ]
