"""The production repair search: a delta-carrying mutate/undo DFS frontier.

The search explores one violation-resolution tree depth-first over a
single working instance whose violations a
:class:`~repro.core.repairs.ViolationTracker` keeps current, and reports
every consistent candidate as its delta ``(path, Δins, Δdel)`` instead of
an instance.  The tree is split into **frontier tasks** — unexplored
subtree roots identified by their branch-index *path* from the root —
executed either inline (``workers <= 1``, warm-started from the caller's
tracker when one is given) or on a
``concurrent.futures.ProcessPoolExecutor``, one tracker and one
copy-on-write instance per worker process.

Three properties make the result exactly the sequential depth-first
search's, which the nested-loop ``"naive"`` reference of
:class:`~repro.core.repairs.RepairEngine` walks:

* **Deterministic decomposition.**  A task explores at most
  ``chunk_states`` states; whatever frontier it could not expand is
  *deferred* back to the scheduler as new tasks.  Which tasks exist and
  what each explores is a pure function of (instance, constraints,
  chunk budget) — worker scheduling only changes *when* a task runs,
  never what it computes.  Oversized tasks split again, so granularity
  adapts to the tree shape the way a work-stealing deque would.
* **Path-ordered merging.**  Every candidate is reported with the
  branch-index path of the state that produced it.  Sorting the merged
  candidates by path and keeping the lexicographically least occurrence
  of each fact set reproduces the *discovery order* of the sequential
  depth-first search (a DFS discovers every state at its
  lexicographically least reachable path), so the repair list is
  bit-identical to the reference's for every chunk size and worker
  count.
* **Sibling-exclusion partitioning** (denial-only constraint sets).
  When no constraint has consequent atoms, every fix is a deletion of
  an original fact, and branch *i* of a violation can soundly exclude
  the fixes of branches ``< i`` from its whole subtree: a candidate
  missing fact ``f`` must delete ``f`` somewhere, so forbidding the
  deletion partitions the candidates of sibling subtrees.  Workers
  then never duplicate each other's states.  With consequent atoms
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
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
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
from repro.resilience import faults as _faults
from repro.resilience.budget import Budget, Degradation
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.core.repairs import (
    DeltaMinimality,
    RepairSearchBudgetExceeded,
    RepairStatistics,
    ViolationIndex,
    ViolationTracker,
    deletion_fixes,
    insertion_fixes,
    minimal_flags_counted,
    minimal_flags_for_deltas,  # importable here: the benchmark's traced mode wraps it
    violation_choice_key,
)
from repro.relational.instance import DatabaseInstance, Fact, Row

#: Branch-index path of a search state, relative to the search root.
Path = Tuple[int, ...]

#: Default number of states one task may explore before it must defer
#: the rest of its subtree back to the scheduler.
DEFAULT_CHUNK_STATES = 1024

#: How long the driver blocks on worker futures between budget checks —
#: bounds how stale a deadline/cancellation verdict can get while every
#: worker is deep inside a long task.
_BUDGET_POLL_SECONDS = 0.05

#: Coarse per-fact cost (bytes) used to charge candidate and frontier
#: deltas against a memory budget.  Deliberately rough: the budget is a
#: tripwire against unbounded accumulation, not an allocator.
_DELTA_COST = 96

_EMPTY_FACTS: FrozenSet[Fact] = frozenset()

#: ``REPRO_SHIP_AUDIT=1`` makes the driver measure the pickled size of
#: every shipped task/result payload — and of the un-encoded objects
#: they replace — into the ship-bytes fields of
#: :class:`~repro.core.repairs.RepairStatistics`.  Off by default: the
#: audit pays one extra pickle per shipment.
_AUDIT_FLAG = "REPRO_SHIP_AUDIT"


def _ship_audit() -> bool:
    return os.environ.get(_AUDIT_FLAG, "") == "1"


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
#: ``inserted ∪ deleted`` — shipping the (usually tiny) delta across the
#: process boundary instead of the whole instance keeps result pickling
#: proportional to the repair distance, not the database size.
Candidate = Tuple[Path, FrozenSet[Fact], FrozenSet[Fact]]


@dataclass
class TaskResult:
    """What one executed task hands back to the scheduler.

    ``spans`` carries the task's trace, captured inside the worker
    process as picklable :class:`repro.obs.trace.SpanRecord` trees and
    shipped home with the candidate deltas; the driver re-parents them
    into its own trace (:func:`repro.obs.trace.attach`).  Empty unless
    tracing is enabled; tasks run inline record straight into the
    driver's tracer and ship nothing.
    """

    task: FrontierTask
    candidates: List[Candidate]
    deferred: List[FrontierTask]
    statistics: RepairStatistics
    spans: Tuple["_trace.SpanRecord", ...] = ()


# ----------------------------------------------------------------- wire format
#: A shipped fact: a small integer for base facts, (predicate, values)
#: for facts outside the base instance (inserted witnesses).
FactToken = Union[int, Tuple[str, Row]]


class FactCodec:
    """Number the base instance's facts so deltas ship as small integers.

    Both pool ends derive the codec independently — the driver from its
    live instance, each worker from the facts it was started with — and
    the numbering is the deterministic sorted ``facts()`` order, so the
    ids agree without ever shipping the mapping itself.
    """

    __slots__ = ("_facts", "_ids")

    def __init__(self, facts: Sequence[Fact]) -> None:
        self._facts: Tuple[Fact, ...] = tuple(facts)
        self._ids: Dict[Fact, int] = {
            fact: fact_id for fact_id, fact in enumerate(self._facts)
        }

    @classmethod
    def from_instance(cls, instance: DatabaseInstance) -> "FactCodec":
        return cls(tuple(instance.facts()))

    def __len__(self) -> int:
        return len(self._facts)

    def encode_fact(self, fact: Fact) -> FactToken:
        fact_id = self._ids.get(fact)
        if fact_id is not None:
            return fact_id
        return (fact.predicate, fact.values)

    def decode_fact(self, token: FactToken) -> Fact:
        if isinstance(token, int):
            return self._facts[token]
        predicate, values = token
        return Fact(predicate, values)

    def encode_facts(self, facts: Iterable[Fact]) -> Tuple[FactToken, ...]:
        """Encode a fact collection (sorted, so equal sets encode equally)."""

        ids: List[int] = []
        extra: List[Fact] = []
        for fact in facts:
            fact_id = self._ids.get(fact)
            if fact_id is not None:
                ids.append(fact_id)
            else:
                extra.append(fact)
        tokens: List[FactToken] = sorted(ids)  # type: ignore[assignment]
        tokens.extend(
            (fact.predicate, fact.values)
            for fact in sorted(extra, key=Fact.sort_key)
        )
        return tuple(tokens)

    def decode_facts(self, tokens: Iterable[FactToken]) -> FrozenSet[Fact]:
        return frozenset(self.decode_fact(token) for token in tokens)


#: A :class:`FrontierTask` on the wire: its path plus the four fact sets
#: encoded through the shared :class:`FactCodec` — base-instance facts
#: ship as small integers, inserted witnesses as ``(predicate, values)``
#: pairs.
_TaskWire = Tuple[
    Path,
    Tuple[FactToken, ...],
    Tuple[FactToken, ...],
    Tuple[FactToken, ...],
    Tuple[FactToken, ...],
]

#: A :class:`TaskResult` on the wire.  The task itself never ships back
#: — the driver kept it (``in_flight``) and passes it to
#: :func:`_decode_result`.  Everything else is shipped relative to it:
#: paths as suffixes of the task's path (every state in a subtree
#: shares the root's prefix) and fact sets as differences against the
#: task's corresponding sets (the search only ever *grows* them down a
#: subtree, so the differences are exactly what the subtree added).
#: Statistics travel as a bare value tuple — a pickled dataclass would
#: repeat the class reference and every field name per result.
_ResultWire = Tuple[
    List[Tuple[Path, Tuple[FactToken, ...], Tuple[FactToken, ...]]],
    List[_TaskWire],
    Tuple[Any, ...],
    Tuple["_trace.SpanRecord", ...],
]


def _encode_statistics(statistics: RepairStatistics) -> Tuple[Any, ...]:
    return tuple(
        getattr(statistics, spec.name) for spec in fields(RepairStatistics)
    )


def _decode_statistics(values: Tuple[Any, ...]) -> RepairStatistics:
    return RepairStatistics(*values)


def _encode_task(codec: FactCodec, task: FrontierTask) -> _TaskWire:
    return (
        task.path,
        codec.encode_facts(task.inserted),
        codec.encode_facts(task.deleted),
        codec.encode_facts(task.excluded_deletions),
        codec.encode_facts(task.excluded_insertions),
    )


def _decode_task(codec: FactCodec, wire: _TaskWire) -> FrontierTask:
    path, inserted, deleted, excluded_deletions, excluded_insertions = wire
    return FrontierTask(
        path,
        codec.decode_facts(inserted),
        codec.decode_facts(deleted),
        codec.decode_facts(excluded_deletions),
        codec.decode_facts(excluded_insertions),
    )


def _encode_result(codec: FactCodec, result: TaskResult) -> _ResultWire:
    task = result.task
    prefix = len(task.path)
    encode = codec.encode_facts
    return (
        [
            (
                path[prefix:],
                encode(inserted - task.inserted),
                encode(deleted - task.deleted),
            )
            for path, inserted, deleted in result.candidates
        ],
        [
            (
                sub.path[prefix:],
                encode(sub.inserted - task.inserted),
                encode(sub.deleted - task.deleted),
                encode(sub.excluded_deletions - task.excluded_deletions),
                encode(sub.excluded_insertions - task.excluded_insertions),
            )
            for sub in result.deferred
        ],
        _encode_statistics(result.statistics),
        result.spans,
    )


def _decode_result(
    codec: FactCodec, wire: _ResultWire, task: FrontierTask
) -> TaskResult:
    candidates, deferred, statistics, spans = wire
    prefix = task.path
    decode = codec.decode_facts
    return TaskResult(
        task,
        [
            (
                prefix + path,
                task.inserted | decode(inserted),
                task.deleted | decode(deleted),
            )
            for path, inserted, deleted in candidates
        ],
        [
            FrontierTask(
                prefix + path,
                task.inserted | decode(inserted),
                task.deleted | decode(deleted),
                task.excluded_deletions | decode(excluded_deletions),
                task.excluded_insertions | decode(excluded_insertions),
            )
            for path, inserted, deleted, excluded_deletions, excluded_insertions in deferred
        ],
        _decode_statistics(statistics),
        spans,
    )


@dataclass
class SearchBatch:
    """One scheduler round: new results plus the still-open frontier."""

    candidates: List[Candidate]
    open_tasks: Tuple[FrontierTask, ...]
    states_explored: int  #: cumulative states across all finished tasks


class SearchContext:
    """A worker's private search state: instance, tracker, exclusion flag.

    One context is built per worker process (and one inline for
    ``workers <= 1``); it pays the full violation sweep once — or copies
    *seed*'s store, a tracker over an instance with the same facts — and
    then runs any number of tasks against the same working instance by
    replaying each task's delta before the bounded DFS and undoing it
    after: mutate/undo, lifted to task granularity.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ViolationIndex, ConstraintSet, Iterable[AnyConstraint]],
        exclusions: Optional[bool] = None,
        seed: Optional[ViolationTracker] = None,
    ):
        self.index = (
            constraints
            if isinstance(constraints, ViolationIndex)
            else ViolationIndex(constraints)
        )
        self.working = instance.copy()
        self.tracker = ViolationTracker(self.working, self.index, seed=seed)
        self.exclusions = (
            exclusion_safe(self.index.constraints) if exclusions is None else exclusions
        )

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

        *request_budget* is the request's resource envelope (a worker
        receives one rebuilt from the deadline seconds remaining at
        submit).  Exhaustion mid-task never raises here: the current
        state is *deferred* instead, exactly like a chunk-budget stop,
        so the open frontier the scheduler sees stays sound — the
        driver decides whether to raise or degrade.
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
                    # Per-state accounting keeps a states/memory budget
                    # precise *within* a chunk (the driver only charges
                    # for results computed on other processes, so this
                    # never double-counts).
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


# --------------------------------------------------------------------------- workers
#: Per-process search context, built once by the pool initializer.
_WORKER_CONTEXT: Optional[SearchContext] = None

#: Per-process fact codec, derived from the rebuilt instance (identical
#: to the driver's: both number the deterministic ``facts()`` order).
_WORKER_CODEC: Optional[FactCodec] = None


def _worker_init(
    facts: Tuple[Fact, ...],
    constraints: Tuple[AnyConstraint, ...],
    exclusions: bool,
    tracing: bool = False,
    fault_spec: Optional["_faults.FaultSpec"] = None,
) -> None:
    """Process-pool initializer: rebuild the instance, sweep violations once."""

    global _WORKER_CONTEXT, _WORKER_CODEC
    if tracing:
        _trace.enable()
    # Fork-started workers inherit the driver's tracer mid-request: its
    # recorded roots (which would ship back as duplicates) and its open
    # span stack (which would swallow this worker's spans as children of
    # a phantom parent).  Start from a clean tracer either way.
    _trace.reset()
    if _faults.armed() is not None:
        # Fork-started workers inherit the driver's delay-only injector;
        # start clean (re-armed below when this pool asked for chaos).
        _faults.disarm()
    instance = DatabaseInstance.from_facts(facts)
    _WORKER_CODEC = FactCodec.from_instance(instance)
    _WORKER_CONTEXT = SearchContext(
        instance, ConstraintSet(list(constraints)), exclusions=exclusions
    )
    if fault_spec is not None:
        # Chaos harness: this worker draws (salted, seeded) faults at its
        # span boundaries — including kills, which it is allowed to serve.
        # Armed *after* the context build so every injected fault lands
        # during task execution (an initializer fault would break the
        # pool before it ever ran a task — real, but a different failure
        # than the scheduler-level tolerance this harness exercises).
        _faults.arm_worker(fault_spec)


def _worker_run(
    task_wire: _TaskWire, budget: int, deadline_remaining: Optional[float] = None
) -> _ResultWire:
    """Execute one (wire-encoded) task against the process-local context.

    *deadline_remaining* is the request deadline's remaining seconds at
    submit time — monotonic clocks share no epoch across processes, so
    the worker rebuilds a fresh :class:`Budget` from the remainder
    rather than comparing against the driver's absolute deadline.
    """

    assert _WORKER_CONTEXT is not None, "worker used before initialization"
    assert _WORKER_CODEC is not None, "worker used before initialization"
    task = _decode_task(_WORKER_CODEC, task_wire)
    request_budget = (
        Budget(deadline=max(deadline_remaining, 1e-6))
        if deadline_remaining is not None
        else None
    )
    result = _WORKER_CONTEXT.run_task(task, budget, request_budget=request_budget)
    if _trace.enabled():
        result.spans = _trace.capture_records()
    return _encode_result(_WORKER_CODEC, result)


# --------------------------------------------------------------------------- driver
class ParallelRepairSearch:
    """Schedule the frontier tasks of one repair search.

    ``workers <= 1`` executes every task inline, in FIFO order — fully
    deterministic, no processes, still anytime (batches surface as each
    task finishes) — over one context warm-started from *seed_tracker*
    when given (a tracker over an instance with the same facts and
    constraints; its store is copied when the search starts).
    ``workers >= 2`` runs the tasks on a process pool with up to
    ``2 × workers`` tasks in flight; which tasks exist and what each
    returns is deterministic either way (only batch arrival order
    varies).

    Aggregate counters accumulate into :attr:`statistics` via
    :meth:`RepairStatistics.merge` as tasks finish; ``states_explored``
    sums the per-task counts, so with overlapping subtrees (non
    denial-only constraints) it may exceed the sequential engines'
    unique-state count — the ``max_states`` budget applies to that sum.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
        *,
        workers: int = 0,
        max_states: Optional[int] = 200_000,
        chunk_states: int = DEFAULT_CHUNK_STATES,
        violation_index: Optional[ViolationIndex] = None,
        budget: Optional[Budget] = None,
        retry_policy: Optional[RetryPolicy] = None,
        seed_tracker: Optional[ViolationTracker] = None,
    ):
        self._instance = instance
        self._constraints = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet(list(constraints))
        )
        self._index = (
            violation_index
            if violation_index is not None
            else ViolationIndex(self._constraints)
        )
        self._workers = max(workers, 0)
        self._max_states = max_states
        self._chunk_states = max(chunk_states, 1)
        self._exclusions = exclusion_safe(self._constraints)
        self._request_budget = budget
        self._seed_tracker = seed_tracker
        self._retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Set when a ``degrade=True`` budget ran out mid-search: the
        #: batches yielded so far cover a sound *prefix* of the frontier
        #: and this record says why the rest was never explored.
        self.degradation: Optional[Degradation] = None
        self.statistics = RepairStatistics()

    @property
    def uses_exclusions(self) -> bool:
        """True when sibling-exclusion partitioning is active (denial-only)."""

        return self._exclusions

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

    def _context(self, seed: Optional[ViolationTracker] = None) -> SearchContext:
        return SearchContext(
            self._instance, self._index, exclusions=self._exclusions, seed=seed
        )

    def batches(self) -> Iterator[SearchBatch]:
        """Run the search, yielding one :class:`SearchBatch` per finished task.

        Closing the generator early (e.g. an anytime consumer that
        short-circuited) shuts the pool down and cancels queued tasks.
        Raises :class:`RepairSearchBudgetExceeded` when the cumulative
        state count crosses ``max_states``.

        A request :class:`Budget` (the constructor's, else the ambient
        one) is checked between tasks: on exhaustion the generator
        either raises the typed error (strict) or — with
        ``degrade=True`` — records :attr:`degradation` and stops
        cleanly, leaving the batches yielded so far as a sound partial
        frontier.  Worker failures never surface to the consumer: a
        crashed pool is respawned with exponential backoff (tasks
        retried), and tasks that keep failing are quarantined and
        re-run inline — task results are pure functions of (task, chunk
        budget), so retries cannot change the answer.
        """

        budget = self.request_budget()
        root = FrontierTask((), _EMPTY_FACTS, _EMPTY_FACTS)
        queue: deque[FrontierTask] = deque([root])
        open_tasks: Dict[Path, FrontierTask] = {root.path: root}
        total_states = 0
        started = _clock.now()

        def absorb(result: TaskResult, remote: bool = False) -> SearchBatch:
            nonlocal total_states
            total_states += result.statistics.states_explored
            self.statistics.merge(result.statistics)
            # Wall clock is the driver's elapsed time, never the sum of the
            # per-task CPU seconds merge() accumulates separately.
            self.statistics.search_seconds = _clock.now() - started
            if result.spans:
                _trace.attach(result.spans)
            del open_tasks[result.task.path]
            for sub_task in result.deferred:
                open_tasks[sub_task.path] = sub_task
                queue.append(sub_task)
            if budget is not None:
                if remote:
                    # Tasks run in this process charged the budget per
                    # state already (run_task holds the same object); a
                    # worker's charges landed on its ephemeral copy and
                    # are folded in here.
                    budget.charge_states(result.statistics.states_explored)
                # A coarse estimate of what this round pinned in driver
                # memory: candidate deltas plus deferred frontier roots.
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
            return SearchBatch(
                result.candidates, tuple(open_tasks.values()), total_states
            )

        if self._workers <= 1:
            context = self._context(self._seed_tracker)
            while queue:
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        self.settle(budget, reason, len(open_tasks))
                        return
                task = queue.popleft()
                yield absorb(
                    context.run_task(task, self._chunk_states, request_budget=budget)
                )
            return

        policy = self._retry_policy
        fault_spec = _faults.worker_spec()
        audit = _ship_audit()
        facts = tuple(self._instance.facts())
        codec = FactCodec(facts)
        # Every pool start ships the base instance as its sorted facts;
        # each worker rebuilds it and derives the same codec from them.
        payload_bytes = len(pickle.dumps(facts, pickle.HIGHEST_PROTOCOL))
        payload = (
            facts,
            tuple(self._constraints),
            self._exclusions,
            _trace.enabled(),
            fault_spec,
        )
        inline_context: Optional[SearchContext] = None

        def charge_shipment(wire: Any, raw: Any) -> None:
            """Ship-bytes audit: what crossed the pool boundary vs. what
            the un-encoded object would have cost (``REPRO_SHIP_AUDIT=1``
            only — each measure is one extra pickle).

            Captured trace spans (shipped verbatim when tracing is on)
            are excluded from both sides: they are opt-in diagnostics
            with no encoded form on either side, and their wall-clock
            payload would make the byte counts non-deterministic — the
            audit measures the *search* wire format.
            """

            if not audit:
                return
            if isinstance(wire, tuple) and len(wire) == 4:  # a result wire
                wire = wire[:3] + ((),)
            if isinstance(raw, TaskResult) and raw.spans:
                raw = replace(raw, spans=())
            self.statistics.task_ship_bytes += len(
                pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)
            )
            self.statistics.task_ship_bytes_raw += len(
                pickle.dumps(raw, pickle.HIGHEST_PROTOCOL)
            )

        def run_inline(task: FrontierTask) -> TaskResult:
            """Quarantine lane: execute a repeat-offender task in-process.

            The result is bit-identical to a worker's — run_task is a
            pure function of (task, chunk budget) — so falling back
            never changes the answer, only where it was computed.
            """

            nonlocal inline_context
            if inline_context is None:
                # Built lazily, when the seed may have moved on: sweep.
                inline_context = self._context()
            return inline_context.run_task(
                task, self._chunk_states, request_budget=budget
            )

        def spawn() -> ProcessPoolExecutor:
            self.statistics.instance_ship_bytes += payload_bytes
            executor = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_worker_init,
                initargs=payload,
            )
            self._executor = executor
            return executor

        executor: Optional[ProcessPoolExecutor] = spawn()
        respawns = 0
        attempts: Dict[Path, int] = {}
        in_flight: Dict[Future, FrontierTask] = {}

        def pool_broke(lost_tasks: List[FrontierTask]) -> None:
            """A worker died: requeue everything, reap, respawn with backoff.

            Past the respawn allowance the executor stays ``None`` and
            the remaining frontier finishes inline.  Every requeued task
            gains an attempt so a task that keeps breaking pools is
            eventually quarantined even while respawns last.
            """

            nonlocal executor, respawns
            for lost in [*lost_tasks, *in_flight.values()]:
                attempts[lost.path] = attempts.get(lost.path, 0) + 1
                queue.appendleft(lost)
            in_flight.clear()
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if respawns >= policy.max_pool_respawns:
                executor = None
            else:
                respawns += 1
                time.sleep(policy.backoff(respawns))
                executor = spawn()

        try:
            while queue or in_flight:
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        self.settle(budget, reason, len(open_tasks))
                        return
                while (
                    queue
                    and executor is not None
                    and len(in_flight) < self._workers * 2
                ):
                    task = queue.popleft()
                    if attempts.get(task.path, 0) >= policy.max_attempts:
                        # Quarantined: this task (or its pool cohort) has
                        # failed max_attempts times — stop betting on the
                        # pool for it and settle it inline.
                        yield absorb(run_inline(task))
                        continue
                    # Workers never see the request budget (their state
                    # charges would land on a separate object), so clamp
                    # the chunk to the remaining state allowance: a cap
                    # smaller than a chunk truncates the task itself
                    # rather than being noticed only after it returns.
                    chunk = self._chunk_states
                    if budget is not None:
                        allowance = budget.remaining_states()
                        if allowance is not None:
                            chunk = max(1, min(chunk, allowance))
                    task_wire = _encode_task(codec, task)
                    self.statistics.tasks_shipped += 1
                    charge_shipment(task_wire, task)
                    try:
                        future = executor.submit(
                            _worker_run,
                            task_wire,
                            chunk,
                            budget.task_deadline() if budget is not None else None,
                        )
                    except BrokenProcessPool:
                        # The pool died between completions (e.g. a worker
                        # killed mid-initialization) and submit noticed
                        # first.
                        pool_broke([task])
                        break
                    in_flight[future] = task
                if executor is None and queue:
                    # The pool broke past its respawn allowance: finish the
                    # remaining frontier inline (budget checks continue at
                    # the loop top).
                    task = queue.popleft()
                    yield absorb(run_inline(task))
                    continue
                if not in_flight:
                    continue
                # A finite wait (when a budget is active) keeps deadline and
                # cancellation checks live even while every worker is deep
                # in a long task.
                done, _ = wait(
                    set(in_flight),
                    timeout=_BUDGET_POLL_SECONDS if budget is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = in_flight.pop(future)
                    try:
                        result_wire = future.result()
                    except BrokenProcessPool:
                        # A worker died (crash, kill, OOM): every future on
                        # this pool is lost.  Requeue them all, reap the
                        # wreck, and respawn with backoff — up to the
                        # policy's allowance, then fall back inline.
                        pool_broke([task])
                        break
                    except Exception:
                        # A task-level failure (an injected exception, a
                        # pickling surprise): the pool is still healthy, so
                        # retry just this task with backoff, or quarantine
                        # it inline once it exhausts its attempts.
                        count = attempts.get(task.path, 0) + 1
                        attempts[task.path] = count
                        if count < policy.max_attempts:
                            time.sleep(policy.backoff(count))
                        queue.appendleft(task)
                    else:
                        attempts.pop(task.path, None)
                        result = _decode_result(codec, result_wire, task)
                        charge_shipment(result_wire, result)
                        yield absorb(result, remote=True)
        finally:
            self.close()

    def close(self) -> None:
        """Reap the process pool (idempotent; safe mid-search).

        ``batches()`` calls this on every exit path — exhaustion, budget
        raise, degradation, generator close — and abandonment-prone
        consumers (the anytime stream's session wrapper) call it again
        defensively: a merge error or an abandoned generator must never
        leak worker processes.
        """

        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

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


# --------------------------------------------------------------------------- minimality
#: Per-process minimality context (all deltas), built by the initializer.
_MINIMALITY_CONTEXT: Optional[DeltaMinimality] = None


def _minimality_init(deltas: Tuple[FrozenSet[Fact], ...]) -> None:
    global _MINIMALITY_CONTEXT
    _MINIMALITY_CONTEXT = DeltaMinimality(list(deltas))


def _minimality_run(start: int, stop: int) -> Tuple[List[bool], int]:
    assert _MINIMALITY_CONTEXT is not None, "worker used before initialization"
    before = _MINIMALITY_CONTEXT.comparisons
    flags = [
        not _MINIMALITY_CONTEXT.dominated(index) for index in range(start, stop)
    ]
    return flags, _MINIMALITY_CONTEXT.comparisons - before


def parallel_minimal_flags(
    deltas: Sequence[FrozenSet[Fact]], workers: int
) -> Tuple[List[bool], int]:
    """``≤_D``-minimality flags with the pairwise checks sliced across processes.

    Each worker receives every candidate's delta once (via the pool
    initializer) and decides domination for contiguous index slices,
    reusing its process-local :class:`DeltaMinimality` context across
    them; the flags concatenate in index order, so the verdicts are
    identical to the sequential filter's.  Returns the per-candidate
    flags plus the total number of pairwise checks.
    """

    count = len(deltas)
    if count <= 1 or workers < 2:
        return minimal_flags_counted(deltas)
    slice_size = max(1, -(-count // (workers * 4)))  # ceil; ~4 slices per worker
    ranges = [
        (start, min(start + slice_size, count))
        for start in range(0, count, slice_size)
    ]
    flags: List[bool] = []
    comparisons = 0
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_minimality_init, initargs=(tuple(deltas),)
    ) as executor:
        for sliced, counted in executor.map(_minimality_run, *zip(*ranges)):
            flags.extend(sliced)
            comparisons += counted
    return flags, comparisons


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

    def close(self) -> None:
        """Release the underlying search's process pool (idempotent)."""

        self._search.close()

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
            candidates = list(pool.values())
            context = DeltaMinimality([entry.delta for entry in candidates])
            for index, entry in enumerate(candidates):
                if entry.repair is not None or entry.dominated:
                    continue
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        search.settle(budget, reason, len(open_tasks))
                        return
                if any(
                    frontier_could_dominate(task.delta(), entry.delta)
                    for task in open_tasks
                ):
                    continue
                if context.dominated(index):
                    entry.dominated = True
                    continue
                entry.repair = base.with_delta(entry.inserted, entry.deleted)
                if self.states_at_first_yield is None:
                    self.states_at_first_yield = search.statistics.states_explored
                yield entry.repair

        batches = search.batches()
        try:
            for batch in batches:
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
