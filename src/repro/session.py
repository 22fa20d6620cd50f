"""The ``ConsistentDatabase`` session façade — the library's front door.

The paper's pipeline (null-aware satisfaction → repairs → consistent
query answering → repair programs → first-order rewriting) is exposed
functionally by :mod:`repro.core.cqa` and friends, but every functional
call rebuilds its expensive state from scratch: violations are
re-enumerated, queries re-planned and re-rewritten, repairs re-searched,
conflict graphs re-materialised.  A :class:`ConsistentDatabase` owns all
of that state across calls:

* a **mutation surface** — :meth:`insert`, :meth:`delete`,
  :meth:`bulk_load` and transactional :meth:`batch` blocks — that keeps
  a live :class:`repro.core.repairs.ViolationTracker` warm (one seeded
  per-constraint update per fact change instead of a full sweep per
  query) and advances the instance's *generation counter*, which is what
  invalidates exactly the caches a mutation staled;
* a **query surface** — :meth:`consistent_answers`, :meth:`certain`,
  :meth:`iter_repairs`, :meth:`explain`, :meth:`report` — backed by a
  per-session LRU cache of repair lists, conflict graphs and answer
  sets keyed by ``(query, generation)``, and of query plans (with their
  rewritings) keyed by the query alone — the cache belongs to one
  session, whose constraint set never changes: repeating a query on an
  unchanged database costs one dictionary probe, and a write re-plans
  nothing;
* an **engine registry** (:mod:`repro.engines`) — every query routes
  through a pluggable strategy object (``"direct"``, ``"program"``,
  ``"rewriting"``, ``"independent"``, ``"sqlite"``; ``"auto"`` is the
  engine the query's cached :meth:`~ConsistentDatabase.plan` names),
  so the SQLite push-down sits behind the same front door as the
  in-memory engines and new strategies plug in without touching
  dispatch code.

The functional API remains as thin wrappers over a throwaway session
(same answers, same costs on a cold call), so existing code keeps
working unchanged.

>>> from repro import ConsistentDatabase, parse_constraint, parse_query
>>> db = ConsistentDatabase(
...     {"Course": [(21, "C15"), (34, "C18")],
...      "Student": [(21, "Ann"), (45, "Paul")]},
...     [parse_constraint("Course(i, c) -> Student(i, n)")],
... )
>>> db.is_consistent()
False
>>> query = parse_query("ans(c) <- Course(i, c)")
>>> sorted(db.consistent_answers(query))
[('C15',)]
>>> db.insert("Student", (34, "Zoe"))
True
>>> db.is_consistent()
True
>>> sorted(db.consistent_answers(query))
[('C15',), ('C18',)]
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.core.cqa import AnswerTuple, CQAResult, result_from_repairs
from repro.core.repairs import (
    PARALLEL_METHOD,
    RepairEngine,
    RepairSequence,
    RepairStatistics,
    ViolationDelta,
    ViolationIndex,
    ViolationTracker,
    carry_repairs,
)
from repro.core.satisfaction import Violation
from repro.engines import CQAConfig, get_engine
from repro.logic.queries import Query
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience import Budget, Degradation, using_budget
from repro.relational.domain import Constant
from repro.relational.instance import DatabaseInstance, Fact
from repro.relational.schema import DatabaseSchema

if TYPE_CHECKING:
    from repro.analysis.diagnostics import AnalysisReport
    from repro.compile.kernel import CompiledProgram
    from repro.obs.analyze import ExplainReport
    from repro.rewriting.conflicts import ConflictGraph
    from repro.rewriting.planner import CQAPlan
    from repro.rewriting.rewriter import RewrittenQuery
    from repro.sqlbackend.backend import SQLiteBackend


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of the session cache's effectiveness counters."""

    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int
    #: Specialized plan executors (:mod:`repro.compile.codegen`) built
    #: since this session started — the generated closures live in the
    #: process-wide memo next to the compiled constraints, so a warm
    #: process reports 0.
    codegen_builds: int = 0


#: Process-wide mirrors of the per-session cache counters.  Created once
#: at import; ``MetricsRegistry.reset()`` zeroes them in place, so the
#: cached objects never go stale.
_CACHE_HITS = _metrics.counter(
    "repro_session_cache_hits_total", "session LRU cache hits"
)
_CACHE_MISSES = _metrics.counter(
    "repro_session_cache_misses_total", "session LRU cache misses"
)
_CACHE_EVICTIONS = _metrics.counter(
    "repro_session_cache_evictions_total", "session LRU cache evictions"
)
_SESSION_QUERIES = _metrics.counter(
    "repro_session_queries_total", "reports served (cached or computed)"
)
_SESSION_MUTATIONS = _metrics.counter(
    "repro_session_mutations_total", "fact insertions/deletions applied"
)
_SESSION_ROLLED_BACK = _metrics.counter(
    "repro_session_batches_rolled_back_total", "batch blocks rolled back"
)
_SESSION_TRACKER_REBUILDS = _metrics.counter(
    "repro_session_tracker_rebuilds_total", "full violation-tracker rebuilds"
)
_REPAIRS_CARRIED = _metrics.counter(
    "repro_repairs_carried_total",
    "direct repair reads served by repairs carried across writes, each a search not run",
)


class _LRUCache:
    """A small LRU keyed on hashable tuples, with hit/miss counters.

    An entry stored with a *generation* of *instance* can only ever hit
    at that generation, and the counter never goes back, so the first
    ``get``/``put`` after the instance moved on drops every such entry —
    each entry once, O(1) per request — instead of leaving it to age out
    of the LRU with its repair lists and indexes.  Entries stored without
    one (plans and analyses, which read no data) stay until the LRU
    pushes them out.
    """

    __slots__ = (
        "maxsize", "_data", "hits", "misses", "evictions",
        "_instance", "_generation", "_generation_keys",
    )

    def __init__(self, maxsize: int, instance: DatabaseInstance):
        self.maxsize = max(maxsize, 1)
        self._data: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._instance = instance
        self._generation = instance.generation
        self._generation_keys: List[Tuple] = []

    def _sync(self) -> int:
        """The instance's generation, after dropping the entries of older ones."""

        generation = self._instance.generation
        if generation != self._generation:
            for key in self._generation_keys:
                self._data.pop(key, None)
            self._generation_keys = []
            self._generation = generation
        return generation

    def get(self, key: Tuple) -> Optional[Any]:
        self._sync()
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self._data.move_to_end(key)
        self.hits += 1
        _CACHE_HITS.inc()
        return value

    def put(self, key: Tuple, value: Any, generation: Optional[int] = None) -> None:
        current = self._sync()
        if generation is not None and generation != current:
            return  # computed for a generation the instance has already left
        if key in self._data:
            self._data.move_to_end(key)
        elif generation is not None:
            self._generation_keys.append(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            _CACHE_EVICTIONS.inc()

    def clear(self) -> None:
        self._data.clear()
        self._generation_keys = []

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            size=len(self._data),
            maxsize=self.maxsize,
            evictions=self.evictions,
        )


@dataclass
class SessionStatistics:
    """Cross-call counters of one :class:`ConsistentDatabase` session."""

    queries: int = 0  #: reports served (cached or computed)
    mutations: int = 0  #: effective fact insertions/deletions
    tracker_rebuilds: int = 0  #: full violation sweeps (1 on first use; more only after out-of-band instance mutations)
    batches_rolled_back: int = 0


#: One journal entry of an open batch: ("insert"/"delete", fact, tracker delta).
_JournalEntry = Tuple[str, Fact, Optional[object]]


@dataclass
class _HeldRepairs:
    """The last direct search's repairs and the net change since their base.

    ``inserted`` and ``deleted`` are the facts written into and out of
    the base since it was taken (an insert and a delete of one fact
    cancel), ``generation`` the instance generation they reach, and
    ``max_states`` the state cap the search ran under.
    """

    repairs: RepairSequence
    max_states: Optional[int]
    generation: int
    inserted: Set[Fact] = field(default_factory=set)
    deleted: Set[Fact] = field(default_factory=set)

    def note(self, kind: str, fact: Fact) -> None:
        """Fold one session write into the net change."""

        added, removed = (
            (self.inserted, self.deleted) if kind == "insert" else (self.deleted, self.inserted)
        )
        if fact in removed:
            removed.discard(fact)
        else:
            added.add(fact)


class ConsistentDatabase:
    """A stateful database session answering queries consistently.

    Constructed from an instance (or a schema, or a plain
    ``{"P": [rows]}`` mapping) plus a constraint set, with session-wide
    defaults for every CQA knob collected in a single
    :class:`repro.engines.CQAConfig`; each query call may override them
    by keyword.

    The session owns its instance: by default the constructor takes a
    copy-on-write copy, so later mutations never touch the caller's
    object (``copy=False`` opts out — the functional wrappers use it —
    in which case out-of-band mutations of the shared instance are
    detected through the generation counter and invalidate the caches,
    at the cost of a full tracker rebuild).

    ``workers`` is accepted and ignored: nothing reads it, because the
    library runs every request in the calling process.  It stays only
    because the end-to-end benchmark's ``pool_enum`` sessions pass it.
    """

    def __init__(
        self,
        source: Union[DatabaseInstance, DatabaseSchema, Mapping, None] = None,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]] = (),
        *,
        copy: bool = True,
        cache_size: int = 256,
        method: str = "auto",
        null_is_unknown: bool = False,
        max_states: Optional[int] = 200_000,
        repair_mode: str = "parallel",
        workers: int = 0,
        anytime: bool = False,
        deadline: Optional[float] = None,
        max_memory: Optional[int] = None,
        degrade: bool = False,
    ):
        if source is None:
            self._instance = DatabaseInstance()
        elif isinstance(source, DatabaseInstance):
            self._instance = source.copy() if copy else source
        elif isinstance(source, DatabaseSchema):
            self._instance = DatabaseInstance(schema=source.copy())
        elif isinstance(source, Mapping):
            self._instance = DatabaseInstance.from_dict(source)
        else:
            raise TypeError(
                "ConsistentDatabase expects a DatabaseInstance, DatabaseSchema "
                f"or mapping, not {type(source).__name__}"
            )
        self._constraints = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet(list(constraints))
        )
        self._config = CQAConfig(
            method=method,
            null_is_unknown=null_is_unknown,
            max_states=max_states,
            repair_mode=repair_mode,
            anytime=anytime,
            deadline=deadline,
            max_memory=max_memory,
            degrade=degrade,
        )
        if method != "auto":
            get_engine(method)  # fail fast on an unknown default
        self._violation_index = ViolationIndex(self._constraints)
        self._tracker: Optional[ViolationTracker] = None
        self._tracker_generation = -1
        self._cache = _LRUCache(cache_size, self._instance)
        self._journal: Optional[List[_JournalEntry]] = None
        self._sql_backend: Optional["SQLiteBackend"] = None
        self._sql_backend_schema: Optional[DatabaseSchema] = None
        self._sql_backend_generation = -1
        self._constraint_relations: Optional[List[Tuple[str, int]]] = None
        #: Baseline of the process-wide code-generator counter, so
        #: ``cache_info().codegen_builds`` reports the specialized-plan
        #: builds *this session's* requests triggered (a warm process
        #: that already generated the plans reports 0 — the memo next to
        #: the compiled constraints is shared).
        from repro.compile.codegen import codegen_statistics

        self._codegen_baseline = codegen_statistics().plans_generated
        #: The last direct search's repairs while writes may still carry
        #: them (see :meth:`held_repairs`); ``None`` otherwise.
        self._held: Optional[_HeldRepairs] = None
        self.statistics = SessionStatistics()
        #: Counters of the most recent repair search run by this session
        #: (``None`` until a repair-enumerating query executes uncached).
        #: A read served by repairs carried across writes runs no search
        #: and leaves them as they were: they stay the last search's.
        self.last_repair_statistics: Optional[RepairStatistics] = None
        #: The :class:`repro.resilience.Degradation` record of the most
        #: recent degraded request, or ``None`` when the last budgeted
        #: request (or any unbudgeted one) ran to completion.
        self.last_degradation: Optional["Degradation"] = None

    # ------------------------------------------------------------------ state
    @property
    def instance(self) -> DatabaseInstance:
        """The live instance — read-only; mutate through the session API."""

        return self._instance

    @property
    def constraints(self) -> ConstraintSet:
        """The integrity constraints the session enforces and repairs against."""

        return self._constraints

    @property
    def config(self) -> CQAConfig:
        """The session-wide CQA defaults (overridable per call)."""

        return self._config

    @property
    def generation(self) -> int:
        """The instance's mutation counter (the cache-invalidation key)."""

        return self._instance.generation

    def __len__(self) -> int:
        return len(self._instance)

    def __contains__(self, fact: object) -> bool:
        return fact in self._instance

    def facts(self, predicate: Optional[str] = None) -> Iterator[Fact]:
        """Iterate the instance's facts (optionally one predicate)."""

        return self._instance.facts(predicate)

    def snapshot(self) -> DatabaseInstance:
        """An independent copy-on-write copy of the current instance."""

        return self._instance.copy()

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size counters of the session's LRU cache."""

        from repro.compile.codegen import codegen_statistics

        info = self._cache.info()
        return replace(
            info,
            codegen_builds=(
                codegen_statistics().plans_generated - self._codegen_baseline
            ),
        )

    def close(self) -> None:
        """Release held resources (the cached SQLite mirror) and the caches.

        The held repairs go too, so the next read searches again.
        """

        if self._sql_backend is not None:
            self._sql_backend.close()
            self._sql_backend = None
            self._sql_backend_schema = None
            self._sql_backend_generation = -1
        self._cache.clear()
        self._held = None

    def __enter__(self) -> "ConsistentDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ConsistentDatabase({len(self._instance)} facts, "
            f"{len(self._constraints)} constraints, method={self._config.method!r}, "
            f"generation={self.generation})"
        )

    # ------------------------------------------------------------------ compiled plans
    def compiled_program(self) -> "CompiledProgram":
        """The constraint set's compiled plans.

        The :class:`~repro.compile.kernel.CompiledProgram` depends only
        on the constraints, never on the data: the session's
        :class:`~repro.core.repairs.ViolationIndex` carries it from
        construction on, and the process-wide memo of
        :mod:`repro.compile.kernel` compiles each constraint set at most
        once, ever.  Every violation-path consumer (the warm tracker,
        the repair engines, the depth-first search) executes these
        plans.

        >>> from repro import ConsistentDatabase, parse_constraint
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> db.compiled_program() is db.compiled_program()
        True
        """

        return self._violation_index.program

    # ------------------------------------------------------------------ violations
    def _ensure_tracker(self) -> ViolationTracker:
        """The warm violation tracker, (re)built only when missing or stale.

        Stale means the instance's generation moved without the session
        seeing the mutation — possible only with ``copy=False`` sharing.
        Every session-API mutation keeps the tracker exactly in sync, so
        steady-state sessions pay the full sweep once, ever.
        """

        if (
            self._tracker is None
            or self._tracker_generation != self._instance.generation
        ):
            self._tracker = ViolationTracker(self._instance, self._violation_index)
            self._tracker_generation = self._instance.generation
            self.statistics.tracker_rebuilds += 1
            _SESSION_TRACKER_REBUILDS.inc()
        return self._tracker

    def is_consistent(self) -> bool:
        """Does the current instance satisfy every constraint under ``|=_N``?

        >>> from repro import ConsistentDatabase, parse_constraint
        >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
        >>> ConsistentDatabase({"Emp": [("e1", "sales")]}, [key]).is_consistent()
        True
        >>> ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr")]}, [key]).is_consistent()
        False
        """

        return not self._ensure_tracker().has_violations()

    def violations(self) -> List[Violation]:
        """The current ground violations, maintained incrementally."""

        return self._ensure_tracker().violations()

    def violation_count(self) -> int:
        """Number of current ground violations."""

        return self._ensure_tracker().violation_count()

    # ------------------------------------------------------------------ mutation
    def _as_fact(
        self, fact_or_predicate: Union[Fact, str], values: Optional[Sequence[Constant]]
    ) -> Fact:
        if isinstance(fact_or_predicate, Fact):
            if values is not None:
                raise TypeError("pass either a Fact or (predicate, values), not both")
            return fact_or_predicate
        if values is None:
            raise TypeError("insert/delete with a predicate name needs values")
        return Fact(fact_or_predicate, values)

    def insert(
        self,
        fact_or_predicate: Union[Fact, str],
        values: Optional[Sequence[Constant]] = None,
    ) -> bool:
        """Insert one fact.

        Args:
            fact_or_predicate: a :class:`Fact`, or a predicate name
                combined with *values*.
            values: the tuple to insert when a predicate name is given.

        Returns:
            True iff the fact was not already present.

        Raises:
            TypeError: when a :class:`Fact` is combined with *values*,
                or a predicate name comes without them.

        The warm tracker absorbs the change through one seeded
        per-constraint update; every generation-keyed cache entry is
        implicitly invalidated by the bumped counter.

        >>> from repro import ConsistentDatabase, parse_constraint
        >>> db = ConsistentDatabase(
        ...     {"Course": [(21, "C15")]},
        ...     [parse_constraint("Course(i, c) -> Student(i, n)")],
        ... )
        >>> db.is_consistent()
        False
        >>> db.insert("Student", (21, "Ann"))
        True
        >>> db.insert("Student", (21, "Ann"))  # already present
        False
        >>> db.is_consistent()
        True
        """

        fact = self._as_fact(fact_or_predicate, values)
        if fact in self._instance:
            return False
        tracker = self._live_tracker()
        self._instance.add(fact)
        delta = tracker.notify_added(fact) if tracker is not None else None
        self._record_mutation("insert", fact, delta)
        return True

    def delete(
        self,
        fact_or_predicate: Union[Fact, str],
        values: Optional[Sequence[Constant]] = None,
    ) -> bool:
        """Delete one fact.

        Args:
            fact_or_predicate: a :class:`Fact`, or a predicate name
                combined with *values*.
            values: the tuple to delete when a predicate name is given.

        Returns:
            True iff the fact was present (and is now gone).

        >>> from repro import ConsistentDatabase
        >>> db = ConsistentDatabase({"Emp": [("e1", "sales")]})
        >>> db.delete("Emp", ("e1", "sales"))
        True
        >>> db.delete("Emp", ("e1", "sales"))
        False
        """

        fact = self._as_fact(fact_or_predicate, values)
        if fact not in self._instance:
            return False
        tracker = self._live_tracker()
        self._instance.discard(fact)
        delta = tracker.notify_removed(fact) if tracker is not None else None
        self._record_mutation("delete", fact, delta)
        return True

    def bulk_load(
        self,
        data: Union[Mapping[str, Iterable[Sequence[Constant]]], Iterable[Fact]],
    ) -> int:
        """Insert many facts.

        Args:
            data: the ``{"P": [rows]}`` mapping shape of
                :meth:`DatabaseInstance.from_dict`, or any iterable of
                :class:`Fact`.

        Returns:
            How many of the facts were new.

        Before the tracker's first build this is pure insertion (the
        sweep happens lazily, once, when a consumer first needs
        violations).

        >>> from repro import ConsistentDatabase
        >>> db = ConsistentDatabase()
        >>> db.bulk_load({"Emp": [("e1", "sales"), ("e2", "hr")]})
        2
        >>> len(db)
        2
        """

        inserted = 0
        if isinstance(data, Mapping):
            for predicate, rows in data.items():
                for row in rows:
                    inserted += self.insert(Fact(predicate, row))
        else:
            for fact in data:
                inserted += self.insert(fact)
        return inserted

    def _live_tracker(self) -> Optional[ViolationTracker]:
        """The tracker if it exists and is in sync; drops it if stale."""

        if self._tracker is None:
            return None
        if self._tracker_generation != self._instance.generation:
            # The shared instance was mutated out-of-band: the store is
            # unusable, rebuild lazily on next demand.
            self._tracker = None
            self._tracker_generation = -1
            return None
        return self._tracker

    def _record_mutation(
        self, kind: str, fact: Fact, delta: Optional[ViolationDelta]
    ) -> None:
        generation = self._instance.generation
        self._tracker_generation = generation
        self.statistics.mutations += 1
        _SESSION_MUTATIONS.inc()  # gross count: rollbacks are tallied separately
        if self._journal is not None:
            self._journal.append((kind, fact, delta))
        held = self._held
        if held is not None:
            # Rule 1 of the carry: the write changed no violation, and the
            # held net change saw every write since its base.
            if (
                delta is None
                or delta.added
                or delta.removed
                or held.generation + 1 != generation
            ):
                self._held = None
            else:
                held.note(kind, fact)
                held.generation = generation

    @contextmanager
    def batch(self) -> Iterator["ConsistentDatabase"]:
        """Transactional mutation block: roll everything back on error.

        ::

            with db.batch():
                db.insert("Student", (34, "Zoe"))
                db.delete("Course", (21, "C15"))

        On an exception every mutation of the block is undone — instance
        and violation tracker both — and the exception propagates.  The
        generation counter still advances (it is monotone by contract),
        so caches are simply re-filled on the next query.  Batches do not
        nest.
        """

        if self._journal is not None:
            raise RuntimeError("ConsistentDatabase.batch() blocks cannot nest")
        journal: List[_JournalEntry] = []
        self._journal = journal
        try:
            yield self
        except BaseException:
            self._journal = None
            self._rollback(journal)
            raise
        else:
            self._journal = None

    def _rollback(self, journal: List[_JournalEntry]) -> None:
        # A journal entry without a tracker delta means the mutation
        # happened before the tracker existed.  If the tracker was then
        # built *mid-batch* (a query inside the block), its store already
        # includes those pre-tracker mutations and no delta can undo
        # them — the store is unrevertable, so discard it and let the
        # next consumer rebuild from the restored instance.
        revertable = self._tracker is not None and all(
            delta is not None for _, _, delta in journal
        )
        for kind, fact, delta in reversed(journal):
            if kind == "insert":
                self._instance.discard(fact)
            else:
                self._instance.add(fact)
            if revertable and delta is not None:
                self._tracker.revert(delta)
        if revertable:
            self._tracker_generation = self._instance.generation
        else:
            self._tracker = None
            self._tracker_generation = -1
        self._held = None
        self.statistics.mutations -= len(journal)
        self.statistics.batches_rolled_back += 1
        _SESSION_ROLLED_BACK.inc()

    # ------------------------------------------------------------------ budgets
    def _budget_scope(self, config: CQAConfig):
        """The ambient-budget context for one exact (non-streaming) request.

        Builds a strict :class:`repro.resilience.Budget` from the
        config's ``deadline``/``max_memory`` and installs it for the
        call — every layer underneath (repair search, compiled kernel,
        SQL backend) then checks it cooperatively and raises the typed
        :class:`repro.errors.BudgetExceededError` on exhaustion.  Exact
        surfaces never degrade: a partial answer set would be silently
        wrong, so ``degrade=True`` only changes behaviour on the
        streaming surfaces.  No-op when no knob is set, or when an
        outer scope already installed a budget (a nested scope would
        restart the deadline clock).
        """

        from repro.resilience import budget as _budget_module

        if (
            (config.deadline is None and config.max_memory is None)
            or _budget_module.active()
        ):
            return using_budget(None)
        return using_budget(
            Budget(deadline=config.deadline, max_memory=config.max_memory)
        )

    def cancel_budget(self) -> bool:
        """Cooperatively cancel the currently running budgeted request.

        Intended to be called from another thread (or a signal
        handler): the active request observes the flag at its next
        checkpoint and raises
        :class:`repro.errors.QueryCancelledError` (or degrades, on a
        degrade-mode stream).  Returns False when no budget is active.
        """

        from repro.resilience import budget as _budget_module

        active = _budget_module.active()
        if not active:
            return False
        active.cancel()
        return True

    # ------------------------------------------------------------------ queries
    def report(self, query: Query, **overrides: Any) -> CQAResult:
        """Consistent answers plus repair statistics (the full CQAResult).

        Args:
            query: the conjunctive or first-order query.
            **overrides: any :class:`repro.engines.CQAConfig` field,
                e.g. ``db.report(q, method="direct",
                repair_mode="naive")``.

        Returns:
            A fully populated :class:`repro.core.cqa.CQAResult`
            (defensively copied — mutating it cannot corrupt the cache).
            An engine that materialises no repairs marks
            ``repair_count_estimated`` and leaves ``repair_count`` at
            ``-1``; this fills in the estimate of the instance's
            conflict graph (:meth:`conflict_graph`, built once per
            generation and only here: no other surface returns a repair
            count).

        Raises:
            TypeError: on an override that is not a config field.
            ValueError: on an unregistered ``method``.

        Results are cached per (query, generation, config), the same
        entry :meth:`consistent_answers` and :meth:`certain` read, so an
        identical repeat is one dictionary probe.  ``method="auto"`` shares the entry of the
        route its :meth:`plan` names, and its result carries that plan.

        >>> from repro import ConsistentDatabase, parse_constraint, parse_query
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> result = db.report(parse_query("ans(e) <- Emp(e, d)"))
        >>> (sorted(result.answers), result.repair_count)
        ([('e1',)], 2)
        """

        config = self._config.merged(overrides)
        self._count_query()
        with self._budget_scope(config):  # one budget for answers and estimate
            result = self.report_with(query, config)
            if result.repair_count_estimated and result.repair_count < 0:
                # Filled in on the cached report, so once per generation.
                with _trace.span("conflicts.estimate"):
                    result.repair_count = self.conflict_graph().estimated_repair_count()
        return replace(
            result, plan=self.plan(query) if config.method == "auto" else result.plan
        )

    def report_with(self, query: Query, config: CQAConfig) -> CQAResult:
        """The engine-facing :meth:`report`: one merged *config*, no copy.

        Serves the answer cache or computes and caches the report; the
        result is the cached object itself, so treat it as read-only.
        """

        method = self._route(query, config)
        engine = get_engine(method)
        generation = self._instance.generation
        key = self._answers_key(query, method, config, generation)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with _trace.span("session.report") as sp:
            if sp:
                sp.add(query=str(query), method=method)
            with self._budget_scope(config):
                result = engine.answers_report(self, query, config)
        self._cache.put(key, result, generation)
        return result

    def _route(self, query: Query, config: CQAConfig) -> str:
        """The engine *config* runs: under ``auto``, the one :meth:`plan` names."""

        return self.plan(query).method if config.method == "auto" else config.method

    def _answers_key(
        self, query: Query, method: str, config: CQAConfig, generation: int
    ) -> Tuple:
        return ("answers", query, generation, method, config.cache_key())

    def _count_query(self) -> None:
        self.statistics.queries += 1
        _SESSION_QUERIES.inc()

    def consistent_answers(
        self, query: Query, **overrides: Any
    ) -> FrozenSet[AnswerTuple]:
        """The consistent answers to *query* (Definition 8).

        Args:
            query: the conjunctive or first-order query.
            **overrides: any :class:`repro.engines.CQAConfig` field.

        Returns:
            The tuples that are answers in **every** repair, as a
            frozenset: the answers of the report :meth:`report` would
            return, served from or filling the same cache entry.

        >>> from repro import ConsistentDatabase, parse_constraint, parse_query
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> sorted(db.consistent_answers(parse_query("ans(e) <- Emp(e, d)")))
        [('e1',), ('e2',)]
        >>> sorted(db.consistent_answers(parse_query("ans(d) <- Emp(e, d)")))
        [('hr',)]
        """

        config = self._config.merged(overrides)
        self._count_query()
        return self.report_with(query, config).answers

    def certain(
        self,
        query: Query,
        candidate: Optional[Sequence[Constant]] = None,
        **overrides: Any,
    ) -> bool:
        """Is *candidate* an answer in every repair?  (Boolean CQA.)

        Args:
            query: the query under decision; must be boolean when
                *candidate* is ``None``.
            candidate: the answer tuple to certify, for open queries.
            **overrides: any :class:`repro.engines.CQAConfig` field;
                notably ``anytime=True`` lets the direct engine decide
                over the anytime stream: the first streamed repair that
                refutes the candidate ends the computation — the search
                never finishes on a "no".

        Returns:
            True iff the candidate is an answer (resp. the boolean query
            holds) in **every** repair (Definition 8).

        An answer report this generation already cached under the same
        config answers by membership; otherwise the engine answers
        (:meth:`repro.engines.CQAEngine.certain`): the rewriting decides
        the candidate alone, without building any answer set, the direct
        engine's anytime stream asks each repair about the candidate
        alone, and every other route tests membership in the report it
        computes and caches.  All of them run under the request budget
        like :meth:`report`, except the anytime stream, which carries its
        budget itself.

        >>> from repro import ConsistentDatabase, parse_constraint, parse_query
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> query = parse_query("ans(e) <- Emp(e, d)")
        >>> db.certain(query, ("e2",), anytime=True)
        True
        >>> db.certain(query, ("e1",))  # e1 survives in both repairs
        True
        >>> db.certain(parse_query("ans(d) <- Emp(e, d)"), ("sales",), anytime=True)
        False
        """

        config = self._config.merged(overrides)
        self._count_query()
        answer = () if candidate is None else tuple(candidate)
        with _trace.span("session.certain") as sp:
            if sp:
                sp.add(query=str(query), anytime=config.anytime)
            method = self._route(query, config)
            engine = get_engine(method)
            key = self._answers_key(query, method, config, self._instance.generation)
            cached = self._cache.get(key)
            if cached is not None:
                return answer in cached.answers
            return engine.certain(self, query, answer, config)

    def explain(
        self, query: Query, *, analyze: bool = False, **overrides: Any
    ) -> Union["CQAPlan", "ExplainReport"]:
        """The plan for *query* — optionally executed and measured.

        Args:
            query: the query to plan.
            analyze: ``True`` *executes* one full request with
                tracing on — EXPLAIN ANALYZE — and returns an
                :class:`repro.obs.analyze.ExplainReport` built from the
                request's own span tree: the self time of each span
                name, the time no span claimed, the request's repair
                search statistics (states, tracker updates, constraint
                re-evaluations, ≤_D comparisons), the cache state and
                the tree itself (``report.render()`` pretty-prints
                it).  ``False`` (the default) plans only and executes
                nothing.
            **overrides: any :class:`repro.engines.CQAConfig` field.

        Returns:
            The :class:`repro.rewriting.planner.CQAPlan` of the route
            the request runs (or the
            :class:`~repro.obs.analyze.ExplainReport` wrapping it when
            ``analyze=True``): under ``method="auto"`` the session's
            cached :meth:`plan`, under any other method that plan with
            the requested method and a reason saying it was requested.

        >>> from repro import ConsistentDatabase, parse_constraint, parse_query
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> db.explain(parse_query("ans(e) <- Emp(e, d)")).method
        'rewriting'
        >>> db.explain(parse_query("ans(e) <- Emp(e, d)"), method="direct")
        CQAPlan(direct: method='direct' requested (auto would choose 'rewriting'))
        """

        if analyze:
            from repro.obs.analyze import analyze_request

            return analyze_request(self, query, overrides)
        config = self._config.merged(overrides)
        return self.plan(query).requested(config.method)

    def analyze(self, query: Optional[Query] = None) -> "AnalysisReport":
        """Statically analyze the constraint set (and optionally *query*).

        Runs every check of :func:`repro.analysis.analyze` — RIC-acyclicity
        (``E101``), the non-conflicting condition (``E102``), arity
        consistency (``E103``), statically decidable consequents
        (``W201``/``W204``), shadowed FDs (``W202``), duplicates
        (``W203``) and, given a query, rewriting-fragment membership
        (``I301``, with the precise clause violated) and constraint–query
        independence (``I302``).  Purely syntactic: no data is read, and
        the report is cached per query, so it survives mutations.

        >>> from repro import ConsistentDatabase, parse_constraints, parse_query
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales")]},
        ...     parse_constraints(["Emp(e, d), Emp(e, f) -> d = f"]),
        ... )
        >>> db.analyze().codes()
        ()
        >>> db.analyze(parse_query("ans(p) <- Project(p, b)")).codes()
        ('I302',)
        """

        key = ("analysis", query)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        from repro.analysis import analyze as analyze_constraints_and_query

        with _trace.span("session.analyze") as sp:
            report = analyze_constraints_and_query(self._constraints, query)
            if sp:
                sp.add(diagnostics=len(report))
        self._cache.put(key, report)
        return report

    def check(self, *, strict: bool = False) -> "AnalysisReport":
        """Admission-control view of :meth:`analyze` (constraints only).

        Args:
            strict: raise :class:`repro.analysis.ConstraintProgramError`
                when the report contains any error-severity diagnostic
                (RIC cycles, conflicting NNCs, arity mismatches) instead
                of returning it — the load-time gate a service front door
                wants.

        Returns:
            The (possibly empty) :class:`repro.analysis.AnalysisReport`.
        """

        report = self.analyze()
        if strict:
            report.raise_for_errors()
        return report

    def iter_repairs(
        self,
        method: str = "direct",
        stream: bool = False,
        **overrides: Any,
    ) -> Iterator[DatabaseInstance]:
        """Lazily iterate the repairs of the current instance.

        Args:
            method: ``"direct"`` (the repair engine) or ``"program"``
                (the stable-model route).
            stream: ``True`` yields each repair at the earliest moment
                its ``≤_D``-minimality is *proven*, while the repair
                search is still running (see
                :class:`repro.core.parallel.AnytimeRepairStream`);
                ``False`` (default) enumerates fully first and then
                iterates the cached list in its canonical order.
            **overrides: any :class:`repro.engines.CQAConfig` field.

        Returns:
            An iterator of independent copy-on-write instances; callers
            may mutate what they receive.

        Raises:
            ValueError: for an unknown *method*, or ``stream=True``
                combined with ``method="program"`` (stable models are
                not produced frontier-wise).

        The streamed repair *set* is always exactly the enumerated one —
        streaming changes when each repair becomes available, never
        which; a fully consumed stream also fills the session's repair
        cache, so a follow-up query pays nothing extra.

        >>> from repro import ConsistentDatabase, parse_constraint
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> [sorted(map(repr, r.facts())) for r in db.iter_repairs(stream=True)]
        [['Emp(e1, sales)'], ['Emp(e1, hr)']]
        """

        if method not in ("direct", "program"):
            raise ValueError(
                f"iter_repairs() enumerates repairs; method must be 'direct' or "
                f"'program', not {method!r}"
            )
        config = self._config.merged(overrides)
        if stream and method != "direct":
            raise ValueError("stream=True requires method='direct'")

        def generate() -> Iterator[DatabaseInstance]:
            repairs = self.stream_repairs(config) if stream else self.repairs_list(method, config)
            for repair in repairs:
                yield repair.copy()

        return generate()

    def stream_repairs(self, config: Optional[CQAConfig] = None) -> Iterator[DatabaseInstance]:
        """Yield repairs as the anytime stream proves them minimal.

        The engine-facing sibling of ``iter_repairs(stream=True)``:
        yields the repairs of a copy-on-write snapshot of the current
        instance (safe against concurrent session mutations) without
        defensive copies.  The depth-first search starts from the
        session's warm violation tracker, so no full violation sweep
        runs, and at every pause the stream yields the repairs it can
        now prove.  When the session holds the repair list of this
        generation (:meth:`held_repairs`: cached, or carried across the
        writes since the last search) it is replayed instead, already
        "proven".  A fully drained stream caches the repair list, in
        discovery order, and holds it for later writes to carry; an
        abandoned stream (e.g. an anytime ``certain`` that found its
        counterexample) leaves the rest of the search unexplored.
        Either way, once the stream ends or is closed, the search's
        statistics go to ``last_repair_statistics`` and the metrics
        registry, with ``repairs_found`` the repairs proven so far.

        Args:
            config: the merged :class:`repro.engines.CQAConfig`;
                defaults to the session config.
        """

        config = config if config is not None else self._config
        generation = self._instance.generation
        key = self._direct_repairs_key(config, generation)
        self.last_degradation = None
        cached = self._held_repairs(config, key, generation)
        if cached is not None:
            yield from cached
            return

        from repro.core.parallel import AnytimeRepairStream, ParallelRepairSearch

        with _trace.span("repair.stream"):
            budget: Optional[Budget] = None
            if (
                config.deadline is not None
                or config.max_memory is not None
                or config.degrade
            ):
                # Degrade mode moves the state cap into the budget (so
                # running out yields a flagged partial stream instead of
                # the strict RepairSearchBudgetExceeded the search would
                # raise itself).
                budget = Budget(
                    deadline=config.deadline,
                    max_states=config.max_states if config.degrade else None,
                    max_memory=config.max_memory,
                    degrade=config.degrade,
                )
            seed = self._ensure_tracker()
            search = ParallelRepairSearch(
                self._instance.copy(),
                self._constraints,
                max_states=None if config.degrade else config.max_states,
                violation_index=self._violation_index,
                budget=budget,
                seed_tracker=seed,
            )
            stream = AnytimeRepairStream(search)
        try:
            yield from stream
        finally:
            with _trace.span("repair.stream"):
                self.last_degradation = stream.degradation
                search.statistics.repairs_found = stream.proven
                self.last_repair_statistics = search.statistics
                _metrics.absorb_repair_statistics(search.statistics)
                if stream.ordered_repairs is not None:
                    self._cache.put(key, stream.ordered_repairs, generation)
                    self._hold(stream.ordered_repairs, config.max_states, generation)

    def repair_count(self, method: str = "direct", **overrides: Any) -> int:
        """The exact number of repairs (enumerates them, cached).

        Args:
            method: ``"direct"`` or ``"program"``.
            **overrides: any :class:`repro.engines.CQAConfig` field.

        Returns:
            ``len(repairs)`` — exact, unlike the conflict-graph
            estimate the rewriting engines report.

        >>> from repro import ConsistentDatabase, parse_constraint
        >>> db = ConsistentDatabase(
        ...     {"Emp": [("e1", "sales"), ("e1", "hr")]},
        ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        ... )
        >>> db.repair_count()
        2
        """

        config = self._config.merged(overrides)
        return len(self.repairs_list(method, config))

    # ------------------------------------------------------------------ engine-facing cache surface
    def _direct_repairs_key(self, config: CQAConfig, generation: int) -> Tuple:
        """Cache key of the direct enumeration's repair list.

        Excludes ``repair_mode``: every search returns a bit-identical
        list, so segmenting the cache by it would only recompute
        identical entries.
        """

        return ("repairs", "direct", generation, config.max_states)

    def repairs_list(self, method: str, config: CQAConfig) -> Sequence[DatabaseInstance]:
        """The repairs of the current instance, cached per generation.

        ``"direct"`` serves :meth:`held_repairs` when it can; otherwise it
        runs :class:`RepairEngine` — its production search warm-started
        from the session's violation tracker, so no full violation sweep
        happens per query — and caches the
        :class:`~repro.core.repairs.RepairSequence` it returns (minimal
        deltas over a snapshot; ``len()`` builds nothing, each access
        builds one repair) and holds it for later writes to carry;
        ``"program"`` caches the stable-model route's list.  Engines and
        the repair iterator share this cache; treat the returned
        sequence and its instances as read-only.
        """

        generation = self._instance.generation
        if method == "direct":
            key = self._direct_repairs_key(config, generation)
            held = self._held_repairs(config, key, generation)
            if held is not None:
                return held
            engine = RepairEngine(
                self._constraints,
                max_states=config.max_states,
                method=config.repair_mode,
                violation_index=self._violation_index,
            )
            seed = self._ensure_tracker() if config.repair_mode == PARALLEL_METHOD else None
            with self._budget_scope(config):
                found = engine.repairs(self._instance, seed_tracker=seed)
            self.last_repair_statistics = engine.statistics
            self._hold(found, config.max_states, generation)
        elif method == "program":
            key = ("repairs", "program", generation)
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            from repro.core.repair_program import program_repairs

            with self._budget_scope(config):
                found = program_repairs(self._instance, self._constraints).repairs
        else:
            raise ValueError(f"unknown repair enumeration method {method!r}")
        self._cache.put(key, found, generation)
        return found

    def held_repairs(self, config: CQAConfig) -> Optional[Sequence[DatabaseInstance]]:
        """This generation's direct repairs if the session holds them, else ``None``.

        Runs no search: the cached repair list of this generation, or
        else the last search's repairs carried across the writes since
        their base (:func:`~repro.core.repairs.carry_repairs`, inside a
        ``repair.carry`` span), which are then cached under this
        generation and become the new base.  Every session write whose
        tracker delta is empty notes its fact in the net change; any
        other write, a rollback, an out-of-band write under
        ``copy=False``, :meth:`close` or a failed carry drops the held
        repairs, and a request with another ``max_states`` ignores them.
        """

        generation = self._instance.generation
        return self._held_repairs(
            config, self._direct_repairs_key(config, generation), generation
        )

    def _held_repairs(
        self, config: CQAConfig, key: Tuple, generation: int
    ) -> Optional[Sequence[DatabaseInstance]]:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        held = self._held
        if held is None or held.max_states != config.max_states:
            return None
        if held.generation != generation:  # the instance moved out of band
            self._held = None
            return None
        with _trace.span("repair.carry") as sp:
            carried = carry_repairs(
                held.repairs, self._instance, held.inserted, held.deleted,
                self._violation_index,
            )
            if sp:
                sp.add(
                    inserted=len(held.inserted),
                    deleted=len(held.deleted),
                    carried=carried is not None,
                )
        if carried is None:
            self._held = None
            return None
        _REPAIRS_CARRIED.inc()
        self._held = _HeldRepairs(carried, held.max_states, generation)
        self._cache.put(key, carried, generation)
        return carried

    def _hold(
        self, repairs: Sequence[DatabaseInstance], max_states: Optional[int], generation: int
    ) -> None:
        """Hold a finished search's repairs of the current instance for writes to carry."""

        if (
            isinstance(repairs, RepairSequence)
            and repairs.record is not None
            and generation == self._instance.generation
        ):
            self._held = _HeldRepairs(repairs, max_states, generation)

    def rewritten(self, query: Query) -> "RewrittenQuery":
        """The first-order rewriting of *query*, from its :meth:`plan`.

        Unsupported pairs raise the cached
        :class:`RewritingUnsupportedError` again — a copy, which keeps
        its structured payload (clause, constraint, diagnostic) but not
        the cached instance's traceback.
        """

        plan = self.plan(query)
        if plan.unsupported is not None:
            raise plan.unsupported.copy()
        assert plan.rewritten is not None
        return plan.rewritten

    def plan(self, query: Query) -> "CQAPlan":
        """The :class:`CQAPlan` ``method="auto"`` follows for *query*.

        The ``I302`` independence verdict and the rewriting (or the
        :class:`RewritingUnsupportedError` saying why there is none)
        depend only on (query, constraints), so the plan is cached per
        query: it survives mutations, and a write re-plans nothing.
        """

        key = ("plan", query)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        from repro.rewriting import plan_cqa

        with _trace.span("session.plan") as sp:
            plan = plan_cqa(self._constraints, query)
            if sp:
                sp.add(query=str(query), method=plan.method, supported=plan.supported)
        self._cache.put(key, plan)
        return plan

    def conflict_graph(self) -> "ConflictGraph":
        """The instance's conflict graph, cached per generation.

        Built from the warm tracker's violations, so it runs no join of
        its own.  The library builds it only for :meth:`report`'s
        repair-count estimate on the engines that materialise no
        repairs.
        """

        generation = self._instance.generation
        key = ("conflicts", generation)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        from repro.rewriting import ConflictGraph

        with _trace.span("conflicts.build"):
            graph = ConflictGraph.build(self._ensure_tracker().violations())
        self._cache.put(key, graph, generation)
        return graph

    def sql_backend(self, query: Optional[Query] = None) -> "SQLiteBackend":
        """An SQLite mirror of the current instance, rebuilt only on mutation.

        Held outside the LRU (a live connection should be closed, not
        silently evicted); :meth:`close` releases it.  The mirror is
        built over a copy-on-write copy of the instance whose schema is
        extended with any relation the constraints or *query* mention
        that the live schema never learned — an inferred schema only
        knows relations with at least one fact — so SQL evaluation
        agrees with the in-memory evaluators on empty relations instead
        of failing on a missing table, and the caller's schema is never
        mutated by a query.
        """

        needed = self._relations_needed(query)
        generation = self._instance.generation
        if (
            self._sql_backend is not None
            and self._sql_backend_generation == generation
            and all(
                predicate in self._sql_backend_schema for predicate, _ in needed
            )
        ):
            return self._sql_backend
        if self._sql_backend is not None:
            self._sql_backend.close()
        from repro.sqlbackend.backend import SQLiteBackend

        mirror = self._instance.copy()
        for predicate, arity in needed:
            if predicate not in mirror.schema:
                mirror.schema.relation_from_arity(predicate, arity)
        with _trace.span("sql.mirror") as sp:
            if sp:
                sp.add(facts=len(mirror))
            self._sql_backend = SQLiteBackend(mirror, self._constraints)
        self._sql_backend_schema = mirror.schema
        self._sql_backend_generation = generation
        return self._sql_backend

    def _relations_needed(self, query: Optional[Query]) -> List[Tuple[str, int]]:
        """(predicate, arity) pairs the SQL layer must have tables for."""

        from repro.constraints.ic import NotNullConstraint

        if self._constraint_relations is None:
            relations: List[Tuple[str, int]] = []
            for constraint in self._constraints:
                if isinstance(constraint, NotNullConstraint):
                    if constraint.arity is not None:
                        relations.append((constraint.predicate, constraint.arity))
                    continue
                for atom in (*constraint.body, *constraint.head_atoms):
                    relations.append((atom.predicate, atom.arity))
            self._constraint_relations = relations
        needed = list(self._constraint_relations)
        for atom in getattr(query, "positive_atoms", ()) or ():
            needed.append((atom.predicate, atom.arity))
        return needed
