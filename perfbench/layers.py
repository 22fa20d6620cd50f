"""Spans around the calls into each layer, recorded from the benchmark's side.

:class:`Recorder` replaces public functions and methods of the program's
layers with wrappers that record a span (name, start, end, parent,
request) while a request is open, and puts the originals back on
:meth:`Recorder.uninstall`.  The program itself is not changed and its
own tracer stays off.  A layer's self time is its span's duration minus
what its child spans cover; the request's root span keeps the time spent
outside every layer, so the self times of one request sum to its
duration by definition.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "session.request"

#: Layers whose own evaluation calls ``Query.answers`` internally; there the
#: call is part of that layer, not per-repair query evaluation.
_OWNS_QUERY_EVAL = {"analysis.independent_eval", "rewriting.eval"}


class Recorder:
    def __init__(self) -> None:
        #: [name, start, end, parent index, request id]
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        self.request: Optional[int] = None
        self.kind = ""
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.streams: List[Any] = []
        self.searches: Dict[int, Any] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Registry counters read around every request (set by :meth:`install`).
        self._counters: Dict[str, Any] = {}
        self._marks: Dict[str, float] = {}

    # ------------------------------------------------------------------ requests
    def begin(self, request: int, kind: str) -> None:
        self.request = request
        self.kind = kind
        self.streams = []
        self.searches = {}
        self._marks = {name: counter.value for name, counter in self._counters.items()}
        self.stack = [self._open(ROOT)]

    def end(self) -> None:
        index = self.stack.pop()
        self.spans[index][2] = time.perf_counter()
        for stream in self.streams:
            self.count("core.parallel.stream_states", stream.statistics.states_explored)
            self.count("core.parallel.streams", 1)
        for statistics in self.searches.values():
            if statistics.instance_ship_bytes:
                self.count("core.parallel.instance_ship_bytes", statistics.instance_ship_bytes)
                self.count("core.parallel.pool_starts", 1)
        for name, counter in self._counters.items():
            self.count(name, counter.value - self._marks[name])
        self.request = None

    def count(self, name: str, value: float) -> None:
        if self.request is not None:
            self.counts[(self.request, name)] += value

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        return index

    def _top(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    # ------------------------------------------------------------------ wrapping
    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        when: Optional[Callable[[tuple, dict], bool]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        recorder = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if recorder.request is None or (when is not None and not when(args, kwargs)):
                    return fn(*args, **kwargs)
                index = recorder._open(name)
                recorder.stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder.spans[index][2] = time.perf_counter()
                    recorder.stack.pop()
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def observe(self, owner: Any, attr: str, seen: Callable[[Any], None]) -> None:
        """Hand the call's first argument to *seen* while a request is open; no span."""

        recorder = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if recorder.request is not None:
                    seen(args[0])
                return fn(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Record one span per resumption of a generator method."""

        recorder = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        traced = recorder.request is not None
                        if traced:
                            index = recorder._open(name)
                            recorder.stack.append(index)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if traced:
                                recorder.spans[index][2] = time.perf_counter()
                                recorder.stack.pop()
                        yield item
                finally:
                    inner.close()

            return wrapper

        self._replace(owner, attr, make)

    def install(self) -> None:
        """Wrap the public entry points of every layer the workloads cross."""

        # import_module, because ``repro.core`` re-exports a function named
        # ``repairs`` that shadows its submodule in attribute lookups.
        kernel = importlib.import_module("repro.compile.kernel")
        cqa = importlib.import_module("repro.core.cqa")
        parallel = importlib.import_module("repro.core.parallel")
        repairs = importlib.import_module("repro.core.repairs")
        rewriting = importlib.import_module("repro.rewriting")
        from repro.engines.independent import IndependentEngine
        from repro.logic.queries import ConjunctiveQuery, FirstOrderQuery
        from repro.relational.instance import DatabaseInstance
        from repro.rewriting.conflicts import ConflictGraph
        from repro.rewriting.rewriter import RewrittenQuery
        from repro.obs.metrics import registry
        from repro.sqlbackend.backend import SQLiteBackend

        self._counters = {
            "relational.columnar_store_builds": registry().get("repro_columnar_store_builds_total"),
            "relational.columnar_rows_interned": registry().get("repro_columnar_store_rows_total"),
        }

        def under_write(args: tuple, kwargs: dict) -> bool:
            return self.kind == "mutation" and self._top() == ROOT

        def unseeded(args: tuple, kwargs: dict) -> bool:
            return kwargs.get("seed", args[3] if len(args) > 3 else None) is None

        def per_repair(args: tuple, kwargs: dict) -> bool:
            return self._top() not in _OWNS_QUERY_EVAL

        def tracker_counted(fn_name: str) -> None:
            # Count the constraints a write re-evaluates from the tracker's
            # own counter, read around the call.
            original = repairs.ViolationTracker.__dict__[fn_name]

            def counting(tracker: Any, fact: Any) -> Any:
                before = tracker.constraints_reevaluated
                try:
                    return original(tracker, fact)
                finally:
                    if self.request is not None and self.kind == "mutation":
                        self.count(
                            "core.repairs.constraints_reevaluated",
                            tracker.constraints_reevaluated - before,
                        )

            self._patched.append((repairs.ViolationTracker, fn_name, original))
            setattr(repairs.ViolationTracker, fn_name, functools.wraps(original)(counting))
            self.wrap(repairs.ViolationTracker, fn_name, "core.repairs.tracker_update", when=under_write)

        def search_done(args: tuple, result: Any) -> None:
            statistics = args[0].statistics
            self.count("core.repairs.searches", 1)
            self.count("core.repairs.states", statistics.states_explored)
            self.count("core.repairs.leq_d_comparisons", statistics.leq_d_comparisons)
            self.count("core.repairs.candidates", statistics.candidates_found)
            self.count("core.repairs.repairs", statistics.repairs_found)

        self.wrap(rewriting, "plan_cqa", "rewriting.plan")
        self.wrap(ConflictGraph, "build", "rewriting.conflict_graph")
        self.wrap(RewrittenQuery, "answers", "rewriting.eval")
        self.wrap(IndependentEngine, "answers_report", "analysis.independent_eval")
        self.wrap(SQLiteBackend, "__init__", "sqlbackend.mirror")
        self.wrap(SQLiteBackend, "consistent_answers", "sqlbackend.exec")
        self.wrap(repairs.RepairEngine, "repairs", "core.repairs.search", after=search_done)
        self.wrap(repairs.RepairEngine, "candidates", "core.repairs.search")
        for module, attr in (
            (repairs, "_minimal_under_leq_d_counted"),
            (repairs, "minimal_flags_counted"),
            (parallel, "minimal_flags_counted"),
            (parallel, "minimal_flags_for_deltas"),
            (parallel, "parallel_minimal_flags"),
        ):
            self.wrap(module, attr, "core.repairs.minimality")
        tracker_counted("notify_added")
        tracker_counted("notify_removed")
        self.wrap(repairs.ViolationTracker, "__init__", "core.satisfaction.sweep", when=unseeded)
        for query_class in (ConjunctiveQuery, FirstOrderQuery):
            self.wrap(query_class, "answers", "logic.query_eval", when=per_repair)
        self.wrap(cqa, "result_from_repairs", "core.cqa.intersect")
        self.wrap(DatabaseInstance, "add", "relational.instance_update", when=under_write)
        self.wrap(DatabaseInstance, "discard", "relational.instance_update", when=under_write)
        self.wrap(kernel, "compile_program", "compile.program")
        self.wrap(parallel.ParallelRepairSearch, "collect", "core.parallel.collect")
        self.observe(
            parallel.ParallelRepairSearch, "close",
            lambda search: self.searches.__setitem__(id(search), search.statistics),
        )
        self.observe(parallel.AnytimeRepairStream, "__init__", lambda stream: self.streams.append(stream))
        self.wrap_generator(parallel.AnytimeRepairStream, "__iter__", "core.parallel.stream")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ analysis
    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per request: self seconds per span name (the root's is the unattributed rest)."""

        covered: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, request in self.spans:
            if parent is not None:
                covered[parent] += end - start
        result: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            result[request][name] += (end - start) - covered[index]
        return result

    def tree_problems(self) -> List[str]:
        """What would make the self times wrong: spans that do not nest.

        The self times of one request sum to its root span by definition,
        so that sum proves nothing; what can go wrong is a child outside
        its parent's interval, a child of another request's span, or
        children that overlap each other (a negative self time).
        """

        problems: List[str] = []
        for name, start, end, parent, request in self.spans:
            if parent is None:
                continue
            p_name, p_start, p_end, _, p_request = self.spans[parent]
            if request != p_request:
                problems.append(f"{name} of request {request} sits under {p_name} of request {p_request}")
            if not p_start <= start <= end <= p_end:
                problems.append(f"{name} of request {request} lies outside its parent {p_name}")
        for request, names in self.self_times().items():
            for name, seconds in names.items():
                if seconds < -1e-9:
                    problems.append(f"{name} of request {request} has self time {seconds:.3g} s")
        return problems

    def write(self, path: str, labels: Dict[int, str]) -> None:
        """Write the spans as Chrome trace events (microseconds, one track)."""

        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"request": request, "parent": parent, "op": labels.get(request, "")},
            }
            for name, start, end, parent, request in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
