"""One workload in one fresh process: set up, run the stream, check every answer.

``run.py`` starts this file once per set-up probe and once for the
measured run, so process-wide memos (compiled plans, generated code) and
peak memory never carry over from another workload or run.  The last
line of standard output is a JSON object ``run.py`` reads.

Modes:

* ``setup``  — import the library, build the sessions, run the first
  consistency check and one untimed pass over every request shape;
  report the corrected and raw set-up time;
* ``run``    — set up, then run the timed stream and the property checks;
  report every request's raw and corrected latency;
* ``traced`` — set up and run the stream untraced, then replay it with
  the layer spans of :mod:`layers` recorded, check that the replay
  answers exactly as the first pass did, and report the per-layer
  figures, the span file and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import calibrate
from oracle import Model, Query, Unmodelled
from workloads import WORKLOADS, Op, Step, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


class Session:
    """The library objects of one workload: sessions, parsed queries, the null marker."""

    def __init__(self, workload: Workload, repro: Any):
        self.repro = repro
        self.null = repro.NULL
        self.dbs: Dict[str, Any] = {}
        self.parsed: Dict[Query, Any] = {}
        queries = {op.query for step in workload.warm + workload.stream for op in step if op.query}
        rows = {
            name: {pred: [self.to_program(row) for row in table] for pred, table in spec.rows.items()}
            for name, spec in workload.sessions.items()
        }
        self._build = (workload, rows, sorted(queries, key=Query.text))

    def build(self) -> None:
        workload, rows, queries = self._build
        for name, spec in workload.sessions.items():
            constraints = [self.repro.parse_constraint(text) for text in spec.constraints]
            self.dbs[name] = self.repro.ConsistentDatabase(rows[name], constraints, **spec.options)
        for query in queries:
            self.parsed[query] = self.repro.parse_query(query.text())

    def to_program(self, row: Tuple) -> Tuple:
        return tuple(self.null if value is None else value for value in row)

    def from_program(self, answers: Any) -> frozenset:
        null = self.null
        return frozenset(tuple(None if v is null else v for v in row) for row in answers)

    def bind(self, op: Op) -> Callable[[], Any]:
        db = self.dbs[op.session]
        options = dict(op.options)
        if op.action in ("insert", "delete"):
            return partial(getattr(db, op.action), op.pred, self.to_program(op.row))
        if op.action == "answers":
            return partial(db.consistent_answers, self.parsed[op.query], **options)
        if op.action == "certain":
            return partial(db.certain, self.parsed[op.query], self.to_program(op.row), **options)
        if op.action == "repair_count":
            return db.repair_count
        return db.is_consistent


def check(op: Op, result: Any, models: Dict[str, Model], session: Session) -> Optional[str]:
    """Compare one result with the model, then apply a write to the model."""

    model = models[op.session]
    try:
        if op.action in ("insert", "delete"):
            expected: Any = getattr(model, op.action)(op.pred, op.row)
        elif op.action == "answers":
            expected = model.certain_answers(op.query)
            result = session.from_program(result)
        elif op.action == "certain":
            expected = op.row in model.certain_answers(op.query)
        elif op.action == "repair_count":
            expected = model.repair_count()
        else:
            expected = model.is_consistent()
    except Unmodelled as error:
        return f"{op.label()}: the reference model cannot decide this instance ({error})"
    if result != expected:
        if isinstance(expected, frozenset):
            missing = sorted(map(repr, expected - result))[:3]
            extra = sorted(map(repr, result - expected))[:3]
            return f"{op.label()}: missing {missing}, unexpected {extra}"
        return f"{op.label()}: returned {result!r}, the |=_N model says {expected!r}"
    return None


class Runner:
    """Executes steps with the speed brackets and the answer checks."""

    def __init__(self, session: Session, models: Dict[str, Model], recorder: Any = None):
        self.session = session
        self.models = models
        self.recorder = recorder
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self.problems: List[str] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.requests: List[Tuple[Op, float, float]] = []
        self.results: List[Any] = []

    def steps(self, steps: List[Step], first_request: int = 0) -> None:
        """Run *steps*; a speed bracket closes every run of writes and of reads.

        Writes take microseconds and reads milliseconds, so each group of
        consecutive writes gets its own window: its correction comes from
        the brackets right around it.
        """

        before = calibrate.kernel_seconds()
        request = first_request
        for step in steps:
            calls = [self.session.bind(op) for op in step]
            timed: List[Tuple[Op, float, Any]] = []
            for index, (op, call) in enumerate(zip(step, calls)):
                if self.recorder is not None:
                    self.recorder.begin(request, op.kind)
                started = time.perf_counter()
                try:
                    result = call()
                except Exception as error:  # counted as a failed operation
                    result = error
                elapsed = time.perf_counter() - started
                if self.recorder is not None:
                    self.recorder.end()
                request += 1
                self.attempted += 1
                if isinstance(result, Exception):
                    self.failures.append(f"{op.label()}: {type(result).__name__}: {result}")
                    _apply_write(op, self.models)
                else:
                    problem = check(op, result, self.models, self.session)
                    if problem:
                        self.problems.append(problem)
                timed.append((op, elapsed, result))
                following = step[index + 1] if index + 1 < len(step) else None
                if following is None or (following.kind == "mutation") != (op.kind == "mutation"):
                    after = calibrate.kernel_seconds()
                    self._record(timed, calibrate.factor(before, after))
                    before, timed = after, []

    def _record(self, timed: List[Tuple[Op, float, Any]], scale: float) -> None:
        for op, elapsed, result in timed:
            self.samples.setdefault(op.kind, []).append((elapsed, elapsed * scale))
            self.requests.append((op, elapsed, elapsed * scale))
            self.results.append(_digest(result))


def _apply_write(op: Op, models: Dict[str, Model]) -> None:
    if op.action in ("insert", "delete"):
        getattr(models[op.session], op.action)(op.pred, op.row)


def _digest(result: Any) -> Any:
    if isinstance(result, Exception):
        return type(result).__name__
    if isinstance(result, frozenset):
        return (len(result), hash(result))
    return result


def setup(workload: Workload, recorder: Any = None) -> Tuple[Session, Dict[str, Model], Dict[str, Any]]:
    """Everything paid once before the timed stream, bracketed phase by phase."""

    models = {name: Model(spec.shape, spec.rows) for name, spec in workload.sessions.items()}
    raw = corrected = 0.0
    before = calibrate.kernel_seconds()
    started = time.perf_counter()
    sys.path.insert(0, SOURCE)
    import repro

    elapsed = time.perf_counter() - started
    after = calibrate.kernel_seconds()
    raw += elapsed
    corrected += elapsed * calibrate.factor(before, after)
    if recorder is not None:
        recorder.install()
    session = Session(workload, repro)
    problems: List[str] = []

    def phase(body: Callable[[], None], request: int) -> None:
        nonlocal raw, corrected
        before = calibrate.kernel_seconds()
        if recorder is not None:
            recorder.begin(request, "setup")
        started = time.perf_counter()
        body()
        elapsed = time.perf_counter() - started
        if recorder is not None:
            recorder.end()
        after = calibrate.kernel_seconds()
        raw += elapsed
        corrected += elapsed * calibrate.factor(before, after)

    consistent: Dict[str, bool] = {}
    phase(session.build, -3)
    phase(lambda: consistent.update({name: db.is_consistent() for name, db in session.dbs.items()}), -2)
    for name, verdict in consistent.items():
        if verdict != models[name].is_consistent():
            problems.append(f"{name}: first is_consistent() returned {verdict}")
    warm = Runner(session, models, recorder)
    warm.steps(workload.warm, first_request=-1_000_000)
    raw += sum(r for op, r, c in warm.requests)
    corrected += sum(c for op, r, c in warm.requests)
    problems += warm.problems + warm.failures
    from repro.compile.codegen import codegen_statistics

    info = {
        "raw_s": raw,
        "corrected_s": corrected,
        "problems": problems,
        "codegen_builds": codegen_statistics().plans_generated,
    }
    return session, models, info


def properties(workload: Workload, session: Session) -> List[str]:
    """Relations that need no reference model, checked after the timed stream."""

    problems: List[str] = []
    ops = [op for step in workload.stream for op in step]
    for op in list(dict.fromkeys(op for op in ops if op.kind == "certain"))[:12]:
        db, query = session.dbs[op.session], session.parsed[op.query]
        verdict = db.certain(query, session.to_program(op.row), **dict(op.options))
        member = session.to_program(op.row) in db.consistent_answers(query)
        if verdict != member:
            problems.append(f"{op.label()}: certain() says {verdict}, membership says {member}")
    for name, db in session.dbs.items():
        write = next(op for op in ops if op.session == name and op.action == "insert")
        reads = [op.query for op in ops if op.session == name and op.query is not None]
        queries = [session.parsed[q] for q in dict.fromkeys(reads)]
        before = [db.consistent_answers(q) for q in queries]
        db.insert(write.pred, session.to_program(write.row))
        db.delete(write.pred, session.to_program(write.row))
        if [db.consistent_answers(q) for q in queries] != before:
            problems.append(f"{name}: inserting then deleting {write.label()} changed the answers")
        if any(dict(op.options).get("method") == "sqlite" for op in ops if op.session == name):
            for query, memory in zip(queries, before):
                if db.consistent_answers(query, method="sqlite") != memory:
                    problems.append(f"{query}: the sqlite and in-memory routes disagree")
    return problems


def layer_metrics(self_times: Dict[int, Dict[str, float]], counts: Dict[Tuple[int, str], float],
                  requests: List[Tuple[int, Op]], setup_info: Dict[str, Any],
                  cache: Tuple[int, int]) -> Dict[str, Tuple[float, str]]:
    """The per-layer figures of the traced replay."""

    def entered_mean(name: str, ids: List[int], scale: float = 1e3) -> float:
        totals = [self_times[i].get(name, 0.0) for i in ids]
        entered = [t for t in totals if t > 0]
        return scale * sum(entered) / len(entered) if entered else 0.0

    def count_mean(name: str, per: str) -> float:
        total = sum(counts.get((i, name), 0.0) for i, _ in requests)
        n = sum(counts.get((i, per), 0.0) for i, _ in requests)
        return total / n if n else 0.0

    reads = [i for i, op in requests if op.kind != "mutation"]
    writes = [i for i, op in requests if op.kind == "mutation"]
    setup_ids = [-3, -2]
    all_ids = [i for i, _ in requests]
    hits, lookups = cache

    def per_write(name: str, scale: float) -> float:
        return scale * sum(self_times[i].get(name, 0.0) for i in writes) / len(writes) if writes else 0.0

    def per_read_count(name: str) -> float:
        return sum(counts.get((i, name), 0.0) for i in reads) / len(reads) if reads else 0.0

    candidates = sum(counts.get((i, "core.repairs.candidates"), 0.0) for i in all_ids)
    repairs = sum(counts.get((i, "core.repairs.repairs"), 0.0) for i in all_ids)
    return {
        "session.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "session.unattributed_ms": (
            1e3 * sum(self_times[i].get("session.request", 0.0) for i in reads) / len(reads)
            if reads else 0.0, "ms"),
        "rewriting.plan_ms": (entered_mean("rewriting.plan", all_ids), "ms"),
        "rewriting.conflict_graph_ms": (entered_mean("rewriting.conflict_graph", all_ids), "ms"),
        "rewriting.eval_ms": (entered_mean("rewriting.eval", all_ids), "ms"),
        "analysis.independent_eval_ms": (entered_mean("analysis.independent_eval", all_ids), "ms"),
        "sqlbackend.mirror_ms": (entered_mean("sqlbackend.mirror", all_ids), "ms"),
        "sqlbackend.exec_ms": (entered_mean("sqlbackend.exec", all_ids), "ms"),
        "core.repairs.search_ms": (entered_mean("core.repairs.search", all_ids), "ms"),
        "core.repairs.states": (count_mean("core.repairs.states", "core.repairs.searches"), "count"),
        "core.repairs.minimality_ms": (entered_mean("core.repairs.minimality", all_ids), "ms"),
        "core.repairs.leq_d_comparisons": (
            count_mean("core.repairs.leq_d_comparisons", "core.repairs.searches"), "count"),
        "core.repairs.minimal_ratio": (repairs / candidates if candidates else 0.0, "ratio"),
        "core.repairs.tracker_update_us": (per_write("core.repairs.tracker_update", 1e6), "us"),
        "core.repairs.constraints_reevaluated": (
            sum(counts.get((i, "core.repairs.constraints_reevaluated"), 0.0) for i in writes)
            / len(writes) if writes else 0.0, "count"),
        "logic.per_repair_eval_ms": (entered_mean("logic.query_eval", all_ids), "ms"),
        "core.cqa.intersect_ms": (entered_mean("core.cqa.intersect", all_ids), "ms"),
        "relational.instance_update_us": (per_write("relational.instance_update", 1e6), "us"),
        "relational.columnar_store_builds": (per_read_count("relational.columnar_store_builds"), "count"),
        "relational.columnar_rows_interned": (per_read_count("relational.columnar_rows_interned"), "count"),
        "core.satisfaction.sweep_ms": (
            1e3 * sum(self_times[i].get("core.satisfaction.sweep", 0.0) for i in setup_ids), "ms"),
        "compile.program_ms": (
            1e3 * sum(self_times[i].get("compile.program", 0.0) for i in setup_ids), "ms"),
        "compile.codegen_builds": (float(setup_info["codegen_builds"]), "count"),
        "core.parallel.stream_states": (
            count_mean("core.parallel.stream_states", "core.parallel.streams"), "count"),
        "core.parallel.stream_ms": (entered_mean("core.parallel.stream", all_ids), "ms"),
        "core.parallel.collect_ms": (entered_mean("core.parallel.collect", all_ids), "ms"),
        "core.parallel.instance_ship_bytes": (
            count_mean("core.parallel.instance_ship_bytes", "core.parallel.pool_starts"), "bytes"),
    }


def _cache_totals(session: Session) -> Tuple[int, int]:
    infos = [db.cache_info() for db in session.dbs.values()]
    hits = sum(info.hits for info in infos)
    return hits, hits + sum(info.misses for info in infos)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--spans", help="span file written by --mode traced")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    recorder = None
    if args.mode == "traced":
        import layers

        recorder = layers.Recorder()
    session, models, info = setup(workload, recorder)
    out: Dict[str, Any] = {"setup": info, "rounds": workload.rounds}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if recorder is not None:
        recorder.uninstall()
    runner = Runner(session, models)
    runner.steps(workload.stream)
    out.update(
        samples=runner.samples,
        attempted=runner.attempted,
        failures=runner.failures,
        problems=info["problems"] + runner.problems,
    )
    if recorder is not None:
        recorder.install()
        first = 1
        replay = Runner(session, models, recorder)
        hits0, lookups0 = _cache_totals(session)
        replay.steps(workload.stream, first_request=first)
        recorder.uninstall()
        hits1, lookups1 = _cache_totals(session)
        ids = list(range(first, first + replay.attempted))
        requests = list(zip(ids, [op for step in workload.stream for op in step]))
        self_times = recorder.self_times()
        mismatched = [
            op.label() for (i, op), a, b in zip(requests, runner.results, replay.results) if a != b
        ]
        out["problems"] += replay.problems + [f"traced replay answered differently: {m}" for m in mismatched[:5]]
        out["problems"] += recorder.tree_problems()[:5]
        out["layers"] = layer_metrics(
            self_times, recorder.counts, requests, info, (hits1 - hits0, lookups1 - lookups0)
        )
        out["layer_totals"] = _totals(self_times, ids)
        out["overhead"] = {
            "untraced_s": sum(c for op, r, c in runner.requests),
            "traced_s": sum(c for op, r, c in replay.requests),
            "median_request_ms": 1e3 * statistics.median(
                b[2] - a[2] for a, b in zip(runner.requests, replay.requests)
            ),
        }
        if args.spans:
            labels = {i: op.label() for i, op in requests}
            recorder.write(args.spans, labels)
    out["problems"] += properties(workload, session)
    for db in session.dbs.values():
        db.close()
    print(json.dumps(out))
    return 0


def _totals(self_times: Dict[int, Dict[str, float]], ids: List[int]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for i in ids:
        for name, seconds in self_times[i].items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


if __name__ == "__main__":
    sys.exit(main())
