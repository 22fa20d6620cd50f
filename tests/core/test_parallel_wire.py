"""The parallel pool's wire format: codec round-trips and the facts payload."""

import pickle

from repro.constraints.parser import parse_constraint
from repro.core import parallel
from repro.core.parallel import (
    FactCodec,
    FrontierTask,
    ParallelRepairSearch,
    SearchContext,
    TaskResult,
    exclusion_safe,
    _decode_result,
    _decode_statistics,
    _decode_task,
    _encode_result,
    _encode_statistics,
    _encode_task,
)
from repro.core.repairs import RepairStatistics
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact


def _instance():
    return DatabaseInstance.from_dict(
        {
            "P": [("a", 1), ("b", 2), ("c", NULL)],
            "Q": [("a",), ("b",)],
        }
    )


def _codec():
    return FactCodec.from_instance(_instance())


def _task(instance):
    facts = sorted(instance.facts(), key=Fact.sort_key)
    return FrontierTask(
        path=(0, 2),
        inserted=frozenset({Fact("Q", ("z",))}),
        deleted=frozenset(facts[:1]),
        excluded_deletions=frozenset(facts[1:2]),
        excluded_insertions=frozenset(),
    )


class TestFactCodec:
    def test_base_facts_ship_as_integers(self):
        instance = _instance()
        codec = FactCodec.from_instance(instance)
        for fact in instance.facts():
            token = codec.encode_fact(fact)
            assert isinstance(token, int)
            assert codec.decode_fact(token) == fact

    def test_foreign_facts_ship_as_pairs(self):
        codec = _codec()
        foreign = Fact("P", ("z", 9))
        token = codec.encode_fact(foreign)
        assert token == ("P", ("z", 9))
        assert codec.decode_fact(token) == foreign

    def test_both_ends_derive_the_same_numbering(self):
        """The numbering follows the sorted facts, not insertion history."""

        driver_instance = _instance()
        driver_instance.discard(Fact("P", ("a", 1)))
        driver_instance.add_tuple("P", ("a", 1))
        worker_instance = DatabaseInstance.from_facts(
            reversed(list(_instance().facts()))
        )
        driver = FactCodec.from_instance(driver_instance)
        worker = FactCodec.from_instance(worker_instance)
        assert len(driver) == len(worker)
        for fact in driver_instance.facts():
            assert driver.encode_fact(fact) == worker.encode_fact(fact)

    def test_fact_sets_round_trip(self):
        instance = _instance()
        codec = FactCodec.from_instance(instance)
        facts = frozenset(list(instance.facts())[:2]) | {Fact("P", ("q", 0))}
        tokens = codec.encode_facts(facts)
        assert codec.decode_facts(tokens) == facts
        # Equal sets encode equally (sorted), whatever the input order.
        assert tokens == codec.encode_facts(sorted(facts, key=Fact.sort_key))


class TestTaskWire:
    def test_round_trip(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        assert _decode_task(codec, _encode_task(codec, task)) == task

    def test_base_facts_ship_as_integers(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        wire = _encode_task(codec, task)
        _, inserted, deleted, excluded_deletions, _ = wire
        assert all(isinstance(token, int) for token in deleted)
        assert all(isinstance(token, int) for token in excluded_deletions)
        # The inserted witness is not a base fact: it ships as a pair.
        assert inserted == (("Q", ("z",)),)

    def test_wire_is_smaller_than_the_task_pickle(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        wire = _encode_task(codec, task)
        assert len(pickle.dumps(wire)) < len(pickle.dumps(task))


class TestStatisticsWire:
    def test_round_trip(self):
        statistics = RepairStatistics(
            states_explored=7, tasks_shipped=3, task_ship_bytes=123
        )
        assert _decode_statistics(_encode_statistics(statistics)) == statistics

    def test_tuple_is_smaller_than_the_dataclass_pickle(self):
        statistics = RepairStatistics(states_explored=7)
        wire = _encode_statistics(statistics)
        assert len(pickle.dumps(wire)) < len(pickle.dumps(statistics))


class TestResultWire:
    def test_round_trip_rebuilds_everything(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        extra = Fact("P", ("new", 9))
        candidate = (
            task.path + (1,),
            task.inserted | {extra},
            task.deleted,
        )
        sub = FrontierTask(
            task.path + (0, 3),
            task.inserted,
            task.deleted | {sorted(instance.facts(), key=Fact.sort_key)[2]},
            task.excluded_deletions,
            task.excluded_insertions | {extra},
        )
        result = TaskResult(
            task,
            candidates=[candidate],
            deferred=[sub],
            statistics=RepairStatistics(states_explored=5),
        )
        wire = _encode_result(codec, result)
        decoded = _decode_result(codec, wire, task)
        assert decoded.task is task
        assert decoded.candidates == result.candidates
        assert decoded.deferred == result.deferred
        assert decoded.statistics == result.statistics
        assert decoded.spans == ()

    def test_wire_ships_suffixes_and_differences_only(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        candidate = (task.path + (4,), task.inserted, task.deleted)
        result = TaskResult(
            task, candidates=[candidate], deferred=[], statistics=RepairStatistics()
        )
        candidates_wire, deferred_wire, _, _ = _encode_result(codec, result)
        path, inserted, deleted = candidates_wire[0]
        assert path == (4,)  # the task's path prefix never ships back
        assert inserted == ()  # nothing beyond what the task already holds
        assert deleted == ()
        assert deferred_wire == []


class TestInstancePayload:
    CONSTRAINTS = [parse_constraint("P(x, y), P(x, z) -> y = z")]

    def test_facts_payload_round_trips(self):
        """A worker rebuilds the base from the shipped facts, and the
        codec it derives numbers every fact as the driver's does."""

        instance = _instance()
        facts = tuple(instance.facts())
        rebuilt = DatabaseInstance.from_facts(pickle.loads(pickle.dumps(facts)))
        assert set(rebuilt.facts()) == set(facts)
        driver = FactCodec(facts)
        worker = FactCodec.from_instance(rebuilt)
        assert len(driver) == len(worker)
        for fact in facts:
            assert driver.encode_fact(fact) == worker.encode_fact(fact)

    def test_payload_is_deterministic_for_equal_instances(self):
        """Equal instances ship equal bytes, however they were built."""

        built = _instance()
        reordered = DatabaseInstance.from_facts(reversed(list(built.facts())))
        branched = built.with_delta([Fact("Q", ("z",))], []).with_delta(
            [], [Fact("Q", ("z",))]
        )
        payloads = {
            pickle.dumps(tuple(instance.facts()), pickle.HIGHEST_PROTOCOL)
            for instance in (built, reordered, branched)
        }
        assert len(payloads) == 1

    def test_a_worker_rebuilt_from_the_payload_runs_tasks_like_the_driver(
        self, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_WORKER_CONTEXT", None)
        monkeypatch.setattr(parallel, "_WORKER_CODEC", None)
        instance = DatabaseInstance.from_dict(
            {"P": [("a", 1), ("a", 2), ("b", 3), ("b", NULL), ("c", 4), ("c", 5)]}
        )
        facts = tuple(instance.facts())
        parallel._worker_init(
            pickle.loads(pickle.dumps(facts, pickle.HIGHEST_PROTOCOL)),
            tuple(self.CONSTRAINTS),
            exclusion_safe(self.CONSTRAINTS),
        )
        codec = FactCodec(facts)
        root = FrontierTask((), frozenset(), frozenset())
        driver = SearchContext(instance, self.CONSTRAINTS).run_task(root, 3)
        worker = _decode_result(
            codec, parallel._worker_run(_encode_task(codec, root), 3), root
        )
        assert worker.candidates == driver.candidates
        assert worker.deferred == driver.deferred
        assert driver.candidates and driver.deferred  # both lists exercised

    def test_inline_search_ships_no_instance(self):
        instance = DatabaseInstance.from_dict({"P": [("a", 1), ("a", 2)]})
        for workers in (0, 1):
            search = ParallelRepairSearch(instance, self.CONSTRAINTS, workers=workers)
            assert len(search.collect()) == 2
            assert search.statistics.instance_ship_bytes == 0

    def test_pool_rebuilds_nulls_and_ships_null_witnesses(self):
        instance = DatabaseInstance.from_dict(
            {
                "Course": [(21, "C15"), (34, "C18"), (NULL, "C20")],
                "Student": [(21, "Ann"), (45, NULL)],
            }
        )
        ric = [parse_constraint("Course(i, c) -> Student(i, n)")]
        search = ParallelRepairSearch(instance, ric, workers=2, chunk_states=1)
        try:
            found = search.collect()
        finally:
            search.close()
        assert found == ParallelRepairSearch(instance, ric).collect()
        assert any(
            NULL in fact.values for _, inserted, _ in found for fact in inserted
        )
        assert search.statistics.tasks_shipped > 1

    def test_pool_start_reports_the_payload_size(self):
        instance = DatabaseInstance.from_dict(
            {"P": [("a", 1), ("a", 2), ("b", 3), ("b", 4)]}
        )
        search = ParallelRepairSearch(instance, self.CONSTRAINTS, workers=2)
        try:
            found = search.collect()
        finally:
            search.close()
        assert found == ParallelRepairSearch(instance, self.CONSTRAINTS).collect()
        facts = tuple(instance.facts())
        assert search.statistics.instance_ship_bytes == len(
            pickle.dumps(facts, pickle.HIGHEST_PROTOCOL)
        )


class TestEndToEndShipAccounting:
    def test_pool_run_counts_shipments(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHIP_AUDIT", "1")
        instance = DatabaseInstance.from_dict(
            {"P": [("a", 1), ("a", 2), ("b", 3), ("b", 4)]}
        )
        constraints = [parse_constraint("P(x, y), P(x, z) -> y = z")]
        search = ParallelRepairSearch(
            instance, constraints, workers=2, chunk_states=4
        )
        try:
            seen = set()
            for batch in search.batches():
                seen.update(
                    (path, frozenset(ins), frozenset(dele))
                    for path, ins, dele in batch.candidates
                )
                if not batch.open_tasks:
                    break
            assert seen  # the FD conflicts have repairs
            stats = search.statistics
            assert stats.tasks_shipped > 0
            assert stats.task_ship_bytes > 0
            assert stats.task_ship_bytes_raw > stats.task_ship_bytes
        finally:
            search.close()
