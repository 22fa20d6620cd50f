"""The ``ConsistentDatabase`` session façade and the engine registry."""

from dataclasses import fields

import pytest

from repro import (
    CQAConfig,
    CQAEngine,
    ConsistentDatabase,
    available_engines,
    get_engine,
    register_engine,
)
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.cqa import (
    CQAResult,
    consistent_answers,
    consistent_answers_report,
    consistent_boolean_answer,
    is_consistent_answer,
)
from repro.core.repairs import REPAIR_METHODS
from repro.core.satisfaction import all_violations
from repro.obs import metrics
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.relational.schema import DatabaseSchema
from repro.rewriting import CQAPlan, RewritingUnsupportedError
from repro.workloads import grouped_key_workload, scenarios


RIC = parse_constraint("Course(i, c) -> Student(i, n)", name="course_fk")
QUERY = parse_query("ans(c) <- Course(i, c)")
DATA = {
    "Course": [(21, "C15"), (34, "C18")],
    "Student": [(21, "Ann"), (45, "Paul")],
}


def make_session(**kwargs) -> ConsistentDatabase:
    return ConsistentDatabase(DATA, [RIC], **kwargs)


@pytest.fixture
def plan_calls(monkeypatch):
    """The queries ``plan_cqa`` is asked to plan, in order."""

    import repro.rewriting

    calls = []
    original = repro.rewriting.plan_cqa
    monkeypatch.setattr(
        repro.rewriting, "plan_cqa", lambda *args: calls.append(args[1]) or original(*args)
    )
    return calls


class TestConstruction:
    def test_from_mapping(self):
        db = make_session()
        assert len(db) == 4
        assert Fact("Course", (21, "C15")) in db

    def test_from_instance_copies_by_default(self):
        original = DatabaseInstance.from_dict(DATA)
        db = ConsistentDatabase(original, [RIC])
        db.insert("Student", (34, "Zoe"))
        assert Fact("Student", (34, "Zoe")) not in original

    def test_copy_false_shares_the_instance(self):
        original = DatabaseInstance.from_dict(DATA)
        db = ConsistentDatabase(original, [RIC], copy=False)
        db.insert("Student", (34, "Zoe"))
        assert Fact("Student", (34, "Zoe")) in original

    def test_from_schema_starts_empty(self):
        schema = DatabaseSchema.from_dict({"Course": ["ID", "Code"]})
        db = ConsistentDatabase(schema, [])
        assert len(db) == 0
        db.insert("Course", (1, "C1"))
        assert len(db) == 1

    def test_bad_source_raises(self):
        with pytest.raises(TypeError):
            ConsistentDatabase(42, [RIC])

    def test_unknown_default_method_raises(self):
        with pytest.raises(ValueError, match="unknown CQA method"):
            make_session(method="quantum")


class TestMutation:
    def test_insert_and_delete_report_effect(self):
        db = make_session()
        assert db.insert("Student", (34, "Zoe")) is True
        assert db.insert("Student", (34, "Zoe")) is False
        assert db.delete("Student", (34, "Zoe")) is True
        assert db.delete("Student", (34, "Zoe")) is False

    def test_generation_advances_only_on_effective_mutations(self):
        db = make_session()
        before = db.generation
        db.insert("Student", (21, "Ann"))  # already present
        assert db.generation == before
        db.insert("Student", (34, "Zoe"))
        assert db.generation == before + 1

    def test_bulk_load_counts_new_facts(self):
        db = make_session()
        loaded = db.bulk_load({"Student": [(34, "Zoe"), (21, "Ann")]})
        assert loaded == 1

    def test_bulk_load_accepts_facts(self):
        db = make_session()
        assert db.bulk_load([Fact("Student", (34, "Zoe"))]) == 1

    def test_violations_stay_in_sync_with_full_recompute(self):
        db = make_session()
        assert not db.is_consistent()
        steps = [
            ("insert", Fact("Student", (34, "Zoe"))),
            ("insert", Fact("Course", (77, "C99"))),
            ("delete", Fact("Course", (77, "C99"))),
            ("delete", Fact("Student", (21, "Ann"))),
        ]
        for kind, fact in steps:
            (db.insert if kind == "insert" else db.delete)(fact)
            assert set(db.violations()) == set(
                all_violations(db.instance, db.constraints)
            )
        assert db.violation_count() == len(all_violations(db.instance, db.constraints))

    def test_tracker_is_built_once(self):
        db = make_session()
        db.is_consistent()
        db.insert("Student", (34, "Zoe"))
        db.consistent_answers(QUERY, method="direct")
        db.delete("Student", (34, "Zoe"))
        db.consistent_answers(QUERY, method="direct")
        assert db.statistics.tracker_rebuilds == 1

    def test_warm_session_never_sweeps_again(self):
        """Every repair search of a warm session starts from its tracker."""

        instance, constraints = grouped_key_workload(n_groups=3, group_size=2, n_clean=4)
        db = ConsistentDatabase(instance, constraints)
        query = parse_query("ans(e, d) <- Emp(e, d, s)")
        db.is_consistent()
        sweeps = metrics.registry().get("repro_tracker_sweeps_total")
        before = sweeps.value
        for row in (("w1", "dw", 1), ("w2", "dw", 2)):
            db.insert("Emp", row)
            db.consistent_answers(query, method="direct")
            db.insert("Emp", (row[0], "other", 3))
            db.repair_count()
            db.delete("Emp", (row[0], "other", 3))
            db.certain(query, row[:2], method="direct", anytime=True)
        assert sweeps.value == before
        assert db.statistics.tracker_rebuilds == 1

    def test_out_of_band_mutation_is_detected(self):
        original = DatabaseInstance.from_dict(DATA)
        db = ConsistentDatabase(original, [RIC], copy=False)
        assert not db.is_consistent()
        original.add(Fact("Student", (34, "Zoe")))  # behind the session's back
        assert db.is_consistent()
        assert db.statistics.tracker_rebuilds == 2


class TestBatch:
    def test_batch_commits(self):
        db = make_session()
        with db.batch():
            db.insert("Student", (34, "Zoe"))
            db.delete("Course", (21, "C15"))
        assert Fact("Student", (34, "Zoe")) in db
        assert Fact("Course", (21, "C15")) not in db
        assert db.is_consistent()

    def test_batch_rolls_back_on_error(self):
        db = make_session()
        answers_before = db.consistent_answers(QUERY)
        violations_before = set(db.violations())
        with pytest.raises(RuntimeError, match="boom"):
            with db.batch():
                db.insert("Student", (34, "Zoe"))
                db.delete("Course", (21, "C15"))
                raise RuntimeError("boom")
        assert Fact("Student", (34, "Zoe")) not in db
        assert Fact("Course", (21, "C15")) in db
        assert set(db.violations()) == violations_before
        assert db.consistent_answers(QUERY) == answers_before
        assert db.statistics.batches_rolled_back == 1

    def test_rollback_discards_a_tracker_first_built_mid_batch(self):
        # The tracker is built lazily; a query *inside* the batch builds
        # it with the batch's earlier (delta-less) mutations already in
        # the store.  Rollback cannot revert those, so it must discard
        # the tracker rather than leave ghost violations behind.
        db = ConsistentDatabase(
            {"Course": [(21, "C15")], "Student": [(21, "Ann")]}, [RIC]
        )
        with pytest.raises(RuntimeError, match="boom"):
            with db.batch():
                db.insert("Course", (99, "C99"))  # violating, pre-tracker
                assert not db.is_consistent()  # builds the tracker mid-batch
                raise RuntimeError("boom")
        assert Fact("Course", (99, "C99")) not in db
        assert db.is_consistent()
        assert db.violations() == []

    def test_batches_do_not_nest(self):
        db = make_session()
        with pytest.raises(RuntimeError, match="nest"):
            with db.batch():
                with db.batch():
                    pass


class TestQuerySurface:
    def test_matches_functional_api(self):
        db = make_session()
        expected = consistent_answers(DatabaseInstance.from_dict(DATA), [RIC], QUERY)
        for method in ("direct", "program", "rewriting", "auto", "sqlite"):
            assert db.consistent_answers(QUERY, method=method) == expected, method

    def test_certain_boolean_and_candidate(self):
        db = make_session()
        boolean = parse_query("ans() <- Course(i, c)")
        assert db.certain(boolean)
        assert db.certain(QUERY, candidate=("C15",))
        assert not db.certain(QUERY, candidate=("C18",))

    def test_certain_reads_a_cached_report_first(self, monkeypatch):
        from repro.engines.enumeration import DirectEngine

        db = make_session(method="direct")
        answers = db.consistent_answers(QUERY)

        def undecidable(*args):
            raise AssertionError("the cached report should answer")

        monkeypatch.setattr(DirectEngine, "certain", undecidable)
        assert db.certain(QUERY, ("C15",)) is (("C15",) in answers)
        assert db.certain(QUERY, ("C18",)) is (("C18",) in answers)
        db.insert("Student", (34, "Zoe"))  # a new generation: no report
        with pytest.raises(AssertionError, match="cached report"):
            db.certain(QUERY, ("C18",))

    def test_writes_replan_nothing(self, plan_calls):
        """The plan — independence, the rewriting, the route — is computed
        once per query, whatever the writes and the surfaces asking."""

        db = make_session()
        for step in range(3):
            db.insert("Student", (50 + step, "New"))
            assert db.explain(QUERY).method == "rewriting"
            assert db.explain(QUERY, method="direct").method == "direct"
            assert db.certain(QUERY, ("C15",))
            assert db.consistent_answers(QUERY, method="rewriting")
            assert db.report(QUERY).method == "rewriting"
        assert plan_calls == [QUERY]

    def test_report_is_cached_until_mutation(self):
        db = make_session()
        db.report(QUERY)
        hits_before = db.cache_info().hits
        db.report(QUERY)
        assert db.cache_info().hits > hits_before
        db.insert("Student", (34, "Zoe"))
        assert sorted(db.consistent_answers(QUERY)) == [("C15",), ("C18",)]

    def test_cached_report_copies_are_independent(self):
        db = make_session(method="direct")
        first = db.report(QUERY)
        first.repair_count = 999
        second = db.report(QUERY)
        assert second.repair_count == 2

    def test_iter_repairs_is_lazy_and_matches_engine(self, example_14):
        db = ConsistentDatabase(example_14.instance, example_14.constraints)
        iterator = db.iter_repairs()
        assert iter(iterator) is iterator  # a generator, not a list
        found = {repair.fact_set() for repair in iterator}
        assert found == {repair.fact_set() for repair in example_14.expected_repairs}
        assert {r.fact_set() for r in db.iter_repairs(method="program")} == found

    def test_production_and_naive_sessions_list_the_same_repairs(self, all_scenarios):
        for name, scenario in sorted(all_scenarios.items()):
            if not scenario.constraints.is_non_conflicting():
                continue
            lists = [
                ConsistentDatabase(
                    scenario.instance, scenario.constraints, repair_mode=mode
                ).repairs_list("direct", CQAConfig(repair_mode=mode))
                for mode in REPAIR_METHODS
            ]
            assert lists[0] == lists[1], name  # order included

    def test_cache_keeps_only_the_current_generation(self):
        """A write/query loop leaves no entry that can never hit again."""

        instance, constraints = grouped_key_workload(n_groups=2, group_size=2, n_clean=3)
        db = ConsistentDatabase(instance, constraints, method="auto")
        queries = [
            parse_query("ans(e) <- Emp(e, d, s)"),
            parse_query("ans(e, d) <- Emp(e, d, s), s > 0"),
        ]
        sizes = []
        for step in range(6):
            db.insert("Emp", (f"w{step}", "dw", step))
            for query in queries:
                db.consistent_answers(query)
                db.consistent_answers(query, method="direct")
            db.repair_count(method="program")
            db.conflict_graph()
            sizes.append(db.cache_info().size)
        generation_keyed = [
            key for key in db._cache._data
            if key[0] in ("answers", "repairs", "conflicts")
        ]
        assert generation_keyed
        assert all(db.generation in key for key in generation_keyed)
        # Plans depend on (constraints, query) alone: one per query, kept
        # across every generation.
        plans = [key for key in db._cache._data if key[0] == "plan"]
        assert len(plans) == len(queries)
        assert {key[1] for key in plans} == set(queries)
        assert len(set(sizes)) == 1  # nothing accumulates across generations
        assert db.cache_info().evictions == 0

    def test_iter_repairs_yields_independent_copies(self):
        db = make_session()
        repair = next(db.iter_repairs())
        for fact in list(repair.facts()):
            repair.discard(fact)
        assert all(len(r) > 0 for r in db.iter_repairs())

    def test_iter_repairs_rejects_non_enumerating_methods(self):
        db = make_session()
        with pytest.raises(ValueError, match="direct.*program"):
            next(db.iter_repairs(method="rewriting"))

    def test_repair_count(self):
        db = make_session()
        assert db.repair_count() == 2

    def test_explain_returns_a_plan_without_executing(self):
        db = make_session()
        plan = db.explain(QUERY)
        assert isinstance(plan, CQAPlan)
        assert plan.method == "rewriting"

    def test_unknown_override_key_raises(self):
        db = make_session()
        with pytest.raises(TypeError, match="unknown CQA option"):
            db.consistent_answers(QUERY, max_state=10)

    def test_session_defaults_flow_into_queries(self):
        db = make_session(method="direct", repair_mode="naive")
        report = db.report(QUERY)
        assert report.method == "direct"
        assert not report.repair_count_estimated
        assert report.repair_count == 2


class TestEngineRegistry:
    def test_builtin_engines_are_registered(self):
        assert set(available_engines()) >= {
            "direct",
            "program",
            "rewriting",
            "independent",
            "sqlite",
        }
        assert "auto" not in available_engines()  # a route, resolved by the plan

    def test_get_engine_unknown_name(self):
        with pytest.raises(ValueError, match="unknown CQA method"):
            get_engine("quantum")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_engine("direct")
            class Impostor(CQAEngine):
                def answers_report(self, session, query, config):
                    raise AssertionError

    def test_custom_engine_end_to_end(self):
        from repro.engines import base as engine_base

        @register_engine("everything-is-certain")
        class TrustingEngine(CQAEngine):
            def answers_report(self, session, query, config):
                answers = query.answers(session.instance)
                return CQAResult(
                    answers=answers, repair_count=-1, method=self.name,
                    repair_count_estimated=True,
                )

        try:
            db = make_session()
            got = db.consistent_answers(QUERY, method="everything-is-certain")
            assert got == frozenset({("C15",), ("C18",)})
            # ... and the functional wrapper reaches it through the same door.
            functional = consistent_answers(
                DatabaseInstance.from_dict(DATA), [RIC], QUERY,
                method="everything-is-certain",
            )
            assert functional == got
        finally:
            del engine_base._REGISTRY["everything-is-certain"]

    def test_sqlite_engine_agrees_with_rewriting(self):
        instance, constraints = grouped_key_workload(n_groups=3, group_size=2, n_clean=8)
        db = ConsistentDatabase(instance, constraints)
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        assert db.consistent_answers(query, method="sqlite") == db.consistent_answers(
            query, method="rewriting"
        )

    def test_sqlite_engine_handles_fact_less_predicates(self):
        # An inferred schema only knows relations with facts; the SQL
        # mirror must declare the missing ones as empty tables rather
        # than fail, and agree with the in-memory evaluator.
        db = ConsistentDatabase(
            {"R": [("a", "b")]},
            [parse_constraint("P(x, y) -> R(x, z)")],
        )
        query = parse_query("ans(x, y) <- P(x, y)")
        assert db.consistent_answers(query, method="sqlite") == frozenset()
        assert db.consistent_answers(query, method="direct") == frozenset()

    def test_sqlite_engine_raises_outside_the_fragment(self):
        scenario = scenarios.example_18()
        db = ConsistentDatabase(scenario.instance, scenario.constraints)
        with pytest.raises(RewritingUnsupportedError):
            db.consistent_answers(parse_query("ans(x) <- T(x)"), method="sqlite")


class TestConfigObject:
    def test_merged_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            CQAConfig().merged({"no_such_knob": 1})

    @pytest.mark.parametrize("knob", ["columnar", "codegen"])
    def test_removed_executor_knob_is_rejected(self, knob):
        """Every join runs on the generated row executor; no option selects
        another."""

        with pytest.raises(TypeError, match=knob):
            CQAConfig().merged({knob: False})
        with pytest.raises(TypeError, match=knob):
            ConsistentDatabase({"P": [("a",)]}, **{knob: False})
        db = ConsistentDatabase({"P": [("a",)]})
        with pytest.raises(TypeError, match=knob):
            db.consistent_answers(parse_query("ans(x) <- P(x)"), **{knob: False})

    def test_removed_estimate_knob_is_rejected(self):
        """Only ``report()`` returns a repair count, so no option turns the
        estimate on or off."""

        assert len(fields(CQAConfig)) == 8
        with pytest.raises(TypeError, match="estimate_repairs"):
            ConsistentDatabase(DATA, [RIC], estimate_repairs=False)
        db = make_session()
        for surface in (db.report, db.consistent_answers, db.certain):
            with pytest.raises(TypeError, match="estimate_repairs"):
                surface(QUERY, estimate_repairs=False)
        with pytest.raises(TypeError, match="estimate_repairs"):
            consistent_answers_report(
                DatabaseInstance.from_dict(DATA), [RIC], QUERY, estimate_repairs=True
            )

    def test_merged_is_a_copy(self):
        config = CQAConfig()
        merged = config.merged({"method": "direct"})
        assert config.method == "auto"
        assert merged.method == "direct"


class TestFunctionalWrappers:
    def test_report_plan_is_typed(self):
        instance = DatabaseInstance.from_dict(DATA)
        report = consistent_answers_report(instance, [RIC], QUERY, method="auto")
        assert isinstance(report.plan, CQAPlan)

    def test_is_consistent_answer_threads_repair_mode(self):
        instance = DatabaseInstance.from_dict(DATA)
        for mode in REPAIR_METHODS:
            assert is_consistent_answer(
                instance, [RIC], QUERY, ("C15",), repair_mode=mode
            )
            assert not is_consistent_answer(
                instance, [RIC], QUERY, ("C18",), repair_mode=mode
            )

    def test_consistent_boolean_answer_threads_repair_mode(self):
        instance = DatabaseInstance.from_dict(DATA)
        boolean = parse_query("ans() <- Student(i, n), Course(i, c)")
        for mode in REPAIR_METHODS:
            assert consistent_boolean_answer(
                instance, [RIC], boolean, repair_mode=mode
            )

    def test_sqlite_method_via_functional_api(self):
        instance, constraints = grouped_key_workload(n_groups=2, group_size=2, n_clean=5)
        query = parse_query("ans(e) <- Emp(e, d, s)")
        assert consistent_answers(
            instance, constraints, query, method="sqlite"
        ) == consistent_answers(instance, constraints, query, method="direct")


class TestNullHandling:
    def test_null_is_unknown_override(self):
        db = ConsistentDatabase(
            {"P": [("a", NULL), ("b", "c")]},
            [],
        )
        query = parse_query("ans(x) <- P(x, y), y != 'c'")
        strict = db.consistent_answers(query, null_is_unknown=True)
        liberal = db.consistent_answers(query, null_is_unknown=False)
        assert strict == frozenset()
        assert liberal == frozenset({("a",)})

    def test_sqlite_engine_honours_both_null_conventions(self):
        # null != 'c' holds when null is an ordinary constant and is
        # unknown under SQL's three-valued logic; the SQLite push-down
        # must agree with the in-memory engines under both conventions.
        db = ConsistentDatabase({"P": [("a", NULL), ("b", "c"), (NULL, "d")]}, [])
        for text in ("ans(x) <- P(x, y), y != 'c'", "ans(y) <- P(x, y), x = null"):
            query = parse_query(text)
            for flag in (False, True):
                assert db.consistent_answers(
                    query, method="sqlite", null_is_unknown=flag
                ) == db.consistent_answers(
                    query, method="direct", null_is_unknown=flag
                ), (text, flag)

    def test_functional_sqlite_call_does_not_mutate_the_callers_schema(self):
        instance = DatabaseInstance.from_dict({"Course": [(1, "C1")]})
        assert "Student" not in instance.schema
        consistent_answers(
            instance, [RIC], parse_query("ans(c) <- Course(i, c)"), method="sqlite"
        )
        assert "Student" not in instance.schema


class TestCompiledPlans:
    """The session's compiled plans (the E15 compile-once contract)."""

    def test_session_compiles_each_constraint_set_at_most_once(self):
        # Mirrors the E13 "exactly one tracker build" smoke check: over a
        # session's whole lifetime — construction, queries, mutations,
        # repairs — the compiler runs at most once for its constraint set.
        from repro.compile.kernel import compiler_statistics

        constraints = [
            parse_constraint(
                "SessionCompileOnce(a, b), SessionCompileOnce(a, c) -> b = c"
            ),
            parse_constraint("SessionCompileOnce(a, b) -> SessionRefTarget(b, z)"),
        ]
        before = compiler_statistics().snapshot()
        db = ConsistentDatabase(
            {"SessionCompileOnce": [("k", 1), ("k", 2)]}, constraints
        )
        query = parse_query("ans(a) <- SessionCompileOnce(a, b)")
        db.is_consistent()
        for _ in range(3):
            db.consistent_answers(query, method="direct")
        db.insert("SessionCompileOnce", ("k2", 7))
        db.delete("SessionCompileOnce", ("k2", 7))
        db.consistent_answers(query, method="direct")
        list(db.iter_repairs())
        after = compiler_statistics()
        assert after.programs_compiled - before.programs_compiled <= 1
        assert (
            after.constraints_compiled - before.constraints_compiled
            <= len(constraints)
        )

    def test_violation_index_carries_the_program(self):
        db = make_session()
        program = db.compiled_program()
        assert program.constraints == (RIC,)
        assert db._violation_index.program is program
        db.insert("Student", (34, "Zoe"))  # the plans do not depend on the data
        assert db.compiled_program() is program

    def test_the_program_is_no_cache_entry(self):
        """Reading the plans is an attribute read: no LRU probe, no entry."""

        db = make_session()
        db.compiled_program()
        assert (db.cache_info().hits, db.cache_info().misses) == (0, 0)
        db.consistent_answers(QUERY, method="direct")
        db.insert("Student", (34, "Zoe"))
        db.consistent_answers(QUERY, method="direct")
        assert db.cache_info().hits == 0
        assert {key[0] for key in db._cache._data} == {"answers", "repairs"}


class TestRequestReadSet:
    """A request reads only the relations its query names.

    Each repair shares every untouched relation with the base instance,
    so evaluating the query on it must not touch relations the query and
    the constraints never mention — nor may the independence route.
    """

    KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    DATA = {
        "Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "ops"), ("e2", "it")],
        "Log": [("u1", "login"), ("u2", "logout")],
    }

    @pytest.fixture
    def reads(self, monkeypatch):
        seen = []
        rows = DatabaseInstance.rows
        matching = DatabaseInstance.tuples_matching

        def recording_rows(instance, predicate):
            seen.append(predicate)
            return rows(instance, predicate)

        def recording_matching(instance, predicate, bound):
            seen.append(predicate)
            return matching(instance, predicate, bound)

        monkeypatch.setattr(DatabaseInstance, "rows", recording_rows)
        monkeypatch.setattr(DatabaseInstance, "tuples_matching", recording_matching)
        return seen

    def test_direct_enumeration_reads_only_the_queried_relation(self, reads):
        db = ConsistentDatabase(self.DATA, [self.KEY])
        query = parse_query("ans(e, d) <- Emp(e, d)")
        db.consistent_answers(query, method="direct")
        db.insert("Emp", ("e3", "hr"))
        reads.clear()
        assert db.consistent_answers(query, method="direct") == {("e3", "hr")}
        assert set(reads) == {"Emp"}

    @pytest.mark.parametrize(
        "route",
        [
            {"method": "direct", "repair_mode": "naive"},
            {"method": "program"},
            {"method": "rewriting"},
            {"method": "direct", "candidate": ("e3", "hr")},
            {"method": "direct", "candidate": ("e1", "hr"), "anytime": True},
        ],
        ids=["naive-search", "program", "rewriting", "certain", "certain-anytime"],
    )
    def test_every_route_reads_only_the_queried_relation(self, reads, route):
        route = dict(route)
        db = ConsistentDatabase(self.DATA, [self.KEY])
        query = parse_query("ans(e, d) <- Emp(e, d)")
        if "candidate" in route:
            candidate = route.pop("candidate")
            ask = lambda: db.certain(query, candidate, **route)  # noqa: E731
            expected = candidate == ("e3", "hr")
        else:
            ask = lambda: db.consistent_answers(query, **route)  # noqa: E731
            expected = {("e3", "hr")}
        ask()
        db.insert("Emp", ("e3", "hr"))
        reads.clear()
        assert ask() == expected
        assert set(reads) == {"Emp"}

    def test_independent_route_reads_only_the_queried_relation(self, reads):
        db = ConsistentDatabase(self.DATA, [self.KEY])
        query = parse_query("ans(u) <- Log(u, a)")
        db.insert("Log", ("u3", "login"))
        assert db.explain(query).method == "independent"
        reads.clear()
        assert db.consistent_answers(query, method="auto") == {
            ("u1",),
            ("u2",),
            ("u3",),
        }
        assert set(reads) == {"Log"}


class TestStaticPlan:
    """The plan is a function of (constraints, query): no write re-plans,
    and no request but ``report()`` builds a conflict graph."""

    CHECK = parse_constraint("Emp(e, d, s) -> s > 0")

    @pytest.fixture
    def graph_builds(self, monkeypatch):
        from repro.rewriting.conflicts import ConflictGraph

        builds = []
        build = ConflictGraph.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(ConflictGraph, "build", classmethod(counting))
        return builds

    def test_requests_outside_the_fragment_build_no_conflict_graph(
        self, graph_builds, plan_calls
    ):
        instance, constraints = grouped_key_workload(n_groups=2, group_size=3, n_clean=4)
        db = ConsistentDatabase(instance, [*constraints, self.CHECK])
        clean = next(fact for fact in instance.facts() if fact.values[0] == "e0")
        asked = {
            parse_query("ans(e, d) <- Emp(e, d, s)"): clean.values[:2],
            parse_query("ans(e) <- Emp(e, d, s)"): clean.values[:1],
        }
        for step in range(4):
            db.insert("Emp", (f"w{step}", "dw", step + 1))
            for query, candidate in asked.items():
                assert db.explain(query).method == "direct"
                assert db.consistent_answers(query)
                assert db.certain(query, candidate, anytime=True)
            assert db.repair_count() == 9
        assert graph_builds == []
        assert plan_calls == list(asked)  # once per query, across four writes

    def test_report_estimates_once_per_generation(self, graph_builds, monkeypatch):
        from repro.rewriting.conflicts import ConflictGraph

        estimated = []
        estimate = ConflictGraph.estimated_repair_count
        monkeypatch.setattr(
            ConflictGraph, "estimated_repair_count",
            lambda graph: estimated.append(graph) or estimate(graph),
        )
        instance, constraints = grouped_key_workload(n_groups=3, group_size=2, n_clean=4)
        db = ConsistentDatabase(instance, constraints)
        query = parse_query("ans(e) <- Emp(e, d, s)")
        estimates = []
        for step in range(4):
            counts = {
                db.report(query, method=method).repair_count
                for method in ("auto", "rewriting", "sqlite", "rewriting")
            }
            assert len(counts) == 1
            estimates.append(counts.pop())
            assert len(graph_builds) == step + 1
            # Once per cached report: auto shares the rewriting's.
            assert len(estimated) == 2 * (step + 1)
            db.insert("Emp", ("g0", f"extra{step}", step + 1))
        # The conflict-graph estimates the planner-era report returned.
        assert estimates == [8, 8, 16, 24]

    def test_the_estimate_is_traced(self):
        db = make_session()
        report = db.explain(QUERY, analyze=True)
        (estimate,) = [span for span in report.trace.children if span.name == "conflicts.estimate"]
        assert [span.name for span in estimate.children] == ["conflicts.build"]
        assert report.result.repair_count == 2
        assert "~2 repairs estimated, none enumerated" in report.render()

    @pytest.mark.parametrize("method", ["auto", "rewriting", "direct", "sqlite"])
    def test_one_engine_call_serves_every_surface(self, monkeypatch, method):
        calls = []
        route = make_session().plan(QUERY).method if method == "auto" else method
        engine = type(get_engine(route))
        for name in ("answers_report", "certain"):
            original = getattr(engine, name)

            def counting(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(engine, name, counting)
        db = make_session(method=method)
        report = db.report(QUERY)
        assert db.consistent_answers(QUERY) == report.answers
        assert db.certain(QUERY, ("C15",)) is True
        assert calls == ["answers_report"]

    def test_only_report_returns_a_repair_count(self, graph_builds):
        db = make_session()
        result = db.report_with(QUERY, db.config)
        assert result.repair_count_estimated and result.repair_count == -1
        assert graph_builds == []
        assert db.report(QUERY).repair_count == 2
        assert len(graph_builds) == 1


class TestAutoSharesItsRoute:
    """``method="auto"`` and the engine its plan names share one answer entry."""

    KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    QUERY = parse_query("ans(e) <- Emp(e, d)")

    @pytest.fixture
    def rewriting_calls(self, monkeypatch):
        from repro.engines.rewriting import RewritingEngine

        calls = []
        original = RewritingEngine.answers_report

        def counting(self, *args):
            calls.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(RewritingEngine, "answers_report", counting)
        return calls

    def make(self):
        return ConsistentDatabase(
            {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]}, [self.KEY]
        )

    def test_auto_then_its_route_runs_the_rewriting_once(self, rewriting_calls):
        db = self.make()
        assert db.plan(self.QUERY).method == "rewriting"
        auto = db.consistent_answers(self.QUERY)
        assert db.consistent_answers(self.QUERY, method="rewriting") == auto
        assert db.certain(self.QUERY, ("e2",), method="rewriting") is True
        assert len(rewriting_calls) == 1

    def test_the_route_then_auto_runs_the_rewriting_once(self, rewriting_calls):
        db = self.make()
        db.report(self.QUERY, method="rewriting")
        db.certain(self.QUERY, ("e1",))
        db.report(self.QUERY)
        assert len(rewriting_calls) == 1
        db.insert("Emp", ("e3", "ops"))  # a new generation asks again, once
        db.consistent_answers(self.QUERY)
        db.consistent_answers(self.QUERY, method="rewriting")
        assert len(rewriting_calls) == 2

    def test_only_an_auto_report_carries_the_plan(self):
        db = self.make()
        assert db.report(self.QUERY, method="rewriting").plan is None
        auto = db.report(self.QUERY)
        assert auto.plan is db.plan(self.QUERY)
        assert auto.method == "rewriting"
        assert db.report(self.QUERY, method="rewriting").plan is None
        assert db.report_with(self.QUERY, db.config).plan is None  # the cached entry


class TestExplainUnderARequestedMethod:
    KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    QUERY = parse_query("ans(e) <- Emp(e, d)")

    def make(self):
        return ConsistentDatabase({"Emp": [("e1", "sales"), ("e1", "hr")]}, [self.KEY])

    def test_the_plan_names_the_route_that_runs(self):
        db = self.make()
        plan = db.explain(self.QUERY, method="direct")
        assert plan.method == "direct"
        assert "requested" in plan.reason
        assert plan.supported and plan.unsupported_reason is None
        auto = db.explain(self.QUERY)
        assert auto.method == "rewriting"
        assert "requested" not in auto.reason
        assert db.explain(self.QUERY, method="auto") == auto

    def test_requested_routes_keep_the_fragment_facts(self):
        db = ConsistentDatabase(
            {"Emp": [("e1", "sales", 1)]},
            [parse_constraint("Emp(e, d, s), Emp(e, f, t) -> d = f"),
             parse_constraint("Emp(e, d, s) -> s > 0")],
        )
        query = parse_query("ans(e) <- Emp(e, d, s)")
        plan = db.explain(query, method="rewriting")
        assert plan.method == "rewriting"
        assert not plan.supported
        assert plan.unsupported_diagnostic.clause == "check-on-keyed-predicate"
        assert plan.independence is None
        with pytest.raises(RewritingUnsupportedError):
            db.report(query, method="rewriting")

    def test_explain_analyze_renders_the_requested_route(self):
        db = self.make()
        report = db.explain(self.QUERY, analyze=True, method="direct")
        assert report.result.method == "direct"
        assert report.plan.method == "direct"
        rendered = report.render()
        assert "Plan: direct" in rendered
        assert "requested" in rendered
        auto = db.explain(self.QUERY, analyze=True)
        assert auto.result.method == auto.plan.method == "rewriting"
