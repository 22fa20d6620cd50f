"""Session-level budget semantics: strict raises, degrade flags partials.

The contract under test:

* exact surfaces (``report``, ``consistent_answers``, ``collect``)
  never return a silently partial answer — a budget running out raises
  the typed error whatever the ``degrade`` flag says, in the search and
  in the ``≤_D`` filter after it;
* the streaming surfaces (``iter_repairs(stream=True)``, anytime
  ``certain``) degrade soundly: everything yielded carries its usual
  minimality proof, the truncation is flagged on
  ``session.last_degradation``, and nothing partial is ever cached as
  the complete answer.
"""

import pytest

from repro import ConsistentDatabase, parse_constraint, parse_query
from repro.core.cqa import consistent_answers_report
from repro.core.parallel import ParallelRepairSearch
from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueryCancelledError,
    StateBudgetExceededError,
)
from repro.relational.instance import DatabaseInstance
from repro.resilience import Budget, using_budget

KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")


def wide_instance(pairs=8):
    """2^pairs repairs: plenty of frontier for any budget to truncate."""

    return {"Emp": [(f"e{i}", d) for i in range(pairs) for d in ("a", "b")]}


class TestStrictSurfaces:
    def test_report_deadline_raises_typed_error(self):
        db = ConsistentDatabase(wide_instance(), [KEY], method="direct")
        with pytest.raises(DeadlineExceededError):
            db.report(parse_query("ans(e) <- Emp(e, d)"), deadline=1e-9)

    def test_functional_wrapper_threads_deadline(self):
        instance = DatabaseInstance.from_dict(wide_instance())
        with pytest.raises(DeadlineExceededError):
            consistent_answers_report(
                instance, [KEY], parse_query("ans(e) <- Emp(e, d)"),
                method="direct", deadline=1e-9,
            )

    @pytest.mark.parametrize("anytime", [False, True])
    @pytest.mark.parametrize("method", ["rewriting", "auto"])
    def test_a_rewriting_decision_answers_to_the_request_budget(self, method, anytime):
        """Only the direct engine's anytime stream carries its own budget:
        a decision routed to the rewriting checks the request budget in its
        compiled join, whether the deadline is the session's or the call's."""

        instance = {**wide_instance(), "Tag": [(f"e{i}", "t") for i in range(8)]}
        query = parse_query("ans(e, l) <- Emp(e, d), Tag(e, l)")
        db = ConsistentDatabase(instance, [KEY])
        assert db.explain(query).method == "rewriting"
        with pytest.raises(DeadlineExceededError):
            db.certain(query, ("e0", "t"), method=method, anytime=anytime, deadline=1e-9)
        db = ConsistentDatabase(instance, [KEY], deadline=1e-9)
        with pytest.raises(DeadlineExceededError):
            db.certain(query, ("e0", "t"), method=method, anytime=anytime)
        assert ConsistentDatabase(instance, [KEY]).certain(
            query, ("e0", "t"), method=method, anytime=anytime
        )

    def test_stream_without_degrade_raises_on_state_cap(self):
        db = ConsistentDatabase(wide_instance(), [KEY], repair_mode="parallel")
        with pytest.raises(RuntimeError):  # RepairSearchBudgetExceeded
            list(db.iter_repairs(stream=True, max_states=5))

    def test_collect_refuses_degraded_frontier(self):
        instance = DatabaseInstance.from_dict(wide_instance())
        budget = Budget(max_states=5, degrade=True)
        search = ParallelRepairSearch(
            instance, [KEY], max_states=None, budget=budget
        )
        with pytest.raises(BudgetExceededError):
            search.collect()

    def test_cancellation_raises(self):
        db = ConsistentDatabase(wide_instance(4), [KEY], method="direct")
        budget = Budget()
        budget.cancel()
        with using_budget(budget):
            with pytest.raises(QueryCancelledError):
                db.report(parse_query("ans(e) <- Emp(e, d)"))

    def test_cancel_budget_helper(self):
        db = ConsistentDatabase(wide_instance(2), [KEY])
        assert db.cancel_budget() is False  # nothing active
        with using_budget(Budget()):
            assert db.cancel_budget() is True

    def test_error_survives_legacy_except_clauses(self):
        db = ConsistentDatabase(wide_instance(), [KEY], method="direct")
        with pytest.raises(RuntimeError):
            db.report(parse_query("ans(e) <- Emp(e, d)"), deadline=1e-9)


class TestMinimalityBudget:
    """The ``≤_D`` filter answers to the request budget too: it is
    quadratic in the candidates, so a budget spent after the search
    returned must still stop it."""

    def test_a_budget_spent_after_the_search_stops_the_filter(self, monkeypatch):
        from repro.core.repairs import RepairEngine

        budget = Budget()
        collect = ParallelRepairSearch.collect

        def collect_then_cancel(search):
            found = collect(search)
            budget.cancel()
            return found

        monkeypatch.setattr(ParallelRepairSearch, "collect", collect_then_cancel)
        instance = DatabaseInstance.from_dict(wide_instance(4))
        engine = RepairEngine([KEY])
        with using_budget(budget), pytest.raises(QueryCancelledError):
            engine.repairs(instance)
        assert engine.statistics.candidates_found == 16


class TestDegradedStream:
    def test_partial_stream_is_flagged(self):
        db = ConsistentDatabase(wide_instance(), [KEY], repair_mode="parallel")
        partial = list(db.iter_repairs(stream=True, max_states=5, degrade=True))
        record = db.last_degradation
        assert record is not None
        assert record.reason == "states"
        assert record.proven == len(partial)
        assert record.states_explored > 0
        assert "frontier" in record.detail

    def test_degraded_run_does_not_pollute_cache(self):
        db = ConsistentDatabase({"Emp": [("e1", "a"), ("e1", "b")]}, [KEY],
                                repair_mode="parallel")
        partial = list(db.iter_repairs(stream=True, max_states=1, degrade=True))
        full = list(db.iter_repairs(stream=True))
        assert len(full) == 2
        assert len(partial) < len(full)

    def test_yielded_repairs_are_sound(self):
        # Whatever a degraded stream yields must be in the exact repair set.
        db = ConsistentDatabase(wide_instance(4), [KEY], repair_mode="parallel")
        exact = {
            frozenset(r.facts())
            for r in ConsistentDatabase(wide_instance(4), [KEY]).iter_repairs()
        }
        for budget in (1, 5, 20, 100):
            dbp = ConsistentDatabase(wide_instance(4), [KEY],
                                     repair_mode="parallel")
            for repair in dbp.iter_repairs(stream=True, max_states=budget,
                                           degrade=True):
                assert frozenset(repair.facts()) in exact

    def test_complete_run_resets_degradation(self):
        db = ConsistentDatabase({"Emp": [("e1", "a"), ("e1", "b")]}, [KEY],
                                repair_mode="parallel")
        list(db.iter_repairs(stream=True, max_states=1, degrade=True))
        assert db.last_degradation is not None
        db.insert("Emp", ("e9", "z"))  # new generation: bypass the cache
        list(db.iter_repairs(stream=True, degrade=True))
        assert db.last_degradation is None

    def test_session_default_degrade_knob(self):
        db = ConsistentDatabase(wide_instance(), [KEY], repair_mode="parallel",
                                max_states=5, degrade=True)
        list(db.iter_repairs(stream=True))
        assert db.last_degradation is not None


class TestAnytimeCertainDegrade:
    def test_degraded_certain_returns_best_known_and_flags(self):
        db = ConsistentDatabase(wide_instance(), [KEY], method="direct",
                                repair_mode="parallel")
        query = parse_query("ans(e) <- Emp(e, d)")
        outcome = db.certain(query, ("e0",), anytime=True, max_states=5,
                             degrade=True)
        assert outcome is True
        assert db.last_degradation is not None

    def test_refutation_beats_degradation(self):
        # A counterexample found inside the budget is exact, not degraded.
        db = ConsistentDatabase(wide_instance(), [KEY], method="direct",
                                repair_mode="parallel")
        query = parse_query("ans(d) <- Emp(e, d)")
        assert db.certain(query, ("a",), anytime=True, degrade=True) is False


class TestDeadlineLatency:
    def test_deadline_capped_stream_finishes_within_twice_the_deadline(self):
        # The acceptance bound: a deadline-capped run returns (degraded or
        # not) within 2x the requested wall-clock deadline.
        from repro.obs import clock

        deadline = 0.5
        db = ConsistentDatabase(wide_instance(12), [KEY],
                                repair_mode="parallel")
        started = clock.now()
        list(db.iter_repairs(stream=True, deadline=deadline, degrade=True))
        elapsed = clock.now() - started
        assert elapsed < 2 * deadline, (
            f"deadline-capped stream took {elapsed:.2f}s for a {deadline}s deadline"
        )

    def test_the_program_route_answers_to_its_deadline(self):
        # gen-0-1241: the stable-model search visits about 95,000 nodes and
        # runs about 47,500 stable-model checks, so it must check the
        # request budget per node, not only while grounding.
        from repro.explore.registry import child_seed
        from repro.obs import clock
        from repro.workloads.generators import random_scenario

        case = random_scenario(child_seed(0, 1241), allow_cyclic_rics=False)
        db = case.session()
        started = clock.now()
        with pytest.raises(DeadlineExceededError):
            db.consistent_answers(case.query, method="program", deadline=0.5)
        elapsed = clock.now() - started
        assert elapsed < 2.0, f"the program route took {elapsed:.2f}s for a 0.5s deadline"
