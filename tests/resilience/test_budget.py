"""Unit tests of the Budget/Degradation machinery and the error taxonomy."""

import threading

import pytest

from repro.errors import (
    BUDGET_ERRORS,
    BudgetExceededError,
    DeadlineExceededError,
    MemoryBudgetExceededError,
    QueryCancelledError,
    ReproError,
    StateBudgetExceededError,
    budget_error,
)
from repro.resilience import NULL_BUDGET, Budget, Degradation, active, using_budget
from repro.resilience import budget as budget_module


class TestErrorTaxonomy:
    def test_budget_errors_are_runtime_errors(self):
        # Pre-existing `except RuntimeError` handlers must keep working.
        for cls in BUDGET_ERRORS.values():
            assert issubclass(cls, BudgetExceededError)
            assert issubclass(cls, RuntimeError)
            assert issubclass(cls, ReproError)

    def test_reason_to_class_mapping(self):
        assert BUDGET_ERRORS["deadline"] is DeadlineExceededError
        assert BUDGET_ERRORS["states"] is StateBudgetExceededError
        assert BUDGET_ERRORS["memory"] is MemoryBudgetExceededError
        assert BUDGET_ERRORS["cancelled"] is QueryCancelledError

    def test_budget_error_factory(self):
        error = budget_error("deadline", "too slow")
        assert isinstance(error, DeadlineExceededError)
        assert error.reason == "deadline"
        assert "too slow" in str(error)

    def test_budget_error_factory_unknown_reason(self):
        error = budget_error("novel", "what happened")
        assert isinstance(error, BudgetExceededError)


class TestBudget:
    def test_truthy_and_null_falsy(self):
        assert Budget()
        assert not NULL_BUDGET

    def test_state_budget(self):
        budget = Budget(max_states=3)
        budget.charge_states(3)
        assert budget.exhausted() is None  # the cap itself is within budget
        budget.charge_states(1)
        assert budget.exhausted() == "states"
        with pytest.raises(StateBudgetExceededError):
            budget.checkpoint()

    def test_memory_budget(self):
        budget = Budget(max_memory=100)
        budget.charge_memory(100)
        assert budget.exhausted() is None
        budget.charge_memory(1)
        assert budget.exhausted() == "memory"
        with pytest.raises(MemoryBudgetExceededError):
            budget.checkpoint()

    def test_deadline(self):
        budget = Budget(deadline=1e-9)
        # Anything measurable has elapsed by now.
        assert budget.exhausted() == "deadline"
        with pytest.raises(DeadlineExceededError):
            budget.checkpoint()

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            Budget(deadline=0)
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)

    def test_unlimited_budget_never_exhausts(self):
        budget = Budget()
        budget.charge_states(10**9)
        budget.charge_memory(10**12)
        assert budget.exhausted() is None
        budget.checkpoint()  # does not raise

    def test_cancel_wins_priority(self):
        budget = Budget(deadline=1e-9, max_states=0)
        budget.charge_states(1)
        budget.cancel()
        assert budget.exhausted() == "cancelled"
        with pytest.raises(QueryCancelledError):
            budget.checkpoint()

    def test_cancel_from_another_thread(self):
        budget = Budget()
        thread = threading.Thread(target=budget.cancel)
        thread.start()
        thread.join()
        assert budget.exhausted() == "cancelled"

    def test_remaining_seconds_never_negative(self):
        budget = Budget(deadline=1e-9)
        assert budget.remaining_seconds() == 0.0
        assert Budget().remaining_seconds() is None

    def test_error_carries_reason(self):
        budget = Budget(max_states=0)
        budget.charge_states(1)
        error = budget.error()
        assert isinstance(error, StateBudgetExceededError)
        assert "1" in str(error)


class TestDegradation:
    def test_record_snapshot(self):
        budget = Budget(max_states=2, degrade=True)
        budget.charge_states(5)
        record = budget.degradation(proven=3, detail="stopped early")
        assert record.reason == "states"
        assert record.states_explored == 5
        assert record.proven == 3
        assert record.max_states == 2
        assert "stopped early" in record.render()

    def test_render_mentions_limit(self):
        record = Degradation(reason="deadline", deadline=0.5, states_explored=10)
        assert "deadline" in record.render()
        assert "0.5s" in record.render()


class TestAmbientBudget:
    def test_default_is_null(self):
        assert active() is NULL_BUDGET

    def test_install_and_restore(self):
        budget = Budget(max_states=1)
        with using_budget(budget) as installed:
            assert installed is budget
            assert active() is budget
        assert active() is NULL_BUDGET

    def test_none_installs_nothing(self):
        with using_budget(None):
            assert active() is NULL_BUDGET
        outer = Budget()
        with using_budget(outer):
            with using_budget(None):
                assert active() is outer

    def test_nesting_shadows_and_restores(self):
        outer, inner = Budget(), Budget()
        with using_budget(outer):
            with using_budget(inner):
                assert active() is inner
            assert active() is outer

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with using_budget(Budget()):
                raise RuntimeError("boom")
        assert active() is NULL_BUDGET

    def test_null_budget_is_complete_no_op(self):
        NULL_BUDGET.charge_states(5)
        NULL_BUDGET.charge_memory(5)
        NULL_BUDGET.cancel()
        NULL_BUDGET.checkpoint()
        assert NULL_BUDGET.exhausted() is None
        assert NULL_BUDGET.remaining_seconds() is None
        assert NULL_BUDGET.elapsed() == 0.0

    def test_hot_loops_see_ambient_budget(self):
        # The kernel/search pattern: fetch once, falsy-check per use.
        seen = []
        with using_budget(Budget(max_states=1)):
            budget = budget_module.active()
            if budget:
                seen.append(budget)
        assert len(seen) == 1
