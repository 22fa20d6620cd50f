"""repro.compile.codegen: generated executors, caching and the enable gates."""

import pytest

from repro.compile import codegen
from repro.compile.kernel import compiled_constraint, compiled_query
from repro.compile.plans import iter_plan_matches
from repro.constraints.parser import parse_constraint, parse_query
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance


FD = "Emp(e, d, s), Emp(e, f, t) -> d = f"


def _instance():
    return DatabaseInstance.from_dict(
        {
            "Emp": [
                ("a", "sales", 1),
                ("a", "hr", 2),
                ("b", "sales", 3),
                ("c", NULL, 4),
            ]
        }
    )


def _run(plan, executor, instance, seed_row=None):
    """Every match an executor yields, as (slots, rows) snapshots."""

    slots = [None] * plan.n_slots
    rows = [None] * plan.n_atoms
    return [
        (tuple(slots), tuple(rows))
        for _ in executor(instance, slots, rows, seed_row=seed_row)
    ]


class TestEnableGates:
    def test_env_flag_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        assert not codegen.enabled()
        with codegen.overridden(True):
            assert not codegen.enabled()

    def test_overridden_is_scoped_and_restores(self):
        assert codegen.enabled()
        with codegen.overridden(False):
            assert not codegen.enabled()
            with codegen.overridden(True):
                assert codegen.enabled()
            assert not codegen.enabled()
        assert codegen.enabled()

    def test_overridden_none_is_a_no_op(self):
        with codegen.overridden(None):
            assert codegen.enabled()

    def test_set_enabled_flips_the_default(self):
        try:
            codegen.set_enabled(False)
            assert not codegen.enabled()
            with codegen.overridden(True):
                assert codegen.enabled()
        finally:
            codegen.set_enabled(True)
        assert codegen.enabled()


class TestMatcherCaching:
    def test_generated_executor_is_cached_on_the_plan(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        first = codegen.matcher(plan)
        assert codegen.matcher(plan) is first
        assert hasattr(first, "__repro_source__")

    def test_disabled_matcher_is_the_interpreter(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        with codegen.overridden(False):
            fallback = codegen.matcher(plan)
            assert codegen.matcher(plan) is fallback
        assert fallback.func is iter_plan_matches
        assert fallback.args == (plan,)

    def test_statistics_count_each_plan_once(self):
        constraint = parse_constraint("Uniq(u, v), Uniq(u, w) -> v = w")
        plan = compiled_constraint(constraint).full_plan
        before = codegen.codegen_statistics().plans_generated
        codegen.matcher(plan)
        after_first = codegen.codegen_statistics().plans_generated
        codegen.matcher(plan)
        assert codegen.codegen_statistics().plans_generated == after_first
        assert after_first >= before


class TestGeneratedSource:
    def test_source_structure(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        source = codegen.generated_source(plan)
        assert source.startswith("def _plan_matches(")
        # Two body atoms unroll to two nested loops over the same relation.
        assert source.count("in _tm(") == 2
        # One budget checkpoint per join descent, like the interpreter.
        assert "_budget.checkpoint()" in source
        assert "yield" in source

    def test_constants_inline_through_the_namespace(self):
        plan = compiled_constraint(
            parse_constraint("T(x, 'fixed') -> false")
        ).full_plan
        source = codegen.generated_source(plan)
        assert "_k0" in source or "probe" in source

    def test_query_plans_generate_too(self):
        plan = compiled_query(parse_query("ans(e) <- Emp(e, d, s)")).plan
        assert "def _plan_matches(" in codegen.generated_source(plan)


class TestExecutorEquivalence:
    def test_full_plan_matches_the_interpreter(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        instance = _instance()
        generated = _run(plan, codegen.matcher(plan), instance)
        interpreted = _run(
            plan, lambda *a, **k: iter_plan_matches(plan, *a, **k), instance
        )
        assert generated == interpreted
        assert generated  # the instance has an FD conflict

    def test_seed_plans_match_the_interpreter(self):
        unit = compiled_constraint(parse_constraint(FD))
        instance = _instance()
        for seed_plan in unit.seed_plans.values():
            for fact in instance.facts():
                generated = _run(
                    seed_plan, codegen.matcher(seed_plan), instance, seed_row=fact.values
                )
                interpreted = _run(
                    seed_plan,
                    lambda *a, **k: iter_plan_matches(seed_plan, *a, **k),
                    instance,
                    seed_row=fact.values,
                )
                assert generated == interpreted

    def test_missing_relation_yields_nothing(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        without_emp = DatabaseInstance.from_dict({"Dept": [("sales",)]})
        assert _run(plan, codegen.matcher(plan), without_emp) == []
        assert (
            _run(plan, lambda *a, **k: iter_plan_matches(plan, *a, **k), without_emp)
            == []
        )

    def test_seed_row_of_wrong_arity_yields_nothing(self):
        unit = compiled_constraint(parse_constraint(FD))
        seed_plan = unit.seed_plans[0]
        assert _run(seed_plan, codegen.matcher(seed_plan), _instance(), seed_row=("x",)) == []
