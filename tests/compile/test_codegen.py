"""repro.compile.codegen: generated executors, their caching and the naive join."""

from collections import Counter

from repro.compile import codegen
from repro.compile.kernel import compiled_constraint, compiled_query
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.relevant import relevant_body_variables
from repro.core.satisfaction import body_matches
from repro.relational.domain import NULL, is_null
from repro.relational.instance import DatabaseInstance, Fact


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


def _named(assignment):
    return tuple(sorted(((v.name, value) for v, value in assignment), key=lambda kv: kv[0]))


def _generated(plan, constraint, instance, seed_row=None):
    """Every match the generated executor yields, as (bindings, facts)."""

    slots = [None] * plan.n_slots
    rows = [None] * plan.n_atoms
    found = Counter()
    for _ in codegen.matcher(plan)(instance, slots, rows, seed_row=seed_row):
        bindings = _named((v, slots[slot]) for v, slot in plan.var_slots)
        facts = tuple(Fact(atom.predicate, row) for atom, row in zip(constraint.body, rows))
        found[(bindings, facts)] += 1
    return found


def _naive(constraint, instance, pinned=None):
    """The naive body join, minus the matches the pushed-down relevant-null
    guards reject; *pinned* = (atom index, fact) keeps the seeded ones."""

    relevant = relevant_body_variables(constraint)
    expected = Counter()
    for assignment, facts in body_matches(instance, constraint.body, naive=True):
        if any(is_null(assignment[v]) for v in relevant):
            continue
        if pinned is not None and facts[pinned[0]] != pinned[1]:
            continue
        expected[(_named(assignment.items()), facts)] += 1
    return expected


class TestMatcherCaching:
    def test_generated_executor_is_cached_on_the_plan(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        first = codegen.matcher(plan)
        assert codegen.matcher(plan) is first
        assert hasattr(first, "__repro_source__")

    def test_environment_selects_no_other_executor(self, monkeypatch):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        generated = codegen.matcher(plan)
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        assert codegen.matcher(plan) is generated

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
        # One budget checkpoint per join descent.
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
    def test_full_plan_matches_the_naive_join(self):
        constraint = parse_constraint(FD)
        plan = compiled_constraint(constraint).full_plan
        instance = _instance()
        generated = _generated(plan, constraint, instance)
        assert generated == _naive(constraint, instance)
        assert generated  # the instance has an FD conflict

    def test_seed_plans_match_the_naive_join(self):
        constraint = parse_constraint(FD)
        unit = compiled_constraint(constraint)
        instance = _instance()
        for index, seed_plan in unit.seed_plans.items():
            for fact in instance.facts():
                generated = _generated(seed_plan, constraint, instance, fact.values)
                assert generated == _naive(constraint, instance, (index, fact))

    def test_missing_relation_yields_nothing(self):
        constraint = parse_constraint(FD)
        plan = compiled_constraint(constraint).full_plan
        without_emp = DatabaseInstance.from_dict({"Dept": [("sales",)]})
        assert _generated(plan, constraint, without_emp) == Counter()
        assert _naive(constraint, without_emp) == Counter()

    def test_seed_row_of_wrong_arity_yields_nothing(self):
        constraint = parse_constraint(FD)
        seed_plan = compiled_constraint(constraint).seed_plans[0]
        assert _generated(seed_plan, constraint, _instance(), ("x",)) == Counter()
