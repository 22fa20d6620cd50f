"""Unit tests for the compile layer: IR structure, caches, adapters."""

import pytest

from repro.compile.kernel import (
    CompiledConstraint,
    CompiledNotNull,
    GroundAtomRelations,
    compile_program,
    compiled_body,
    compiled_constraint,
    compiled_query,
    compiler_statistics,
)
from repro.compile.matchers import extend_match, match_atom
from repro.constraints.atoms import Atom
from repro.constraints.factories import not_null
from repro.constraints.parser import parse_constraint, parse_query
from repro.constraints.terms import Variable
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact


def _v(name):
    return Variable(name)


class TestSharedMatcher:
    def test_all_layers_share_one_matching_routine(self):
        from repro.core import satisfaction
        from repro.logic import queries
        from repro.rewriting import residues

        assert satisfaction._match_atom is extend_match
        assert queries._match is extend_match
        assert residues.extend_assignment is extend_match

    def test_null_joins_with_itself(self):
        x = _v("x")
        atom = Atom("P", (x, x))
        assert match_atom(atom, (NULL, NULL)) == {x: NULL}
        assert match_atom(atom, (NULL, "a")) is None

    def test_constant_and_bound_variable_checks(self):
        x = _v("x")
        atom = Atom("P", (x, "c"))
        assert match_atom(atom, ("a", "c")) == {x: "a"}
        assert match_atom(atom, ("a", "d")) is None
        assert extend_match(atom, ("a", "c"), {x: "b"}) is None

    def test_arity_mismatch_never_matches(self):
        assert match_atom(Atom("P", (_v("x"),)), ("a", "b")) is None


class TestCompiledConstraintStructure:
    def test_units_by_kind(self):
        fd = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
        assert isinstance(compiled_constraint(fd), CompiledConstraint)
        assert isinstance(compiled_constraint(not_null("Emp", 0, 2)), CompiledNotNull)

    def test_one_seed_plan_per_body_occurrence(self):
        constraint = parse_constraint("P(x, y), Q(y, z), P(z, w) -> false")
        unit = compiled_constraint(constraint)
        assert sorted(unit.seed_plans) == [0, 1, 2]
        # The pinned atom is excluded from the scheduled steps.
        for index, plan in unit.seed_plans.items():
            assert plan.seed is not None and plan.seed.atom_index == index
            scheduled = {step.atom_index for step in plan.steps}
            assert scheduled == {0, 1, 2} - {index}

    def test_schedule_prefers_statically_bound_atoms(self):
        # R('a', y) has a constant, so it is scheduled before P(x, y).
        constraint = parse_constraint("P(x, y), R('a', y) -> false")
        unit = compiled_constraint(constraint)
        assert unit.full_plan.steps[0].atom_index == 1
        assert unit.full_plan.steps[0].const == ((0, "a"),)

    def test_repeated_variable_becomes_eq_check(self):
        constraint = parse_constraint("P(x, x, y) -> false")
        unit = compiled_constraint(constraint)
        (step,) = unit.full_plan.steps
        assert step.eq == ((1, 0),)

    def test_relevant_null_guard_is_pushed_into_the_join(self):
        constraint = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
        unit = compiled_constraint(constraint)
        guarded = {slot for step in unit.full_plan.steps for slot in step.guard}
        relevant_slots = {
            slot
            for variable, slot in unit.full_plan.var_slots
            if variable.name in {"e", "d", "f"}
        }
        assert guarded == relevant_slots

    def test_witness_probe_structure(self):
        constraint = parse_constraint("P(x, y) -> Q(x, z, z)")
        unit = compiled_constraint(constraint)
        (probe,) = unit.witnesses
        # x is a body variable (probed via slot); z is a repeated
        # existential variable (per-row consistency group).
        assert probe.bound and probe.groups == ((1, 2),)


class TestDeltaPlans:
    def test_has_violation_at_matches_full_enumeration(self):
        from repro.core.satisfaction import violations

        constraint = parse_constraint("P(x, y), R(y, z) -> false")
        instance = DatabaseInstance.from_dict(
            {"P": [("a", "b"), ("c", "d"), ("e", NULL)], "R": [("b", "x"), (NULL, "y")]}
        )
        unit = compiled_constraint(constraint)
        participating = {
            (index, violation.body_facts[index].values)
            for violation in violations(instance, constraint)
            for index in range(len(constraint.body))
        }
        for index, atom in enumerate(constraint.body):
            for row in instance.tuples(atom.predicate):
                expected = (index, row) in participating
                assert unit.has_violation_at(instance, index, row) == expected

    def test_seed_plan_rejects_wrong_shape(self):
        constraint = parse_constraint("P(x, y) -> false")
        unit = compiled_constraint(constraint)
        instance = DatabaseInstance.from_dict({"P": [("a", "b")]})
        assert list(unit.seeded_violations(instance, Fact("Q", ("a", "b")))) == []
        assert list(unit.seeded_violations(instance, Fact("P", ("a",)))) == []


class TestMemoCaches:
    def test_constraint_compiled_at_most_once(self):
        constraint = parse_constraint(
            "UniqKernelTest(a, b), UniqKernelTest(a, c) -> b = c"
        )
        instance = DatabaseInstance.from_dict(
            {"UniqKernelTest": [("k", 1), ("k", 2)]}
        )
        before = compiler_statistics().snapshot()
        from repro.core.satisfaction import violations

        for _ in range(5):
            violations(instance, constraint)
        after = compiler_statistics()
        assert after.constraints_compiled - before.constraints_compiled <= 1
        assert compiled_constraint(constraint) is compiled_constraint(constraint)

    def test_program_shares_constraint_units(self):
        fd = parse_constraint("ShareKernelTest(a, b), ShareKernelTest(a, c) -> b = c")
        nnc = not_null("ShareKernelTest", 0, 2)
        program = compile_program((fd, nnc))
        assert program.unit(0) is compiled_constraint(fd)
        assert program.unit(1) is compiled_constraint(nnc)
        assert compile_program((fd, nnc)) is program

    def test_query_and_body_caches(self):
        query = parse_query("ans(x) <- KernelCacheQ(x, y)")
        assert compiled_query(query) is compiled_query(query)
        atoms = (Atom("KernelCacheB", (_v("x"), _v("y"))),)
        assert compiled_body(atoms) is compiled_body(atoms)


class TestGroundAtomRelations:
    def test_mixed_arity_predicates(self):
        a2 = Atom("P", ("a", "b"))
        a3 = Atom("P", ("a", "b", "c"))
        view = GroundAtomRelations({("P", 2): [a2], ("P", 3): [a3]})
        rows = list(view.tuples_matching("P", {0: "a"}))
        assert ("a", "b") in rows and ("a", "b", "c") in rows
        # A bound position beyond a row's arity excludes that row only.
        assert list(view.tuples_matching("P", {2: "c"})) == [("a", "b", "c")]

    def test_body_plan_joins_ground_atoms(self):
        x, y = _v("x"), _v("y")
        body = compiled_body((Atom("P", (x, y)), Atom("Q", (y,))))
        view = GroundAtomRelations(
            {("P", 2): [Atom("P", ("a", "b")), Atom("P", ("c", "d"))], ("Q", 1): [Atom("Q", ("b",))]}
        )
        assignments = list(body.iter_assignments(view))
        assert assignments == [{x: "a", y: "b"}]


class TestCompiledQueryEdgeCases:
    def test_incomparable_non_null_values_still_raise(self):
        from repro.constraints.atoms import BuiltinEvaluationError

        query = parse_query("ans(x) <- KernelRaise(x, y), y > 1")
        instance = DatabaseInstance.from_dict({"KernelRaise": [("a", "zzz")]})
        with pytest.raises(BuiltinEvaluationError):
            query.answers(instance)
        with pytest.raises(BuiltinEvaluationError):
            query.answers(instance, naive=True)

    def test_null_comparison_conventions_match_interpreter(self):
        query = parse_query("ans(x) <- KernelNull(x, y), y > 1")
        instance = DatabaseInstance.from_dict(
            {"KernelNull": [("a", NULL), ("b", 5)]}
        )
        for null_is_unknown in (False, True):
            assert query.answers(
                instance, null_is_unknown=null_is_unknown
            ) == query.answers(instance, null_is_unknown=null_is_unknown, naive=True)

    def test_interpreted_path_uses_memoised_schedule(self):
        query = parse_query("ans(x) <- KernelSched(x, y), KernelSchedB(y, z)")
        plan = compiled_query(query)
        assert plan.order == tuple(
            step.atom_index for step in plan.plan.steps
        )
        instance = DatabaseInstance.from_dict(
            {"KernelSched": [("a", "b")], "KernelSchedB": [("b", "c")]}
        )
        assert query.answers(instance, compiled=False) == query.answers(instance)


class TestQueriesOnRepairs:
    """Definition 8 evaluates the query in every repair; each repair is the
    base instance plus its ``∆`` (``DatabaseInstance.with_delta``)."""

    QUERY = "ans(e, n) <- Emp(e, d), Dept(d, n)"

    def base(self):
        return DatabaseInstance.from_dict(
            {
                "Emp": [("a", "d1"), ("a", "d2"), ("b", "d2"), ("c", NULL)],
                "Dept": [("d1", "sales"), ("d2", "hr"), (NULL, "ops")],
                "Log": [("u1", "login"), ("u2", "logout")],
            }
        )

    def deltas(self, base):
        for fact in base.facts():
            yield (), (fact,)
        yield (Fact("Emp", ("d", "d1")),), ()
        yield (Fact("Dept", ("d3", "it")), Fact("Emp", ("e", "d3"))), (
            Fact("Emp", ("a", "d1")),
        )

    def test_reads_only_the_named_relations(self, monkeypatch):
        reads = []
        rows = DatabaseInstance.rows
        matching = DatabaseInstance.tuples_matching

        def recording_rows(instance, predicate):
            reads.append(predicate)
            return rows(instance, predicate)

        def recording_matching(instance, predicate, bound):
            reads.append(predicate)
            return matching(instance, predicate, bound)

        monkeypatch.setattr(DatabaseInstance, "rows", recording_rows)
        monkeypatch.setattr(DatabaseInstance, "tuples_matching", recording_matching)
        base = self.base()
        repair = base.with_delta([], [Fact("Emp", ("a", "d2"))])
        assert compiled_query(parse_query(self.QUERY)).answers(repair) == {
            ("a", "sales"),
            ("b", "hr"),
            ("c", "ops"),  # null joins with itself by default
        }
        assert set(reads) == {"Emp", "Dept"}

    def test_untouched_relations_keep_the_base_index(self):
        base = self.base()
        query = compiled_query(parse_query(self.QUERY))
        query.answers(base)  # probes Dept by department: builds its index
        dept_index = base._indexes["Dept"]
        repair = base.with_delta([Fact("Emp", ("d", "d1"))], [])
        assert ("d", "sales") in query.answers(repair)
        assert repair._indexes["Dept"] is dept_index
        assert base._indexes["Dept"] is dept_index
        assert ("d", "sales") not in query.answers(base)

    def test_answers_equal_a_materialised_repair(self):
        parsed = parse_query(self.QUERY)
        query = compiled_query(parsed)
        base = self.base()
        query.answers(base)  # warm the base's indexes before branching
        for inserted, deleted in self.deltas(base):
            repair = base.with_delta(inserted, deleted)
            materialised = DatabaseInstance.from_facts(
                (base.fact_set() - set(deleted)) | set(inserted)
            )
            assert repair.fact_set() == materialised.fact_set()
            for null_is_unknown in (False, True):
                expected = parsed.answers(
                    materialised, null_is_unknown=null_is_unknown, naive=True
                )
                assert query.answers(repair, null_is_unknown) == expected, (
                    inserted,
                    deleted,
                )
