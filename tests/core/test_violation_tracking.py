"""Unit tests for the incremental violation machinery of the repair engine.

Covers the predicate → constraint :class:`ViolationIndex`, the two
``RepairEngine`` searches (which must produce identical repair lists,
order included), the
extended :class:`RepairStatistics` counters and the structural,
name-independent violation chooser key.
"""

import pytest

from repro.constraints.factories import not_null
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint
from repro.core.cqa import consistent_answers
from repro.core.repairs import (
    REPAIR_METHODS,
    RepairEngine,
    ViolationIndex,
    constraint_structural_key,
    violation_choice_key,
)
from repro.core.satisfaction import violations
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.workloads import foreign_key_workload, grouped_key_workload, scenarios
from repro.constraints.parser import parse_query


def fact_sets(instances):
    return {instance.fact_set() for instance in instances}


class TestViolationIndex:
    def test_body_and_head_mentions(self):
        ric = parse_constraint("Course(i, c) -> Student(i, n)")
        key = parse_constraint("Student(i, n), Student(i, m) -> n = m")
        nnc = not_null("Course", 0, arity=2)
        index = ViolationIndex(ConstraintSet([ric, key, nnc]))
        assert list(index.body_mentions("Course")) == [0, 2]
        assert list(index.head_mentions("Student")) == [0]
        assert list(index.body_mentions("Student")) == [1]
        assert list(index.affected("Student")) == [0, 1]
        assert list(index.affected("Course")) == [0, 2]
        assert list(index.affected("Elsewhere")) == []

    def test_cyclic_predicate_in_body_and_head(self):
        uic = parse_constraint("P(x, y) -> T(x)")
        ric = parse_constraint("T(x) -> P(y, x)")
        index = ViolationIndex(ConstraintSet([uic, ric]))
        assert list(index.affected("P")) == [0, 1]
        assert list(index.affected("T")) == [0, 1]


class TestEngineMethods:
    @pytest.mark.parametrize("method", REPAIR_METHODS)
    @pytest.mark.parametrize(
        "name", ["example_14", "example_16", "example_17", "example_18", "example_19"]
    )
    def test_all_methods_reproduce_paper_repairs(self, all_scenarios, name, method):
        scenario = all_scenarios[name]
        engine = RepairEngine(scenario.constraints, method=method)
        found = engine.repairs(scenario.instance)
        assert fact_sets(found) == fact_sets(scenario.expected_repairs)

    def test_methods_agree_on_workloads(self):
        cases = [
            grouped_key_workload(n_groups=3, group_size=3, n_clean=5, seed=0),
            foreign_key_workload(
                n_parents=4, n_children=7, violation_ratio=0.4, null_ratio=0.3, seed=1
            ),
        ]
        for instance, constraints in cases:
            production, naive = (
                RepairEngine(constraints, method=method).repairs(instance)
                for method in REPAIR_METHODS
            )
            assert production == naive  # same repairs, same order

    def test_methods_explore_identical_search_trees(self, all_scenarios):
        scenario = all_scenarios["example_19"]
        states = set()
        for method in REPAIR_METHODS:
            engine = RepairEngine(scenario.constraints, method=method)
            engine.repairs(scenario.instance)
            states.add(engine.statistics.states_explored)
        assert len(states) == 1  # same chooser, same tree, both searches

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RepairEngine(ConstraintSet(), method="turbo")

    def test_statistics_timing_and_counters(self, all_scenarios):
        scenario = all_scenarios["example_19"]
        engine = RepairEngine(scenario.constraints)
        engine.repairs(scenario.instance)
        stats = engine.statistics
        assert stats.search_seconds > 0
        assert stats.minimality_seconds >= 0
        assert stats.violation_updates > 0  # the tracked search is the default
        assert stats.constraints_reevaluated >= stats.violation_updates
        assert stats.leq_d_comparisons > 0

    def test_cqa_repair_mode_threads_through(self, all_scenarios):
        scenario = all_scenarios["example_14"]
        query = parse_query("ans(c) <- Course(i, c)")
        answers = {
            mode: consistent_answers(
                scenario.instance, scenario.constraints, query, repair_mode=mode
            )
            for mode in REPAIR_METHODS
        }
        assert answers["parallel"] == answers["naive"]


class TestStructuralChooserKey:
    def test_key_ignores_constraint_names(self):
        anonymous = parse_constraint("P(x, y) -> R(x)")
        named = anonymous.with_name("zzz_last_alphabetically")
        assert constraint_structural_key(anonymous) == constraint_structural_key(named)

    def test_key_ignores_variable_names(self):
        first = parse_constraint("P(x, y) -> R(x)")
        second = parse_constraint("P(u, v) -> R(u)")
        assert constraint_structural_key(first) == constraint_structural_key(second)

    def test_key_distinguishes_structure(self):
        repeated = parse_constraint("P(x, x) -> R(x)")
        distinct = parse_constraint("P(x, y) -> R(x)")
        assert constraint_structural_key(repeated) != constraint_structural_key(distinct)
        nnc = not_null("P", 0, arity=2)
        assert constraint_structural_key(nnc) != constraint_structural_key(distinct)

    def test_violation_choice_key_is_name_independent(self):
        db = DatabaseInstance.from_dict({"P": [("a", "b")]})
        plain = parse_constraint("P(x, y) -> R(x)")
        renamed = plain.with_name("some_name")
        key_plain = violation_choice_key(violations(db, plain)[0])
        key_renamed = violation_choice_key(violations(db, renamed)[0])
        assert key_plain == key_renamed

    def test_exploration_order_is_name_independent(self):
        """Renaming constraints must not change the repair set (ROADMAP corner)."""

        db = DatabaseInstance.from_dict(
            {"E": [("a", "b", "w"), ("a", "c", NULL)], "Q": [("b", "q")]}
        )
        key = parse_constraint("E(k, d, u), E(k, e, v) -> d = e")
        ric = parse_constraint("E(k, d, u) -> Q(d, z)")
        baseline = None
        for names in (("aaa", "zzz"), ("zzz", "aaa"), (None, None)):
            named = ConstraintSet(
                [
                    key.with_name(names[0]) if names[0] else key,
                    ric.with_name(names[1]) if names[1] else ric,
                ]
            )
            found = fact_sets(RepairEngine(named).repairs(db))
            if baseline is None:
                baseline = found
            assert found == baseline
