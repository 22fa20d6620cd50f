"""Tests for Fact and DatabaseInstance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.relational.schema import DatabaseSchema, SchemaError


class TestFact:
    def test_none_is_normalised_to_null(self):
        fact = Fact("P", ("a", None))
        assert fact.values == ("a", NULL)
        assert fact.has_null()
        assert fact.null_positions() == (1,)
        assert fact.non_null_positions() == (0,)

    def test_equality_and_hash(self):
        assert Fact("P", ("a", NULL)) == Fact("P", ("a", None))
        assert hash(Fact("P", ("a",))) == hash(Fact("P", ("a",)))
        assert Fact("P", ("a",)) != Fact("Q", ("a",))

    def test_project_and_agrees_on(self):
        fact = Fact("P", ("a", "b", "c"))
        assert fact.project([0, 2]) == Fact("P", ("a", "c"))
        other = Fact("P", ("a", "x", "c"))
        assert fact.agrees_on(other, [0, 2])
        assert not fact.agrees_on(other, [1])
        assert not fact.agrees_on(Fact("Q", ("a", "x", "c")), [0])

    def test_repr_prints_null_unquoted(self):
        assert repr(Fact("P", ("a", NULL))) == "P(a, null)"


class TestDatabaseInstanceBasics:
    def test_from_dict_infers_schema(self):
        db = DatabaseInstance.from_dict({"P": [("a", "b")], "R": [("c",)]})
        assert len(db) == 2
        assert db.schema.arity("P") == 2
        assert Fact("P", ("a", "b")) in db
        assert db.contains_tuple("R", ("c",))

    def test_explicit_schema_is_used(self):
        schema = DatabaseSchema.from_dict({"P": ["A", "B"]})
        db = DatabaseInstance.from_dict({"P": [("a", "b")]}, schema=schema)
        assert db.schema.relation("P").attributes == ("A", "B")

    def test_arity_mismatch_raises(self):
        schema = DatabaseSchema.from_dict({"P": ["A", "B"]})
        db = DatabaseInstance(schema=schema)
        with pytest.raises(SchemaError):
            db.add_tuple("P", ("a", "b", "c"))

    def test_duplicates_collapse(self):
        db = DatabaseInstance.from_dict({"P": [("a", "b"), ("a", "b")]})
        assert len(db) == 1

    def test_add_remove_discard(self):
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        db.add_tuple("P", ("b",))
        assert len(db) == 2
        db.remove(Fact("P", ("a",)))
        assert len(db) == 1
        with pytest.raises(KeyError):
            db.remove(Fact("P", ("a",)))
        db.discard(Fact("P", ("a",)))  # no error
        db.discard(Fact("P", ("b",)))
        assert len(db) == 0
        assert not db

    def test_facts_iteration_is_deterministic(self):
        db = DatabaseInstance.from_dict({"P": [("b",), ("a",)], "A": [("z",)]})
        listed = [repr(f) for f in db.facts()]
        assert listed == ["A(z)", "P(a)", "P(b)"]

    def test_predicates_only_lists_populated_relations(self):
        schema = DatabaseSchema.from_dict({"P": ["A"], "Q": ["B"]})
        db = DatabaseInstance.from_dict({"P": [("a",)]}, schema=schema)
        assert db.predicates == ["P"]


class TestActiveDomainAndNulls:
    def test_active_domain_excludes_null_by_default(self):
        db = DatabaseInstance.from_dict({"P": [("a", NULL), ("b", 3)]})
        assert db.active_domain() == frozenset({"a", "b", 3})
        assert NULL in db.active_domain(include_null=True)

    def test_null_statistics(self):
        db = DatabaseInstance.from_dict({"P": [("a", NULL)], "Q": [(NULL, NULL)]})
        assert db.has_nulls()
        assert db.null_count() == 3
        clean = DatabaseInstance.from_dict({"P": [("a", "b")]})
        assert not clean.has_nulls()


class TestSetOperations:
    def test_copy_is_independent(self):
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        clone = db.copy()
        clone.add_tuple("P", ("b",))
        assert len(db) == 1
        assert len(clone) == 2

    def test_union_difference_symmetric_difference(self):
        first = DatabaseInstance.from_dict({"P": [("a",), ("b",)]})
        second = DatabaseInstance.from_dict({"P": [("b",), ("c",)]})
        assert len(first.union(second)) == 3
        assert first.difference(second).fact_set() == frozenset({Fact("P", ("a",))})
        assert first.symmetric_difference(second) == frozenset(
            {Fact("P", ("a",)), Fact("P", ("c",))}
        )

    def test_equality_is_extensional(self):
        first = DatabaseInstance.from_dict({"P": [("a",)]})
        second = DatabaseInstance.from_dict({"P": [("a",)]})
        assert first == second
        assert hash(first) == hash(second)
        second.add_tuple("P", ("b",))
        assert first != second

    def test_to_dict_round_trip(self):
        db = DatabaseInstance.from_dict({"P": [("a", NULL)], "Q": [(1,)]})
        rebuilt = DatabaseInstance.from_dict(db.to_dict())
        assert rebuilt == db

    def test_pretty_contains_relation_headers(self):
        schema = DatabaseSchema.from_dict({"P": ["A", "B"]})
        db = DatabaseInstance.from_dict({"P": [("a", NULL)]}, schema=schema)
        rendered = db.pretty()
        assert "P(A, B)" in rendered
        assert "a, null" in rendered


class TestHashIndexes:
    def test_tuples_where_point_lookup(self):
        db = DatabaseInstance.from_dict(
            {"P": [("a", 1), ("a", 2), ("b", 1), (NULL, 3)]}
        )
        assert db.tuples_where("P", 0, "a") == {("a", 1), ("a", 2)}
        assert db.tuples_where("P", 1, 1) == {("a", 1), ("b", 1)}
        assert db.tuples_where("P", 0, NULL) == {(NULL, 3)}
        assert db.tuples_where("P", 0, "zzz") == frozenset()
        assert db.tuples_where("Missing", 0, "a") == frozenset()
        assert db.tuples_where("P", 9, "a") == frozenset()

    def test_tuples_matching_multi_position(self):
        db = DatabaseInstance.from_dict({"P": [("a", 1), ("a", 2), ("b", 1)]})
        assert set(db.tuples_matching("P", {0: "a", 1: 2})) == {("a", 2)}
        assert set(db.tuples_matching("P", {})) == {("a", 1), ("a", 2), ("b", 1)}
        assert set(db.tuples_matching("P", {0: "c"})) == set()
        assert set(db.tuples_matching("P", {5: "a"})) == set()
        assert set(db.tuples_matching("Missing", {0: "a"})) == set()

    def test_index_is_maintained_across_mutations(self):
        db = DatabaseInstance.from_dict({"P": [("a", 1)]})
        assert db.tuples_where("P", 0, "a") == {("a", 1)}  # builds the index
        db.add_tuple("P", ("a", 2))
        assert db.tuples_where("P", 0, "a") == {("a", 1), ("a", 2)}
        db.discard(Fact("P", ("a", 1)))
        assert db.tuples_where("P", 0, "a") == {("a", 2)}
        db.discard(Fact("P", ("a", 2)))
        assert db.tuples_where("P", 0, "a") == frozenset()
        assert "P" not in db.predicates

    def test_rows_grouped_by_caches_and_invalidates(self):
        db = DatabaseInstance.from_dict({"P": [("a", 1), ("a", 2), ("b", 1)]})
        groups = db.rows_grouped_by("P", (0,))
        assert set(groups[("a",)]) == {("a", 1), ("a", 2)}
        assert db.rows_grouped_by("P", (0,)) is groups  # cached
        db.add_tuple("P", ("a", 3))
        regrouped = db.rows_grouped_by("P", (0,))
        assert set(regrouped[("a",)]) == {("a", 1), ("a", 2), ("a", 3)}


class TestCopyOnWrite:
    def test_mutating_the_clone_leaves_the_parent_intact(self):
        parent = DatabaseInstance.from_dict({"P": [("a",)], "Q": [("b",)]})
        clone = parent.copy()
        clone.add_tuple("P", ("c",))
        clone.discard(Fact("Q", ("b",)))
        assert parent.fact_set() == frozenset({Fact("P", ("a",)), Fact("Q", ("b",))})
        assert clone.fact_set() == frozenset({Fact("P", ("a",)), Fact("P", ("c",))})

    def test_mutating_the_parent_leaves_the_clone_intact(self):
        parent = DatabaseInstance.from_dict({"P": [("a",)]})
        clone = parent.copy()
        parent.add_tuple("P", ("b",))
        assert len(parent) == 2
        assert clone.fact_set() == frozenset({Fact("P", ("a",))})

    def test_indexes_stay_correct_after_cow(self):
        parent = DatabaseInstance.from_dict({"P": [("a", 1), ("b", 2)]})
        assert parent.tuples_where("P", 0, "a") == {("a", 1)}  # build before copy
        clone = parent.copy()
        clone.add_tuple("P", ("a", 3))
        parent.discard(Fact("P", ("a", 1)))
        assert parent.tuples_where("P", 0, "a") == frozenset()
        assert clone.tuples_where("P", 0, "a") == {("a", 1), ("a", 3)}

    def test_a_write_copies_only_the_index_buckets_it_changes(self):
        parent = DatabaseInstance.from_dict({"P": [("a", 1), ("a", 2), ("b", 2)]})
        parent.tuples_where("P", 0, "a")  # build before copy
        clone = parent.copy()
        clone.add_tuple("P", ("a", 3))
        assert clone.tuples_where("P", 0, "b") is parent.tuples_where("P", 0, "b")
        assert clone.tuples_where("P", 0, "a") == {("a", 1), ("a", 2), ("a", 3)}
        assert parent.tuples_where("P", 0, "a") == {("a", 1), ("a", 2)}
        parent.discard(Fact("P", ("a", 1)))
        parent.discard(Fact("P", ("b", 2)))
        assert parent.tuples_where("P", 1, 2) == {("a", 2)}
        assert parent.tuples_where("P", 0, "b") == frozenset()
        assert clone.tuples_where("P", 1, 2) == {("a", 2), ("b", 2)}
        assert clone.tuples_where("P", 0, "b") == {("b", 2)}
        assert clone.tuples_where("P", 1, 1) == {("a", 1)}

    def test_chained_copies(self):
        first = DatabaseInstance.from_dict({"P": [("a",)]})
        second = first.copy()
        third = second.copy()
        third.add_tuple("P", ("b",))
        second.discard(Fact("P", ("a",)))
        assert first.fact_set() == frozenset({Fact("P", ("a",))})
        assert len(second) == 0
        assert third.fact_set() == frozenset({Fact("P", ("a",)), Fact("P", ("b",))})

    VALUES = (("a", "b", NULL), (1, 2, NULL))
    ROWS = st.tuples(*(st.sampled_from(values) for values in VALUES))

    @staticmethod
    def assert_lookups_match(instance, model):
        for position, values in enumerate(TestCopyOnWrite.VALUES):
            for value in values:
                assert instance.tuples_where("P", position, value) == {
                    row for row in model if row[position] == value
                }

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.lists(ROWS, min_size=1, max_size=4),
        operations=st.lists(
            st.tuples(
                st.sampled_from(("copy", "add", "discard", "lookup")),
                st.integers(min_value=0, max_value=3),
                ROWS,
            ),
            max_size=25,
        ),
    )
    def test_index_buckets_follow_any_interleaving_of_copies_and_writes(
        self, initial, operations
    ):
        """Copies share index buckets until one side writes to them: every
        lookup must see its own instance's rows, whichever side built the
        index, copied it or changed a shared bucket first."""

        instances = [DatabaseInstance.from_dict({"P": initial})]
        models = [set(initial)]
        for operation, which, row in operations:
            which %= len(instances)
            if operation == "copy":
                instances.append(instances[which].copy())
                models.append(set(models[which]))
            elif operation == "add":
                instances[which].add_tuple("P", row)
                models[which].add(row)
            elif operation == "discard":
                instances[which].discard(Fact("P", row))
                models[which].discard(row)
            else:  # builds the index if this instance has none yet
                self.assert_lookups_match(instances[which], models[which])
        for instance, model in zip(instances, models):
            assert instance.tuples("P") == model
            self.assert_lookups_match(instance, model)


class TestWithDelta:
    def base(self):
        base = DatabaseInstance.from_dict({"P": [("a", 1), ("b", 2)], "Q": [("c",)]})
        base.tuples_where("P", 0, "a")  # build both indexes
        base.tuples_where("Q", 0, "c")
        return base

    def test_applies_the_delta_and_leaves_the_base_intact(self):
        base = self.base()
        repair = base.with_delta([Fact("P", ("d", NULL))], [Fact("P", ("a", 1))])
        assert repair.fact_set() == frozenset(
            {Fact("P", ("b", 2)), Fact("P", ("d", NULL)), Fact("Q", ("c",))}
        )
        assert base.fact_set() == frozenset(
            {Fact("P", ("a", 1)), Fact("P", ("b", 2)), Fact("Q", ("c",))}
        )
        assert base.tuples_where("P", 0, "a") == {("a", 1)}

    def test_untouched_relations_share_rows_and_index(self):
        base = self.base()
        repair = base.with_delta([], [Fact("P", ("a", 1))])
        assert repair.rows("Q") is base.rows("Q")
        assert repair._indexes["Q"] is base._indexes["Q"]

    def test_touched_relations_copy_no_index_until_probed(self):
        base = self.base()
        repair = base.with_delta([Fact("P", ("e", 5))], [])
        assert "P" not in repair._indexes
        assert repair.tuples_where("P", 0, "e") == {("e", 5)}  # rebuilt lazily
        assert base.tuples_where("P", 0, "e") == frozenset()
