"""Reference answers computed from the generated rows alone.

The benchmark never compares the program against a stored copy of its
own output.  Every answer, ``certain()`` verdict and repair count is
checked against this module, which knows the constraint shapes the
workloads use and applies the paper's ``|=_N`` repair semantics to the
rows directly (``None`` is the null value here):

* a key is violated only by two tuples that agree on a non-null key and
  carry different non-null values in the same dependent position; a null
  dependent never conflicts, and a key group whose members all conflict
  pairwise keeps exactly one member in every repair;
* a referential constraint ``child[i] -> parent[j]`` is satisfied by a
  null reference; a dangling value offers two repairs: delete every
  child holding it, or insert the parent padded with nulls;
* a universal constraint ``source[i] -> target`` with a missing target
  offers two repairs: delete the sources, or insert the target;
* a NOT NULL violator is deleted in every repair.

The workloads generate instances whose violations are independent (no
fact takes part in two conflicts, and no repair of one conflict creates
or fixes another), so the repairs are the product of each conflict's
alternatives.  :func:`conflicts` verifies that independence and raises
:class:`Unmodelled` when it fails, rather than computing a wrong
expectation.  :func:`selfcheck` tests this model against the repairs the
paper states for Examples 14, 17 and 18.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

Row = Tuple[object, ...]
Fact = Tuple[str, Row]


class Unmodelled(ValueError):
    """The instance leaves the shapes this model decides exactly."""


@dataclass(frozen=True)
class Reference:
    """``child(.., x@child_pos, ..) -> exists parent(.., x@parent_pos, ..)``."""

    child: str
    child_pos: int
    parent: str
    parent_pos: int
    parent_arity: int

    def padded(self, value: object) -> Fact:
        row = [None] * self.parent_arity
        row[self.parent_pos] = value
        return (self.parent, tuple(row))


@dataclass(frozen=True)
class Cover:
    """``source(.., x@source_pos, ..) -> target(x)`` (a unary target)."""

    source: str
    source_pos: int
    target: str


@dataclass(frozen=True)
class Shape:
    """The constraint shapes of one session, as the model understands them."""

    keys: Mapping[str, int] = field(default_factory=dict)
    references: Tuple[Reference, ...] = ()
    covers: Tuple[Cover, ...] = ()
    not_null: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Alternative:
    deleted: FrozenSet[Fact]
    inserted: FrozenSet[Fact]


#: One independent violation: the alternative ways its repairs resolve it.
Conflict = Tuple[Alternative, ...]


@dataclass(frozen=True)
class Query:
    """A single-atom query ``ans(proj) <- pred(...)`` with constant selections."""

    pred: str
    arity: int
    proj: Tuple[int, ...]
    select: Tuple[Tuple[int, object], ...] = ()

    def text(self) -> str:
        names = [f"x{i}" for i in range(self.arity)]
        for pos, value in self.select:
            names[pos] = f"'{value}'"
        head = ", ".join(f"x{i}" for i in self.proj)
        return f"ans({head}) <- {self.pred}({', '.join(names)})"

    def answer(self, row: Row) -> Optional[Row]:
        for pos, value in self.select:
            if row[pos] != value:
                return None
        return tuple(row[i] for i in self.proj)


def _pairwise_conflict(first: Row, second: Row, key: int) -> bool:
    return any(
        i != key and a is not None and b is not None and a != b
        for i, (a, b) in enumerate(zip(first, second))
    )


def conflicts(shape: Shape, facts: Mapping[str, Set[Row]]) -> List[Conflict]:
    """The independent conflicts of *facts*, each with its alternatives."""

    found: List[Conflict] = []
    doomed: Set[Fact] = set()
    for pred, pos in shape.not_null:
        for row in facts.get(pred, ()):
            if row[pos] is None:
                doomed.add((pred, row))
                found.append((Alternative(frozenset({(pred, row)}), frozenset()),))

    for pred, key in shape.keys.items():
        groups: Dict[object, List[Row]] = {}
        for row in facts.get(pred, ()):
            if row[key] is not None and (pred, row) not in doomed:
                groups.setdefault(row[key], []).append(row)
        for members in groups.values():
            if len(members) < 2:
                continue
            pairs = [
                _pairwise_conflict(a, b, key)
                for i, a in enumerate(members)
                for b in members[i + 1 :]
            ]
            if not any(pairs):
                continue
            if not all(pairs):
                raise Unmodelled(f"{pred} key group {members!r} conflicts only in part")
            group = frozenset((pred, row) for row in members)
            found.append(
                tuple(
                    Alternative(group - {(pred, row)}, frozenset()) for row in members
                )
            )

    for ref in shape.references:
        present = {
            row[ref.parent_pos]
            for row in facts.get(ref.parent, ())
            if row[ref.parent_pos] is not None and (ref.parent, row) not in doomed
        }
        dangling: Dict[object, Set[Fact]] = {}
        for row in facts.get(ref.child, ()):
            value = row[ref.child_pos]
            if value is not None and value not in present:
                dangling.setdefault(value, set()).add((ref.child, row))
        for value, children in dangling.items():
            parent = ref.padded(value)
            for pred, pos in shape.not_null:
                if pred == parent[0] and parent[1][pos] is None:
                    raise Unmodelled(f"padding {parent!r} violates NOT NULL")
            found.append(
                (
                    Alternative(frozenset(children), frozenset()),
                    Alternative(frozenset(), frozenset({parent})),
                )
            )

    for cover in shape.covers:
        targets = facts.get(cover.target, set())
        missing: Dict[object, Set[Fact]] = {}
        for row in facts.get(cover.source, ()):
            value = row[cover.source_pos]
            if value is not None and (value,) not in targets:
                missing.setdefault(value, set()).add((cover.source, row))
        for value, sources in missing.items():
            found.append(
                (
                    Alternative(frozenset(sources), frozenset()),
                    Alternative(frozenset(), frozenset({(cover.target, (value,))})),
                )
            )

    _check_independent(shape, facts, found)
    return found


def _check_independent(
    shape: Shape, facts: Mapping[str, Set[Row]], found: List[Conflict]
) -> None:
    """Raise :class:`Unmodelled` unless the conflicts' repairs combine freely."""

    owner: Dict[Fact, int] = {}
    for index, conflict in enumerate(found):
        for alternative in conflict:
            for fact in alternative.deleted:
                if owner.setdefault(fact, index) != index:
                    raise Unmodelled(f"{fact!r} takes part in two conflicts")
    for index, conflict in enumerate(found):
        for alternative in conflict:
            for pred, row in alternative.inserted:
                for ref in shape.references:
                    # An inserted target must itself be witnessed by a fact
                    # every combination keeps (stable, or kept by this very
                    # alternative).
                    if ref.child == pred and row[ref.child_pos] is not None:
                        witnesses = [
                            (ref.parent, parent)
                            for parent in facts.get(ref.parent, ())
                            if parent[ref.parent_pos] == row[ref.child_pos]
                        ]
                        if not any(
                            owner.get(w, index) == index
                            and w not in alternative.deleted
                            for w in witnesses
                        ):
                            raise Unmodelled(f"inserted {row!r} lacks a kept witness")
                for cover in shape.covers:
                    value = row[cover.source_pos] if pred == cover.source else None
                    if value is not None and (value,) not in facts.get(cover.target, ()):
                        raise Unmodelled(f"inserted {row!r} needs a {cover.target} fact")
            for pred, row in alternative.deleted:
                for ref in shape.references:
                    # A deleted fact must not be some surviving fact's only witness.
                    value = row[ref.parent_pos] if ref.parent == pred else None
                    if value is not None:
                        others = [
                            parent
                            for parent in facts.get(ref.parent, ())
                            if parent != row and parent[ref.parent_pos] == value
                        ]
                        users = [
                            child
                            for child in facts.get(ref.child, ())
                            if child[ref.child_pos] == value
                            and owner.get((ref.child, child)) != index
                        ]
                        if users and not others:
                            raise Unmodelled(f"deleting {row!r} orphans {users!r}")
                for cover in shape.covers:
                    if cover.target == pred:
                        if any(
                            source[cover.source_pos] == row[0]
                            for source in facts.get(cover.source, ())
                        ):
                            raise Unmodelled(f"deleting {row!r} uncovers a source")


class Model:
    """The rows of one session, kept in step with its writes."""

    def __init__(self, shape: Shape, facts: Mapping[str, Iterable[Row]]):
        self.shape = shape
        self.facts: Dict[str, Set[Row]] = {pred: set(rows) for pred, rows in facts.items()}
        self._cached: Optional[List[Conflict]] = None

    def insert(self, pred: str, row: Row) -> bool:
        rows = self.facts.setdefault(pred, set())
        if row in rows:
            return False
        rows.add(row)
        self._cached = None
        return True

    def delete(self, pred: str, row: Row) -> bool:
        rows = self.facts.get(pred, set())
        if row not in rows:
            return False
        rows.discard(row)
        self._cached = None
        return True

    def conflicts(self) -> List[Conflict]:
        if self._cached is None:
            self._cached = conflicts(self.shape, self.facts)
        return self._cached

    def is_consistent(self) -> bool:
        return not self.conflicts()

    def repair_count(self) -> int:
        count = 1
        for conflict in self.conflicts():
            count *= len(conflict)
        return count

    def certain_answers(self, query: Query) -> FrozenSet[Row]:
        """Answers present in every repair (Definition 8)."""

        found = self.conflicts()
        touched = {fact for conflict in found for alt in conflict for fact in alt.deleted}
        answers: Set[Row] = set()
        for row in self.facts.get(query.pred, ()):
            if (query.pred, row) not in touched:
                answer = query.answer(row)
                if answer is not None:
                    answers.add(answer)
        for conflict in found:
            scope = set().union(*(alt.deleted for alt in conflict))
            guaranteed: Optional[Set[Row]] = None
            for alt in conflict:
                present = (scope - alt.deleted) | alt.inserted
                local = {
                    answer
                    for pred, row in present
                    if pred == query.pred
                    for answer in (query.answer(row),)
                    if answer is not None
                }
                guaranteed = local if guaranteed is None else guaranteed & local
            answers |= guaranteed or set()
        return frozenset(answers)

    def repairs(self) -> List[FrozenSet[Fact]]:
        """Every repair as a fact set (small instances only)."""

        base = {(pred, row) for pred, rows in self.facts.items() for row in rows}
        result = []
        for choice in product(*self.conflicts()):
            facts = set(base)
            for alt in choice:
                facts -= alt.deleted
                facts |= alt.inserted
            result.append(frozenset(facts))
        return result


def _facts(**relations: Iterable[Row]) -> FrozenSet[Fact]:
    return frozenset((pred, row) for pred, rows in relations.items() for row in rows)


def selfcheck() -> List[str]:
    """Compare the model with the repairs the paper states; return the mismatches."""

    cases = [
        (
            "Example 14",
            Shape(references=(Reference("Course", 0, "Student", 0, 2),)),
            {"Course": [(21, "C15"), (34, "C18")], "Student": [(21, "Ann"), (45, "Paul")]},
            [
                _facts(Course=[(21, "C15")], Student=[(21, "Ann"), (45, "Paul")]),
                _facts(
                    Course=[(21, "C15"), (34, "C18")],
                    Student=[(21, "Ann"), (45, "Paul"), (34, None)],
                ),
            ],
        ),
        (
            "Example 17",
            Shape(references=(Reference("P", 0, "R", 0, 2),)),
            {"P": [("a", None), ("b", "c")], "R": [("a", "b")]},
            [
                _facts(P=[("a", None), ("b", "c")], R=[("a", "b"), ("b", None)]),
                _facts(P=[("a", None)], R=[("a", "b")]),
            ],
        ),
        (
            "Example 18",
            Shape(
                references=(Reference("T", 0, "P", 1, 2),),
                covers=(Cover("P", 0, "T"),),
            ),
            {"P": [("a", "b"), (None, "a")], "T": [("c",)]},
            [
                _facts(P=[("a", "b"), (None, "a"), (None, "c")], T=[("c",), ("a",)]),
                _facts(P=[("a", "b"), (None, "a")], T=[("a",)]),
                _facts(P=[(None, "a"), (None, "c")], T=[("c",)]),
                _facts(P=[(None, "a")]),
            ],
        ),
    ]
    problems = []
    for name, shape, rows, stated in cases:
        model = Model(shape, rows)
        repairs = model.repairs()
        if len(repairs) != len(stated) or set(repairs) != set(stated):
            problems.append(f"{name}: model repairs {repairs!r} differ from the paper's")
        if model.repair_count() != len(stated):
            problems.append(f"{name}: repair_count {model.repair_count()} != {len(stated)}")
        for pred in rows:
            arity = len(next(iter(rows[pred])))
            query = Query(pred, arity, tuple(range(arity)))
            expected = frozenset.intersection(
                *(frozenset(row for p, row in repair if p == pred) for repair in stated)
            )
            if model.certain_answers(query) != expected:
                problems.append(f"{name}: certain answers on {pred} differ")
    return problems
