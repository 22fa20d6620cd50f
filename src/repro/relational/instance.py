"""Database instances as finite sets of ground atoms.

An instance ``D`` compatible with a schema ``Σ`` is a finite collection of
ground atoms ``R(c_1, …, c_n)`` with ``R ∈ R`` and ``c_i ∈ U`` (possibly
``null``).  Following the paper we use the *set* semantics (Example 7
discusses why the SQL bag semantics cannot be enforced with first-order
constraints): duplicate tuples collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.relational.domain import (
    Constant,
    NULL,
    constant_sort_key,
    format_constant,
    is_null,
    normalise_constant,
)
from repro.relational.schema import DatabaseSchema, RelationSchema, SchemaError


Row = Tuple[Constant, ...]

_EMPTY_ROWS: FrozenSet[Row] = frozenset()


@dataclass(frozen=True)
class Fact:
    """A ground database atom ``R(c_1, …, c_n)``."""

    predicate: str
    values: Tuple[Constant, ...]

    def __init__(self, predicate: str, values: Sequence[Constant]) -> None:
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(
            self, "values", tuple(normalise_constant(v) for v in values)
        )

    @property
    def arity(self) -> int:
        """Number of values in the atom."""

        return len(self.values)

    def has_null(self) -> bool:
        """True iff any value of the atom is ``null``."""

        return any(is_null(v) for v in self.values)

    def null_positions(self) -> Tuple[int, ...]:
        """0-based positions whose value is ``null``."""

        return tuple(i for i, v in enumerate(self.values) if is_null(v))

    def non_null_positions(self) -> Tuple[int, ...]:
        """0-based positions whose value is not ``null``."""

        return tuple(i for i, v in enumerate(self.values) if not is_null(v))

    def project(self, positions: Sequence[int]) -> "Fact":
        """Projection of the atom onto *positions*, keeping the predicate name."""

        return Fact(self.predicate, tuple(self.values[i] for i in positions))

    def agrees_on(self, other: "Fact", positions: Iterable[int]) -> bool:
        """True iff *other* has the same predicate and equal values at *positions*."""

        if self.predicate != other.predicate or self.arity != other.arity:
            return False
        return all(self.values[i] == other.values[i] for i in positions)

    def sort_key(self) -> Tuple[Any, ...]:
        """Deterministic ordering key for reporting."""

        return (self.predicate,) + tuple(constant_sort_key(v) for v in self.values)

    def __repr__(self) -> str:
        inner = ", ".join(format_constant(v) for v in self.values)
        return f"{self.predicate}({inner})"


class _PredicateIndex:
    """Hash index of one relation's rows: position → value → set of rows.

    Built lazily the first time an indexed lookup touches the predicate and
    maintained incrementally on every subsequent insert/delete, so point
    lookups (``R[i] = v``) cost one dictionary probe instead of a scan.
    A copy shares every bucket with its original and copies a bucket only
    when it first changes it, so privatising an index for a write costs
    one dictionary copy per position, not one set per distinct value.
    """

    __slots__ = ("arity", "by_position", "_owned")

    def __init__(self, arity: int, rows: Iterable[Row] = ()) -> None:
        self.arity = arity
        self.by_position: Tuple[Dict[Constant, Set[Row]], ...] = tuple(
            {} for _ in range(arity)
        )
        #: ``None`` while no other index shares a bucket of this one; after
        #: a copy, per position, the values whose bucket it made private.
        self._owned: Optional[Tuple[Set[Constant], ...]] = None
        for row in rows:
            self.add(row)

    def add(self, row: Row) -> None:
        owned = self._owned
        for position, value in enumerate(row):
            buckets = self.by_position[position]
            rows = buckets.get(value)
            if rows is not None and (owned is None or value in owned[position]):
                rows.add(row)
            else:
                buckets[value] = {row} if rows is None else rows | {row}
                if owned is not None:
                    owned[position].add(value)

    def discard(self, row: Row) -> None:
        owned = self._owned
        for position, value in enumerate(row):
            buckets = self.by_position[position]
            rows = buckets.get(value)
            if rows is None:
                continue
            if len(rows) == 1 and row in rows:
                del buckets[value]
            elif owned is None or value in owned[position]:
                rows.discard(row)
            else:
                buckets[value] = rows - {row}
                owned[position].add(value)

    def rows_where(self, position: int, value: Constant) -> Set[Row]:
        return self.by_position[position].get(value, _EMPTY_ROWS)  # type: ignore[return-value]

    def copy(self) -> "_PredicateIndex":
        clone = _PredicateIndex.__new__(_PredicateIndex)
        clone.arity = self.arity
        clone.by_position = tuple(dict(buckets) for buckets in self.by_position)
        # Every bucket is shared now, by both sides.
        clone._owned = tuple(set() for _ in range(self.arity))
        self._owned = tuple(set() for _ in range(self.arity))
        return clone


class DatabaseInstance:
    """A finite set of :class:`Fact` objects over a :class:`DatabaseSchema`.

    The instance is mutable (facts can be added and removed) and cheap to
    copy: :meth:`copy` shares the per-relation row sets (and their hash
    indexes) with the clone and only materialises a private copy of a
    relation when one side mutates it — the repair search branches
    thousands of times without ever duplicating the unchanged relations.
    Equality is extensional: two instances are equal iff they contain the
    same facts (the schema is compared by the relations actually
    populated).
    """

    def __init__(
        self,
        schema: Optional[DatabaseSchema] = None,
        facts: Iterable[Fact] = (),
    ) -> None:
        self._schema = schema if schema is not None else DatabaseSchema()
        #: Monotone mutation counter: bumped on every effective insert or
        #: delete, never decremented (a rolled-back change still advances
        #: it).  Cache layers key derived state on it — equal generations
        #: of the same instance guarantee equal contents.
        self._generation = 0
        self._tuples: Dict[str, Set[Tuple[Constant, ...]]] = {}
        #: Predicates whose row set (and index) this instance may mutate in
        #: place; everything else is potentially shared with a copy.
        self._owned: Set[str] = set()
        self._indexes: Dict[str, _PredicateIndex] = {}
        #: Composite-key group caches: predicate → positions → key → rows.
        self._groups: Dict[str, Dict[Tuple[int, ...], Dict[Row, List[Row]]]] = {}
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------ build
    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Iterable[Sequence[Constant]]],
        schema: Optional[DatabaseSchema] = None,
    ) -> "DatabaseInstance":
        """Build an instance from ``{"P": [(a, b), (c, None)], ...}``.

        ``None`` entries are converted to :data:`repro.relational.domain.NULL`.
        When *schema* is omitted one is inferred with generic attribute names.
        """

        instance = cls(schema=schema.copy() if schema is not None else DatabaseSchema())
        for predicate, rows in data.items():
            for row in rows:
                instance.add_tuple(predicate, row)
        return instance

    @classmethod
    def from_facts(
        cls, facts: Iterable[Fact], schema: Optional[DatabaseSchema] = None
    ) -> "DatabaseInstance":
        """Build an instance from an iterable of :class:`Fact`."""

        instance = cls(schema=schema.copy() if schema is not None else DatabaseSchema())
        for fact in facts:
            instance.add(fact)
        return instance

    # ------------------------------------------------------------------ mutate
    def _writable_rows(self, predicate: str, create: bool = False) -> Optional[Set[Row]]:
        """The row set of *predicate*, privatised (copy-on-write) for mutation."""

        rows = self._tuples.get(predicate)
        if rows is None:
            if not create:
                return None
            rows = set()
            self._tuples[predicate] = rows
            self._owned.add(predicate)
            return rows
        if predicate not in self._owned:
            rows = set(rows)
            self._tuples[predicate] = rows
            index = self._indexes.get(predicate)
            if index is not None:
                self._indexes[predicate] = index.copy()
            self._owned.add(predicate)
        return rows

    def _after_insert(self, predicate: str, values: Row) -> None:
        self._generation += 1
        index = self._indexes.get(predicate)
        if index is not None:
            index.add(values)
        self._groups.pop(predicate, None)

    def _after_delete(self, predicate: str, values: Row, rows: Set[Row]) -> None:
        self._generation += 1
        if rows:
            index = self._indexes.get(predicate)
            if index is not None:
                index.discard(values)
        else:
            del self._tuples[predicate]
            self._indexes.pop(predicate, None)
            self._owned.discard(predicate)
        self._groups.pop(predicate, None)

    def add(self, fact: Fact) -> None:
        """Insert *fact* (no-op if already present)."""

        rel = self._schema.relation_from_arity(fact.predicate, fact.arity)
        if rel.arity != fact.arity:
            raise SchemaError(
                f"fact {fact} does not match schema {rel!r} (arity {rel.arity})"
            )
        if fact.values in self._tuples.get(fact.predicate, _EMPTY_ROWS):
            return
        rows = self._writable_rows(fact.predicate, create=True)
        assert rows is not None
        rows.add(fact.values)
        self._after_insert(fact.predicate, fact.values)

    def add_tuple(self, predicate: str, values: Sequence[Constant]) -> None:
        """Insert ``predicate(values)``."""

        self.add(Fact(predicate, values))

    def remove(self, fact: Fact) -> None:
        """Delete *fact*; raises ``KeyError`` if absent."""

        if fact.values not in self._tuples.get(fact.predicate, _EMPTY_ROWS):
            raise KeyError(f"fact {fact} not present in the instance")
        rows = self._writable_rows(fact.predicate)
        assert rows is not None
        rows.remove(fact.values)
        self._after_delete(fact.predicate, fact.values, rows)

    def discard(self, fact: Fact) -> None:
        """Delete *fact* if present (no error otherwise)."""

        if fact.values not in self._tuples.get(fact.predicate, _EMPTY_ROWS):
            return
        rows = self._writable_rows(fact.predicate)
        assert rows is not None
        rows.discard(fact.values)
        self._after_delete(fact.predicate, fact.values, rows)

    # ------------------------------------------------------------------ access
    @property
    def schema(self) -> DatabaseSchema:
        """The schema the instance conforms to."""

        return self._schema

    @property
    def generation(self) -> int:
        """The mutation counter (see ``__init__``); equal generations of the
        same instance object guarantee unchanged contents, so derived state
        (violation sets, query plans, rewritings) can be cached against it."""

        return self._generation

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        return fact.values in self._tuples.get(fact.predicate, set())

    def contains_tuple(self, predicate: str, values: Sequence[Constant]) -> bool:
        """True iff ``predicate(values)`` is in the instance."""

        return Fact(predicate, values) in self

    def tuples(self, predicate: str) -> FrozenSet[Tuple[Constant, ...]]:
        """All value tuples of *predicate* (empty frozenset if none)."""

        return frozenset(self._tuples.get(predicate, set()))

    def rows(self, predicate: str) -> Set[Row]:
        """The live row set of *predicate* — read-only, do not mutate.

        The hot joins iterate this instead of :meth:`tuples` to avoid one
        frozenset copy per probe; callers must treat it as immutable and
        must not hold it across a mutation of the instance.
        """

        return self._tuples.get(predicate, _EMPTY_ROWS)  # type: ignore[return-value]

    def row_count(self, predicate: str) -> int:
        """Number of tuples of *predicate* (0 if the relation is empty)."""

        return len(self._tuples.get(predicate, _EMPTY_ROWS))

    # ------------------------------------------------------------------ indexes
    def _index(self, predicate: str) -> Optional[_PredicateIndex]:
        rows = self._tuples.get(predicate)
        if rows is None:
            return None
        index = self._indexes.get(predicate)
        if index is None:
            index = _PredicateIndex(len(next(iter(rows))), rows)
            self._indexes[predicate] = index
        return index

    def tuples_where(self, predicate: str, position: int, value: Constant) -> Set[Row]:
        """Indexed point lookup: the rows of *predicate* with ``row[position] == value``.

        Returns the live index bucket — read-only, same caveats as
        :meth:`rows`.  An out-of-range position yields the empty set.
        """

        index = self._index(predicate)
        if index is None or position >= index.arity:
            return _EMPTY_ROWS  # type: ignore[return-value]
        return index.rows_where(position, value)

    def tuples_matching(
        self, predicate: str, bound: Mapping[int, Constant]
    ) -> Iterable[Row]:
        """The rows of *predicate* agreeing with *bound* (position → value).

        With no bound positions this is :meth:`rows`; otherwise the most
        selective single-position index bucket is scanned and filtered on
        the remaining positions.
        """

        rows = self._tuples.get(predicate)
        if rows is None:
            return _EMPTY_ROWS
        if not bound:
            return rows
        index = self._index(predicate)
        assert index is not None
        if len(bound) == 1:
            # Single-position probe (the compiled kernel's common case):
            # one dictionary lookup, no schedule scan.
            ((position, value),) = bound.items()
            if position >= index.arity:
                return _EMPTY_ROWS
            return index.rows_where(position, value)
        if any(position >= index.arity for position in bound):
            return _EMPTY_ROWS
        best = min(bound, key=lambda p: len(index.rows_where(p, bound[p])))
        candidates = index.rows_where(best, bound[best])
        return [
            row
            for row in candidates
            if all(row[position] == value for position, value in bound.items())
        ]

    def rows_grouped_by(
        self, predicate: str, positions: Sequence[int]
    ) -> Mapping[Row, List[Row]]:
        """The rows of *predicate* grouped by their projection on *positions*.

        The grouping is cached until the relation is next mutated; the
        conflict graph's key-violation materialisation, the rewriting
        residues and the FD fast paths all share it.  Read-only.
        """

        key = tuple(positions)
        per_predicate = self._groups.setdefault(predicate, {})
        groups = per_predicate.get(key)
        if groups is None:
            groups = {}
            for row in self._tuples.get(predicate, _EMPTY_ROWS):
                groups.setdefault(tuple(row[p] for p in key), []).append(row)
            per_predicate[key] = groups
        return groups

    def facts(self, predicate: Optional[str] = None) -> Iterator[Fact]:
        """Iterate over facts, optionally restricted to one predicate."""

        predicates: Iterable[str]
        if predicate is None:
            predicates = sorted(self._tuples)
        else:
            predicates = [predicate] if predicate in self._tuples else []
        for pred in predicates:
            for values in sorted(self._tuples[pred], key=lambda vs: tuple(constant_sort_key(v) for v in vs)):
                yield Fact(pred, values)

    def fact_set(self) -> FrozenSet[Fact]:
        """The instance as a frozen set of facts."""

        return frozenset(self.facts())

    @property
    def predicates(self) -> List[str]:
        """Sorted names of the relations with at least one tuple."""

        return sorted(self._tuples)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._tuples.values())

    def __iter__(self) -> Iterator[Fact]:
        return self.facts()

    def __bool__(self) -> bool:
        return len(self) > 0

    # ------------------------------------------------------------------ domain
    def active_domain(self, include_null: bool = False) -> FrozenSet[Constant]:
        """``adom(D)``: the constants occurring in the instance.

        Per the paper's convention, ``null`` is excluded unless
        *include_null* is true (Proposition 1 adds it back explicitly).
        """

        values: Set[Constant] = set()
        for rows in self._tuples.values():
            for row in rows:
                for value in row:
                    if include_null or not is_null(value):
                        values.add(value)
        return frozenset(values)

    def has_nulls(self) -> bool:
        """True iff any fact contains a ``null`` value."""

        return any(fact.has_null() for fact in self.facts())

    def null_count(self) -> int:
        """Total number of ``null`` occurrences in the instance."""

        return sum(len(fact.null_positions()) for fact in self.facts())

    # ------------------------------------------------------------------ set ops
    def copy(self) -> "DatabaseInstance":
        """Cheap copy-on-write copy.

        The clone shares every relation's row set, hash index and group
        cache with ``self``; both sides privatise a relation the first time
        they mutate it (see :meth:`_writable_rows`), so copying is O(number
        of relations) regardless of instance size.  This is what lets the
        repair search branch thousands of times — and every search of
        :mod:`repro.core.parallel` work on its own copy of the base
        instance — without ever duplicating unchanged relations.

        >>> original = DatabaseInstance.from_dict({"P": [(1, 2)]})
        >>> clone = original.copy()
        >>> clone.add_tuple("P", (3, 4))
        >>> (len(original), len(clone))
        (1, 2)
        """

        clone = DatabaseInstance(schema=self._schema.copy())
        clone._generation = self._generation
        clone._tuples = dict(self._tuples)
        clone._indexes = dict(self._indexes)
        clone._groups = dict(self._groups)
        clone._owned = set()
        self._owned = set()  # the originals are shared now, too
        return clone

    def with_delta(
        self, inserted: Iterable[Fact], deleted: Iterable[Fact]
    ) -> "DatabaseInstance":
        """A copy-on-write copy of ``self`` minus *deleted* plus *inserted*.

        How the repair search materialises a repair from its ``∆(D, ·)``:
        every relation the change leaves alone shares its rows, hash index
        and group cache with ``self``; a touched relation gets private rows
        and *no* index, which is rebuilt lazily only if a query probes it.

        >>> base = DatabaseInstance.from_dict({"P": [(1, 2)], "R": [(3,)]})
        >>> repair = base.with_delta([Fact("P", (5, 6))], [Fact("P", (1, 2))])
        >>> (sorted(map(repr, repair.facts())), len(base))
        (['P(5, 6)', 'R(3)'], 2)
        """

        additions = tuple(inserted)
        removals = tuple(deleted)
        clone = self.copy()
        for fact in additions + removals:
            clone._indexes.pop(fact.predicate, None)
            clone._groups.pop(fact.predicate, None)
        for fact in removals:
            clone.discard(fact)
        for fact in additions:
            clone.add(fact)
        return clone

    def union(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Instance containing the facts of both operands."""

        result = self.copy()
        for fact in other.facts():
            result.add(fact)
        return result

    def difference(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Facts of ``self`` not present in *other*."""

        result = DatabaseInstance(schema=self._schema.copy())
        for fact in self.facts():
            if fact not in other:
                result.add(fact)
        return result

    def symmetric_difference(self, other: "DatabaseInstance") -> FrozenSet[Fact]:
        """``∆(self, other)`` as a frozen set of facts (the paper's distance)."""

        return frozenset(self.fact_set() ^ other.fact_set())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self.fact_set() == other.fact_set()

    def __hash__(self) -> int:
        return hash(self.fact_set())

    # ------------------------------------------------------------------ export
    def to_dict(self) -> Dict[str, List[Tuple[Constant, ...]]]:
        """Plain-Python view ``{"P": [rows...]}`` in deterministic order."""

        return {
            pred: [fact.values for fact in self.facts(pred)]
            for pred in self.predicates
        }

    def pretty(self) -> str:
        """Multi-line, table-per-relation rendering used by the examples."""

        lines: List[str] = []
        for pred in self.predicates:
            rel = self._schema.relation(pred) if pred in self._schema else None
            header = (
                f"{pred}({', '.join(rel.attributes)})" if rel is not None else pred
            )
            lines.append(header)
            for fact in self.facts(pred):
                lines.append("  " + ", ".join(format_constant(v) for v in fact.values))
        return "\n".join(lines)

    def __repr__(self) -> str:
        inner = ", ".join(repr(fact) for fact in self.facts())
        return "{" + inner + "}"
