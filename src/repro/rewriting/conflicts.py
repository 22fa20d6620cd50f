"""Materialised conflict graphs: which facts fight which, and how badly.

The repair engine resolves violations one at a time; a repair count
can be *estimated* without it from the pairwise structure of the
violations (``report()`` does so for the engines that materialise no
repairs):

* a **forced mark** is a fact deleted in every repair (a NOT-NULL or
  single-atom denial/check violation — no insertion can fix those);
* a **choice mark** is a fact some repairs delete and others keep (a
  dangling referential-constraint antecedent: delete it, or insert the
  null-padded witness);
* an **edge** connects two facts of one multi-atom violation (an FD
  conflict, a multi-atom denial): every repair deletes at least one
  endpoint, and each endpoint survives in some repair.

:meth:`ConflictGraph.build` materialises the graph directly from the
instance with per-shape fast paths — FD edges through the instance's
cached key groupings, RIC marks through the compiled delta plans of the
shared certainty residue (one early-exit
:meth:`~repro.compile.kernel.CompiledConstraint.has_violation_at` run
per fact), and everything else through the compiled violation
enumeration — instead of the quadratic generic join;
:meth:`ConflictGraph.from_sql` pushes the same work into SQLite through
:func:`repro.sqlbackend.backend.violation_sql` for scale.  The two agree,
and both agree with :func:`repro.core.satisfaction.violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union

from repro.relational.domain import Constant, is_null
from repro.relational.instance import DatabaseInstance, Fact
from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.core.satisfaction import violations as enumerate_violations
from repro.rewriting.fragment import fd_shape

#: Safety cap for repair-count estimates (``report()``'s ``repair_count``
#: on the engines that materialise no repairs).
ESTIMATE_CAP = 2 ** 62


@dataclass(frozen=True)
class ConflictEdge:
    """Two facts of one multi-atom violation; every repair drops one of them."""

    first: Fact
    second: Fact
    constraint: AnyConstraint


@dataclass(frozen=True)
class ConflictMark:
    """A single-fact violation.  ``forced`` marks are deleted in every repair."""

    fact: Fact
    constraint: AnyConstraint
    forced: bool


class ConflictGraph:
    """Pairwise violation structure of an instance w.r.t. a constraint set."""

    def __init__(self, marks: Iterable[ConflictMark], edges: Iterable[ConflictEdge]):
        self.marks: List[ConflictMark] = []
        self.edges: List[ConflictEdge] = []
        seen_marks: Set[Tuple[Fact, int, bool]] = set()
        for mark in marks:
            key = (mark.fact, id(mark.constraint), mark.forced)
            if key not in seen_marks:
                seen_marks.add(key)
                self.marks.append(mark)
        # The violation join enumerates ordered matches, so the same
        # unordered conflict may arrive twice; keep one edge per pair.
        seen_edges: Set[Tuple[FrozenSet[Fact], int]] = set()
        for edge in edges:
            key = (frozenset((edge.first, edge.second)), id(edge.constraint))
            if key not in seen_edges:
                seen_edges.add(key)
                self.edges.append(edge)

    # ------------------------------------------------------------------ stats
    @property
    def violation_count(self) -> int:
        """Total number of materialised marks and edges."""

        return len(self.marks) + len(self.edges)

    def conflicting_facts(self) -> FrozenSet[Fact]:
        """Every fact involved in some violation."""

        facts: Set[Fact] = {mark.fact for mark in self.marks}
        for edge in self.edges:
            facts.add(edge.first)
            facts.add(edge.second)
        return frozenset(facts)

    def is_consistent(self) -> bool:
        """True iff the graph is empty (no violations at all)."""

        return not self.marks and not self.edges

    def per_constraint_counts(self) -> Dict[str, int]:
        """Violation counts keyed by constraint name (``ic<i>`` when unnamed)."""

        counts: Dict[str, int] = {}
        for index, item in enumerate(self.marks + self.edges):  # type: ignore[operator]
            name = getattr(item.constraint, "name", None) or repr(item.constraint)
            counts[name] = counts.get(name, 0) + 1
        return counts

    def components(self) -> List[FrozenSet[Fact]]:
        """Connected components of the edge graph (isolated marks excluded)."""

        parent: Dict[Fact, Fact] = {}

        def find(fact: Fact) -> Fact:
            root = fact
            while parent.get(root, root) is not root:
                root = parent[root]
            while parent.get(fact, fact) is not fact:
                parent[fact], fact = root, parent[fact]
            return root

        for edge in self.edges:
            for fact in (edge.first, edge.second):
                parent.setdefault(fact, fact)
            parent[find(edge.first)] = find(edge.second)

        grouped: Dict[Fact, Set[Fact]] = {}
        for fact in parent:
            grouped.setdefault(find(fact), set()).add(fact)
        return [frozenset(members) for members in grouped.values()]

    def estimated_repair_count(self) -> int:
        """A cheap estimate of how many repairs enumeration would produce.

        Each edge component contributes roughly one choice per member (an
        FD group of size ``g`` has up to ``g`` repairs), each choice mark
        doubles the count (delete vs. insert) and forced marks contribute
        nothing.  Capped at :data:`ESTIMATE_CAP`; the estimate is only
        reported, it is not used for answers.
        """

        estimate = 1
        for component in self.components():
            estimate *= max(len(component), 1)
            if estimate >= ESTIMATE_CAP:
                return ESTIMATE_CAP
        choice_facts = {mark.fact for mark in self.marks if not mark.forced}
        for _ in choice_facts:
            estimate *= 2
            if estimate >= ESTIMATE_CAP:
                return ESTIMATE_CAP
        return estimate

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        instance: DatabaseInstance,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    ) -> "ConflictGraph":
        """Materialise the graph in memory, with per-shape fast paths."""

        marks: List[ConflictMark] = []
        edges: List[ConflictEdge] = []
        for constraint in constraints:
            if isinstance(constraint, NotNullConstraint):
                _not_null_marks(instance, constraint, marks)
                continue
            fd = fd_shape(constraint)
            if fd is not None:
                _fd_edges(instance, constraint, fd.determinant, fd.dependent, edges)
                continue
            if constraint.is_referential:
                _ric_marks(instance, constraint, marks)
                continue
            _generic(instance, constraint, marks, edges)
        return cls(marks, edges)

    @classmethod
    def from_sql(
        cls,
        instance: DatabaseInstance,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    ) -> "ConflictGraph":
        """Materialise the graph by running each ``violation_sql`` in SQLite.

        The violation query of a constraint with antecedent atoms
        ``P_1, …, P_m`` selects the joined row ``t_1 ⋈ … ⋈ t_m``; slicing
        it at the atom arities recovers the participating facts.
        """

        from repro.sqlbackend.backend import SQLiteBackend

        marks: List[ConflictMark] = []
        edges: List[ConflictEdge] = []
        with SQLiteBackend(instance, constraints) as backend:
            for constraint in constraints:
                rows = backend.violations(constraint)
                if isinstance(constraint, NotNullConstraint):
                    for row in rows:
                        fact = _fact_from_row(constraint.predicate, row)
                        marks.append(ConflictMark(fact, constraint, forced=True))
                    continue
                single = len(constraint.body) == 1
                for row in rows:
                    facts = _slice_body_facts(constraint, row)
                    if single or len(set(facts)) == 1:
                        marks.append(
                            ConflictMark(
                                facts[0],
                                constraint,
                                forced=not constraint.head_atoms,
                            )
                        )
                    else:
                        _pairwise(facts, constraint, edges)
        return cls(marks, edges)


# --------------------------------------------------------------------------- helpers
def _fact_from_row(predicate: str, row: Tuple[object, ...]) -> Fact:
    return Fact(predicate, tuple(row))


def _slice_body_facts(
    constraint: IntegrityConstraint, row: Tuple[object, ...]
) -> List[Fact]:
    facts: List[Fact] = []
    cursor = 0
    for atom in constraint.body:
        values = tuple(row[cursor : cursor + atom.arity])
        facts.append(Fact(atom.predicate, values))
        cursor += atom.arity
    return facts


def _pairwise(
    facts: List[Fact], constraint: AnyConstraint, edges: List[ConflictEdge]
) -> None:
    distinct: List[Fact] = []
    for fact in facts:
        if fact not in distinct:
            distinct.append(fact)
    for i, first in enumerate(distinct):
        for second in distinct[i + 1 :]:
            edges.append(ConflictEdge(first, second, constraint))


def _not_null_marks(
    instance: DatabaseInstance, constraint: NotNullConstraint, marks: List[ConflictMark]
) -> None:
    for row in instance.tuples(constraint.predicate):
        if constraint.position < len(row) and is_null(row[constraint.position]):
            marks.append(
                ConflictMark(Fact(constraint.predicate, row), constraint, forced=True)
            )


def _fd_edges(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    determinant: Tuple[int, ...],
    dependent: int,
    edges: List[ConflictEdge],
) -> None:
    predicate = constraint.body[0].predicate
    # The instance's cached composite-key grouping is shared with the
    # rewriting residues and the repair engine's seeded FD updates.
    for key, group in instance.rows_grouped_by(predicate, determinant).items():
        if any(is_null(v) for v in key):
            continue  # a null relevant attribute never fires the FD under |=_N
        rows = [row for row in group if not is_null(row[dependent])]
        for i, first in enumerate(rows):
            for second in rows[i + 1 :]:
                if first[dependent] != second[dependent]:
                    edges.append(
                        ConflictEdge(
                            Fact(predicate, first), Fact(predicate, second), constraint
                        )
                    )


def _ric_marks(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    marks: List[ConflictMark],
) -> None:
    """Dangling antecedent facts, through the shared RIC certainty residue."""

    from repro.rewriting.residues import RICResidue

    residue = RICResidue(constraint)
    predicate = constraint.body[0].predicate
    for row in instance.tuples(predicate):
        if not residue.holds(row, instance):
            marks.append(ConflictMark(Fact(predicate, row), constraint, forced=False))


def _generic(
    instance: DatabaseInstance,
    constraint: IntegrityConstraint,
    marks: List[ConflictMark],
    edges: List[ConflictEdge],
) -> None:
    for violation in enumerate_violations(instance, constraint):
        facts = list(violation.body_facts)
        if len(set(facts)) == 1:
            marks.append(
                ConflictMark(
                    facts[0], constraint, forced=not constraint.head_atoms
                )
            )
        else:
            _pairwise(facts, constraint, edges)
