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

:meth:`ConflictGraph.build` reads all of that off a violation list, as
Hippo builds its conflict hypergraph from the violation set (Chomicki,
Marcinkowski & Staworko, CIKM 2004).  The session passes its warm
:class:`~repro.core.repairs.ViolationTracker`'s violations, so the graph
costs no join of its own; a standalone caller passes
:func:`repro.core.satisfaction.all_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.relational.instance import Fact
from repro.constraints.ic import AnyConstraint, NotNullConstraint
from repro.core.satisfaction import Violation

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
    def build(cls, violations: Iterable[Violation]) -> "ConflictGraph":
        """Classify *violations* into marks and edges, in one pass.

        A violation with one distinct body fact becomes a mark, forced
        iff its constraint is a NOT-NULL or has no consequent atom (no
        insertion can fix it); any other violation becomes an edge
        between each pair of its distinct body facts.
        """

        marks: List[ConflictMark] = []
        edges: List[ConflictEdge] = []
        for violation in violations:
            constraint = violation.constraint
            facts = list(dict.fromkeys(violation.body_facts))
            if len(facts) == 1:
                forced = (
                    isinstance(constraint, NotNullConstraint)
                    or not constraint.head_atoms
                )
                marks.append(ConflictMark(facts[0], constraint, forced))
                continue
            for i, first in enumerate(facts):
                for second in facts[i + 1 :]:
                    edges.append(ConflictEdge(first, second, constraint))
        return cls(marks, edges)
