"""First-order rewriting of conjunctive queries for consistent answering.

``rewrite_query(query, constraints)`` produces a :class:`RewrittenQuery`
``Q'`` such that the *plain* answers of ``Q'`` on the inconsistent
database equal the consistent answers of ``Q`` — one polynomial-time
evaluation instead of exponentially many repairs.  The construction
conjoins, to every query atom, the certainty residues of
:mod:`repro.rewriting.residues`; which residues apply depends on how the
atom's positions are used by the query:

* a term is **pinned** when it is a constant or a head variable — the
  answer tuple then determines the matched value, so certainty is a
  per-fact condition;
* a variable is **unpinned** (an "orphan") when it occurs exactly once in
  the whole query — the query only needs *some* surviving value there.

For an atom over a key-constrained predicate the non-determinant
positions must be either all pinned (the atom requires the full
no-live-conflict condition) or all unpinned (the key residue is dropped:
every repair keeps at least one member of each conflicting key group, so
group survival — certainty of the member w.r.t. the *other* constraints —
suffices).  Mixing the two, or joining through a non-determinant
position, is exactly where first-order rewritings stop being complete
(the Fuxman–Miller non-``C_forest`` territory), so those queries raise
:class:`~repro.rewriting.fragment.RewritingUnsupportedError` and the
planner falls back to repair enumeration.

Atoms over predicates constrained by multi-atom denial constraints must
be fully pinned: a violation ``{t₁, t₂}`` has repairs keeping either
fact, so an unpinned query could be certain through different facts in
different repairs, which no per-fact condition captures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.relational.domain import Constant
from repro.relational.instance import DatabaseInstance
from repro.constraints.atoms import Atom
from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.constraints.terms import Variable, is_variable
from repro.logic.formula import (
    AtomFormula,
    ComparisonFormula,
    Exists,
    Formula,
    conjunction,
)
from repro.logic.queries import ConjunctiveQuery, FirstOrderQuery, Query
from repro.rewriting.fragment import (
    FragmentAnalysis,
    RewritingUnsupportedError,
    analyze_constraints,
)
from repro.rewriting.residues import (
    CheckResidue,
    DenialResidue,
    FDResidue,
    FreshVariables,
    NotNullResidue,
    Residue,
    RICResidue,
)


Row = Tuple[Constant, ...]
AnswerSet = FrozenSet[Tuple[Constant, ...]]


@dataclass
class AtomRewriting:
    """One query atom together with its certainty residues."""

    atom: Atom
    residues: List[Residue]
    mode: str  # "plain" | "key-pinned" | "key-group" | "denial-pinned"

    def __repr__(self) -> str:
        residues = ", ".join(repr(r) for r in self.residues) or "—"
        return f"{self.atom!r} [{self.mode}] ⟜ {residues}"


@dataclass
class RewrittenQuery:
    """The rewritten query ``Q'``: base conjunctive query plus residues."""

    query: ConjunctiveQuery
    analysis: FragmentAnalysis
    atoms: List[AtomRewriting]

    # ------------------------------------------------------------------ evaluation
    def answers(
        self,
        instance: DatabaseInstance,
        null_is_unknown: bool = False,
        candidate: Optional[Sequence[Constant]] = None,
    ) -> AnswerSet:
        """The consistent answers, by one run of the base query's compiled plan.

        Every match of :func:`~repro.compile.kernel.compiled_query`'s
        join counts only if each matched row satisfies its atom's
        residues; the verdicts are memoised per (atom, row).  With
        *candidate*, that one tuple is decided instead: ``{candidate}``
        or ``∅``, from a run that stops at the first certain match.
        """

        from repro.compile.kernel import compiled_query

        checked = [
            (index, rewriting.residues)
            for index, rewriting in enumerate(self.atoms)
            if rewriting.residues
        ]
        verdicts: Dict[Tuple[int, Row], bool] = {}

        def certain(rows: Sequence[Optional[Row]]) -> bool:
            for index, residues in checked:
                key = (index, rows[index])
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = all(residue.holds(key[1], instance) for residue in residues)
                    verdicts[key] = verdict
                if not verdict:
                    return False
            return True

        return compiled_query(self.query).answers(
            instance,
            null_is_unknown,
            candidate=candidate,
            keep=certain if checked else None,
        )

    def holds(self, instance: DatabaseInstance, null_is_unknown: bool = False) -> bool:
        """For a boolean query: is *yes* the consistent answer?"""

        return bool(self.answers(instance, null_is_unknown=null_is_unknown))

    # ------------------------------------------------------------------ renderings
    def to_formula(self) -> FirstOrderQuery:
        """``Q'`` as a genuine first-order query (null-aware residues inlined).

        The result is evaluable with the generic active-domain evaluator —
        exponentially slower than :meth:`answers` but independently
        checkable; the tests cross-validate the two on small instances.
        """

        fresh = FreshVariables()
        parts: List[Formula] = []
        for rewriting in self.atoms:
            parts.append(AtomFormula(rewriting.atom))
            for residue in rewriting.residues:
                parts.append(residue.formula(rewriting.atom.terms, fresh))
        for comparison in self.query.comparisons:
            parts.append(ComparisonFormula(comparison))
        body = conjunction(parts)
        head = self.query.head_variables
        bound = body.free_variables() - set(head)
        if bound:
            body = Exists(tuple(sorted(bound, key=lambda v: v.name)), body)
        return FirstOrderQuery(head, body, name=self.query.name)

    def to_sql(self, schema, null_is_unknown: bool = True) -> str:
        """``Q'`` compiled to a single SQL ``SELECT`` (see :mod:`.sqlgen`).

        *null_is_unknown* picks the null convention for the base query's
        comparisons, mirroring :meth:`answers`; the default keeps SQL's
        native three-valued behaviour.
        """

        from repro.rewriting.sqlgen import rewritten_query_sql

        return rewritten_query_sql(self, schema, null_is_unknown=null_is_unknown)

    def explain(self) -> str:
        """Human-readable summary of the per-atom rewriting."""

        lines = [f"rewriting of {self.query!r}:"]
        for rewriting in self.atoms:
            lines.append(f"  {rewriting!r}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- rewriting
def rewrite_query(
    query: Query,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint], FragmentAnalysis],
) -> RewrittenQuery:
    """Rewrite *query* for consistent answering, or raise.

    Raises :class:`RewritingUnsupportedError` when the constraints or the
    query fall outside the tractable fragment (see the module docstring).
    """

    if isinstance(constraints, FragmentAnalysis):
        analysis = constraints
    else:
        analysis = analyze_constraints(constraints)
    if not isinstance(query, ConjunctiveQuery):
        raise RewritingUnsupportedError(
            "only conjunctive queries can be rewritten; first-order queries "
            "require repair enumeration",
            clause="non-conjunctive-query",
        )
    if query.negative_atoms:
        raise RewritingUnsupportedError(
            "queries with negated atoms are not monotone under repair "
            "insertions; the rewriting would be unsound",
            clause="negated-query-atom",
        )

    occurrences = _occurrence_counts(query)
    head_vars = set(query.head_variables)
    atoms: List[AtomRewriting] = []
    for atom in query.positive_atoms:
        atoms.append(_rewrite_atom(atom, query, analysis, occurrences, head_vars))
    return RewrittenQuery(query=query, analysis=analysis, atoms=atoms)


def _occurrence_counts(query: ConjunctiveQuery) -> Counter:
    counts: Counter = Counter()
    for variable in query.head_variables:
        counts[variable] += 1
    for atom in query.positive_atoms:
        for term in atom.terms:
            if is_variable(term):
                counts[term] += 1
    for comparison in query.comparisons:
        for term in (comparison.left, comparison.right):
            if is_variable(term):
                counts[term] += 1
    return counts


def _rewrite_atom(
    atom: Atom,
    query: ConjunctiveQuery,
    analysis: FragmentAnalysis,
    occurrences: Counter,
    head_vars: Set[Variable],
) -> AtomRewriting:
    predicate = atom.predicate
    residues: List[Residue] = []
    for nnc in analysis.not_nulls.get(predicate, []):
        residues.append(NotNullResidue(nnc))
    for check in analysis.checks.get(predicate, []):
        residues.append(CheckResidue(check))
    for ric in analysis.rics_with_antecedent(predicate):
        residues.append(RICResidue(ric))

    mode = "plain"
    denials = analysis.denials_mentioning(predicate)
    if denials:
        for position, term in enumerate(atom.terms):
            if is_variable(term) and term not in head_vars:
                raise RewritingUnsupportedError(
                    f"variable {term.name} at {predicate}[{position + 1}] is not an "
                    "answer variable, but the predicate is constrained by a "
                    "multi-atom denial: the certain answer may be supported by "
                    "different facts in different repairs",
                    clause="non-answer-variable-in-denial",
                    predicate=predicate,
                )
        for denial in denials:
            for index, body_atom in enumerate(denial.body):
                if body_atom.predicate == predicate:
                    residues.append(DenialResidue(denial, index))
        mode = "denial-pinned"

    key = analysis.keys.get(predicate)
    if key is not None:
        non_determinant = [
            p for p in range(atom.arity) if p not in set(key.determinant)
        ]
        pinned: List[int] = []
        unpinned: List[int] = []
        for position in non_determinant:
            term = atom.terms[position]
            if not is_variable(term) or term in head_vars:
                pinned.append(position)
            elif occurrences[term] == 1:
                unpinned.append(position)
            else:
                raise RewritingUnsupportedError(
                    f"variable {term.name} at the non-determinant position "
                    f"{predicate}[{position + 1}] is joined, compared or repeated: "
                    "key repairs can co-vary with the join partner across repairs "
                    "(outside the C_forest-style fragment)",
                    clause="joined-non-determinant",
                    predicate=predicate,
                )
        if pinned and unpinned:
            raise RewritingUnsupportedError(
                f"atom {atom!r} mixes pinned and unpinned non-determinant "
                f"positions of the key on {predicate}: group survival does not "
                "imply survival of a member matching the pinned values",
                clause="mixed-pinned-unpinned",
                predicate=predicate,
            )
        if pinned:
            residues.append(FDResidue(key))
            mode = "key-pinned"
        else:
            # All non-determinant positions unpinned: every repair keeps at
            # least one member of the (non-null) key group, so the other
            # residues on the matched member are the whole condition.  That
            # survival argument needs FD branching to be the *only* way a
            # group member dies: if the predicate is also a RIC antecedent,
            # a dangling member can be deleted by the RIC after the FD
            # branch removed its partner, emptying the group in some repair.
            if analysis.rics_with_antecedent(predicate):
                raise RewritingUnsupportedError(
                    f"atom {atom!r} leaves non-determinant positions of the key "
                    f"on {predicate} unpinned while {predicate} is also the "
                    "antecedent of a referential constraint: a key group can be "
                    "emptied by interleaved key/referential deletions, so group "
                    "survival is not guaranteed",
                    clause="unpinned-key-with-ric",
                    predicate=predicate,
                )
            mode = "key-group"

    return AtomRewriting(atom=atom, residues=residues, mode=mode)


