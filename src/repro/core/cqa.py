"""Consistent query answering (Definition 8, Theorems 2–3).

A ground tuple ``t̄`` is a *consistent answer* to a query ``Q(x̄)`` in ``D``
w.r.t. ``IC`` iff ``t̄`` is an answer to ``Q`` in every repair of ``D``;
for a boolean query the consistent answer is *yes* iff the sentence holds
in every repair.  Five evaluation strategies are provided, each a
registered engine of :mod:`repro.engines`:

* ``method="direct"`` — enumerate the repairs with the repair engine of
  :mod:`repro.core.repairs`, as minimal deltas over a snapshot of ``D``.
  A conjunctive query without negated atoms is decided from the deltas
  (Hippo's envelope-and-check scheme: Chomicki, Marcinkowski & Staworko,
  *Computing consistent query answers using conflict hypergraphs*, CIKM
  2004): its compiled plan runs once over the *envelope*, ``D`` plus
  every repair's inserted facts, and an answer is certain iff every
  repair keeps all the facts of one of its matches — at once when a
  match uses only base facts no repair deletes.  No repair is built.
  Any other query is evaluated on every repair and the answer sets
  intersected;
* ``method="program"`` — compute the repairs as the stable models of the
  repair program ``Π(D, IC)`` (cautious reasoning over the program, as the
  paper proposes), evaluate the query on each and intersect;
* ``method="rewriting"`` — rewrite the query into a null-aware
  first-order query evaluated once on ``D`` (no repairs materialised;
  polynomial time) via :mod:`repro.rewriting`.  Raises
  :class:`repro.rewriting.RewritingUnsupportedError` outside the
  tractable fragment;
* ``method="sqlite"`` — the same rewriting compiled to SQL and evaluated
  entirely inside SQLite (same applicability as ``"rewriting"``);
* ``method="independent"`` — plain evaluation for queries statically
  proven constraint-independent (no constraint touches any predicate the
  query reads; diagnostic ``I302`` of :mod:`repro.analysis`).  Raises
  :class:`repro.analysis.QueryNotIndependentError` otherwise;
* ``method="auto"`` — let the planner of :mod:`repro.rewriting.planner`
  choose from (constraints, query) alone: the independence fast path
  when it is proven, else the rewriting whenever it applies, otherwise
  repair enumeration.  Never raises ``RewritingUnsupportedError``.

All strategies return the same answers; the benchmarks compare their
cost.  Query evaluation inside a repair uses the ``|=^q_N`` convention
described in :mod:`repro.logic.queries` (``null`` as an ordinary constant
by default, SQL-style unknown comparisons on request).

The functions below are the original functional API, kept as thin
wrappers over a throwaway :class:`repro.session.ConsistentDatabase`; a
long-lived session amortises planning, rewriting, violation tracking and
repair enumeration across calls, which these one-shot wrappers cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.obs import trace as _trace
from repro.relational.domain import Constant
from repro.relational.instance import DatabaseInstance, Fact, Row
from repro.constraints.atoms import BuiltinEvaluationError
from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.core.repairs import RepairSequence
from repro.logic.queries import ConjunctiveQuery, Query
from repro.resilience import budget as _budget

if TYPE_CHECKING:
    from repro.rewriting.planner import CQAPlan


AnswerTuple = Tuple[Constant, ...]

#: The evaluation strategies accepted by the ``method`` parameter: the
#: built-in engine names and ``"auto"``, which runs the engine its plan
#: names (:func:`repro.engines.available_engines` is the live registry,
#: which third-party engines may extend).
CQA_METHODS = ("direct", "program", "rewriting", "independent", "auto", "sqlite")


@dataclass
class CQAResult:
    """The outcome of one consistent-query-answering computation.

    For the enumeration methods ``repair_count`` is exact.  The engines
    that materialise no repairs (rewriting, independent, sqlite) mark
    ``repair_count_estimated``; their ``repair_count`` is ``-1`` in the
    engine's result, and :meth:`repro.session.ConsistentDatabase.report`
    — the one surface that returns a repair count — replaces it with the
    conflict-graph estimate.
    """

    answers: FrozenSet[AnswerTuple]
    repair_count: int
    method: str = "direct"
    repair_count_estimated: bool = False
    plan: Optional["CQAPlan"] = None  #: the CQAPlan when ``method="auto"`` was used

    @property
    def certain(self) -> bool:
        """For boolean queries: True iff the empty tuple is a consistent answer."""

        return () in self.answers


def result_from_repairs(
    repairs: Sequence[DatabaseInstance],
    query: Query,
    null_is_unknown: bool = False,
    method: str = "direct",
) -> CQAResult:
    """The answers common to every repair, as a :class:`CQAResult`.

    The shared back half of every repair-enumerating engine.  When
    *repairs* is a :class:`~repro.core.repairs.RepairSequence` and
    *query* a conjunctive query without negated atoms, the answers are
    decided from the repairs' deltas (:func:`_answers_from_deltas`) and
    no repair is built.  Otherwise, and when a comparison raises on a
    match of the envelope, the query is evaluated on every repair and
    the answer sets are intersected: the reference for first-order
    queries, negation, the program route and the naive search.  An
    empty repair list only happens with conflicting NNCs (a
    non-conflicting constraint set always has at least one repair,
    Proposition 1), in which case nothing is certain.
    """

    if not repairs:
        return CQAResult(answers=frozenset(), repair_count=0, method=method)

    with _trace.span("answers.assemble") as sp:
        if sp:
            sp.add(repairs=len(repairs), query=str(query))
        answers: Optional[AbstractSet[AnswerTuple]] = None
        if (
            isinstance(repairs, RepairSequence)
            and isinstance(query, ConjunctiveQuery)
            and not query.negative_atoms
        ):
            answers = _answers_from_deltas(repairs, query, null_is_unknown)
        if answers is None:
            answers = _intersected(repairs, query, null_is_unknown)
        if sp:
            sp.add(answers=len(answers))
    return CQAResult(
        answers=frozenset(answers), repair_count=len(repairs), method=method
    )


def _intersected(
    repairs: Sequence[DatabaseInstance], query: Query, null_is_unknown: bool
) -> FrozenSet[AnswerTuple]:
    """Evaluate *query* on every repair and intersect the answer sets."""

    answers: Optional[FrozenSet[AnswerTuple]] = None
    with _trace.span("query.eval"):
        for repair in repairs:
            if query.is_boolean:
                holds = query.holds(repair, null_is_unknown=null_is_unknown)
                found = frozenset({()}) if holds else frozenset()
            else:
                found = query.answers(repair, null_is_unknown=null_is_unknown)
            answers = found if answers is None else answers & found
    assert answers is not None
    return answers


def _answers_from_deltas(
    repairs: RepairSequence, query: ConjunctiveQuery, null_is_unknown: bool
) -> Optional[Set[AnswerTuple]]:
    """Decide the consistent answers from the repairs' ``(Δins, Δdel)``.

    Every match of *query* in a repair is a match in the *envelope*, the
    base plus every repair's inserted facts, so the query's compiled
    plan runs once there.  A match's *witness* is the facts it uses, one
    per positive atom.  Only a fact some delta mentions can be missing
    from a repair, and each such fact gets a bit.  A witness without one
    is in every repair, so its answer is certain.  Any other answer is
    certain iff every repair keeps one of its witnesses: none of the
    witness's base facts is in the repair's Δdel and all of its other
    facts are in its Δins, i.e. the witness shares no bit with the delta
    facts that repair lacks.

    Returns ``None`` when a comparison raises
    :class:`~repro.constraints.atoms.BuiltinEvaluationError` on an
    envelope match: that match may be in no repair, so only the
    per-repair reference knows whether the request raises.
    """

    from repro.compile.kernel import compiled_query

    bits: Dict[str, Dict[Row, int]] = {}
    count = 0

    def mask(facts: FrozenSet[Fact]) -> int:
        nonlocal count
        total = 0
        for fact in facts:
            table = bits.setdefault(fact.predicate, {})
            bit = table.get(fact.values)
            if bit is None:
                bit = table[fact.values] = 1 << count
                count += 1
            total |= bit
        return total

    masks = [(mask(inserted), mask(deleted)) for inserted, deleted in repairs.deltas]
    inserted_any = 0
    for inserted_bits, _ in masks:
        inserted_any |= inserted_bits
    # A repair lacks its own deletions and every other repair's insertions.
    lacking = [deleted | (inserted_any & ~inserted) for inserted, deleted in masks]

    tables = [bits.get(atom.predicate, {}) for atom in query.positive_atoms]
    certain: Set[AnswerTuple] = set()
    witnesses: Dict[AnswerTuple, Set[int]] = {}
    with _trace.span("query.envelope"):
        envelope = repairs.base.with_delta(
            {fact for inserted, _ in repairs.deltas for fact in inserted}, ()
        )
        try:
            for answer, rows in compiled_query(query).matches(envelope, null_is_unknown):
                if answer in certain:
                    continue
                witness = 0
                for table, row in zip(tables, rows):
                    witness |= table.get(row, 0)
                if witness:
                    witnesses.setdefault(answer, set()).add(witness)
                else:
                    certain.add(answer)
        except BuiltinEvaluationError:
            return None
    budget = _budget.active()
    for answer, kept in witnesses.items():
        if answer in certain:
            continue
        budget.checkpoint()
        if all(any(not witness & missing for witness in kept) for missing in lacking):
            certain.add(answer)
    return certain


def consistent_answers_report(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
    method: str = "direct",
    null_is_unknown: bool = False,
    max_states: Optional[int] = 200_000,
    repair_mode: str = "parallel",
    deadline: Optional[float] = None,
) -> CQAResult:
    """Full report: consistent answers plus repair statistics.

    Args:
        instance: the (possibly inconsistent) database.
        constraints: the integrity constraints.
        query: the conjunctive or first-order query.
        method: the engine name (:data:`CQA_METHODS` or any registered
            third-party engine).
        null_is_unknown: evaluate comparisons with SQL-style unknowns
            instead of treating ``null`` as an ordinary constant.
        max_states: repair-search state budget
            (:class:`repro.core.repairs.RepairSearchBudgetExceeded`
            beyond it).
        repair_mode: the direct engine's repair search
            (:data:`repro.core.repairs.REPAIR_METHODS`): the production
            ``"parallel"`` search or the ``"naive"`` reference; both
            return the same repairs, so this only affects cost —
            benchmark E12 compares them.
        deadline: wall-clock seconds for the whole request; past it the
            typed :class:`repro.errors.DeadlineExceededError` is raised
            (exact surfaces never return a silently partial answer set).

    Returns:
        A :class:`CQAResult` with the answers and repair statistics; on
        the engines that materialise no repairs, ``repair_count`` is the
        conflict-graph estimate (``repair_count_estimated``).

    >>> from repro.relational.instance import DatabaseInstance
    >>> from repro.constraints.parser import parse_constraint, parse_query
    >>> instance = DatabaseInstance.from_dict(
    ...     {"Course": [(21, "C15"), (34, "C18")], "Student": [(21, "Ann")]})
    >>> ric = parse_constraint("Course(i, c) -> Student(i, n)")
    >>> report = consistent_answers_report(
    ...     instance, [ric], parse_query("ans(c) <- Course(i, c)"))
    >>> (sorted(report.answers), report.repair_count)
    ([('C15',)], 2)
    """

    from repro.session import ConsistentDatabase

    session = ConsistentDatabase(instance, constraints, copy=False, method=method)
    return session.report(
        query,
        null_is_unknown=null_is_unknown,
        max_states=max_states,
        repair_mode=repair_mode,
        deadline=deadline,
    )


def consistent_answers(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
    method: str = "direct",
    null_is_unknown: bool = False,
    max_states: Optional[int] = 200_000,
    repair_mode: str = "parallel",
    deadline: Optional[float] = None,
) -> FrozenSet[AnswerTuple]:
    """The consistent answers to *query* in *instance* w.r.t. *constraints*.

    The answer-only projection of :func:`consistent_answers_report`
    (same parameters; no repair count is computed).

    >>> from repro.relational.instance import DatabaseInstance
    >>> from repro.constraints.parser import parse_constraint, parse_query
    >>> instance = DatabaseInstance.from_dict(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]})
    >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    >>> sorted(consistent_answers(
    ...     instance, [key], parse_query("ans(e) <- Emp(e, d)")))
    [('e1',), ('e2',)]
    """

    from repro.session import ConsistentDatabase

    session = ConsistentDatabase(instance, constraints, copy=False, method=method)
    return session.consistent_answers(
        query,
        null_is_unknown=null_is_unknown,
        max_states=max_states,
        repair_mode=repair_mode,
        deadline=deadline,
    )


def is_consistent_answer(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
    candidate: Sequence[Constant],
    method: str = "direct",
    null_is_unknown: bool = False,
    max_states: Optional[int] = 200_000,
    repair_mode: str = "parallel",
) -> bool:
    """Decision version of CQA: is *candidate* an answer in every repair?

    Same parameters as :func:`consistent_answers` plus the candidate
    tuple.  (A long-lived session additionally offers
    ``certain(..., anytime=True)``, which stops at the first refuting
    repair instead of materialising the full answer set.)

    >>> from repro.relational.instance import DatabaseInstance
    >>> from repro.constraints.parser import parse_constraint, parse_query
    >>> instance = DatabaseInstance.from_dict(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr")]})
    >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    >>> is_consistent_answer(
    ...     instance, [key], parse_query("ans(d) <- Emp(e, d)"), ("sales",))
    False
    """

    return tuple(candidate) in consistent_answers(
        instance,
        constraints,
        query,
        method=method,
        null_is_unknown=null_is_unknown,
        max_states=max_states,
        repair_mode=repair_mode,
    )


def consistent_boolean_answer(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
    method: str = "direct",
    null_is_unknown: bool = False,
    max_states: Optional[int] = 200_000,
    repair_mode: str = "parallel",
) -> bool:
    """Consistent answer to a boolean query: *yes* iff it holds in every repair.

    Same parameters as :func:`consistent_answers`; an inconsistent
    constraint set with no repairs at all (possible only with
    conflicting NOT-NULL constraints) answers *no*.

    >>> from repro.relational.instance import DatabaseInstance
    >>> from repro.constraints.parser import parse_constraint, parse_query
    >>> instance = DatabaseInstance.from_dict(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr")]})
    >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    >>> consistent_boolean_answer(
    ...     instance, [key], parse_query("ans() <- Emp(e, d)"))
    True
    """

    # With no repairs the answer set is empty, so the answer is *no*.
    return () in consistent_answers(
        instance,
        constraints,
        query,
        method=method,
        null_is_unknown=null_is_unknown,
        max_states=max_states,
        repair_mode=repair_mode,
    )
