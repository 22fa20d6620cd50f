"""Consistent query answering (Definition 8, Theorems 2–3).

A ground tuple ``t̄`` is a *consistent answer* to a query ``Q(x̄)`` in ``D``
w.r.t. ``IC`` iff ``t̄`` is an answer to ``Q`` in every repair of ``D``;
for a boolean query the consistent answer is *yes* iff the sentence holds
in every repair.  Five evaluation strategies are provided, each a
registered engine of :mod:`repro.engines`:

* ``method="direct"`` — enumerate the repairs with the repair engine of
  :mod:`repro.core.repairs` and intersect the per-repair answer sets;
* ``method="program"`` — compute the repairs as the stable models of the
  repair program ``Π(D, IC)`` (cautious reasoning over the program, as the
  paper proposes) and intersect the same way;
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
* ``method="auto"`` — let the cost-based planner of
  :mod:`repro.rewriting.planner` choose: the independence fast path when
  it is proven, else the rewriting whenever it applies, otherwise repair
  enumeration.  Never raises ``RewritingUnsupportedError``.

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

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import trace as _trace
from repro.relational.domain import Constant
from repro.relational.instance import DatabaseInstance
from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.logic.queries import Query

if TYPE_CHECKING:
    from repro.rewriting.planner import CQAPlan


AnswerTuple = Tuple[Constant, ...]

#: The evaluation strategies accepted by the ``method`` parameter (the
#: built-in engine names; :func:`repro.engines.available_engines` is the
#: live registry, which third-party engines may extend).
CQA_METHODS = ("direct", "program", "rewriting", "independent", "auto", "sqlite")


@dataclass
class CQAResult:
    """The outcome of one consistent-query-answering computation.

    For the enumeration methods ``repair_count`` is exact and
    ``per_repair_answer_counts`` lists the answer-set size per repair.
    For the rewriting-based methods no repairs are materialised:
    ``repair_count`` is the conflict-graph *estimate* (flagged by
    ``repair_count_estimated``; ``-1`` when the caller asked to skip the
    estimate) and ``per_repair_answer_counts`` is empty.
    """

    answers: FrozenSet[AnswerTuple]
    repair_count: int
    per_repair_answer_counts: List[int] = field(default_factory=list)
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
    """Intersect the per-repair answer sets into a :class:`CQAResult`.

    The shared back half of every repair-enumerating engine.  An empty
    repair list only happens with conflicting NNCs (a non-conflicting
    constraint set always has at least one repair, Proposition 1), in
    which case nothing is certain.
    """

    if not repairs:
        return CQAResult(answers=frozenset(), repair_count=0, method=method)

    with _trace.span("answers.assemble") as sp:
        if sp:
            sp.add(repairs=len(repairs), query=str(query))
        per_repair: List[FrozenSet[AnswerTuple]] = []
        with _trace.span("query.eval"):
            if query.is_boolean:
                for repair in repairs:
                    holds = query.holds(repair, null_is_unknown=null_is_unknown)
                    per_repair.append(frozenset({()}) if holds else frozenset())
            else:
                for repair in repairs:
                    per_repair.append(
                        query.answers(repair, null_is_unknown=null_is_unknown)
                    )

        answers = set(per_repair[0])
        for answer_set in per_repair[1:]:
            answers &= answer_set
        counts = [len(a) for a in per_repair]
        # Free the per-repair answer sets inside the span that built them,
        # so their deallocation is not left to the caller's time.
        del per_repair
        if sp:
            sp.add(answers=len(answers))
    return CQAResult(
        answers=frozenset(answers),
        repair_count=len(repairs),
        per_repair_answer_counts=counts,
        method=method,
    )


def consistent_answers_report(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
    method: str = "direct",
    null_is_unknown: bool = False,
    max_states: Optional[int] = 200_000,
    estimate_repairs: bool = True,
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
        estimate_repairs: only affects the rewriting-based strategies,
            where the repair count is a conflict-graph estimate that
            costs one extra pass; the answer-only wrappers disable it.
        repair_mode: the direct engine's repair search
            (:data:`repro.core.repairs.REPAIR_METHODS`): the production
            ``"parallel"`` search or the ``"naive"`` reference; both
            return the same repairs, so this only affects cost —
            benchmark E12 compares them.
        deadline: wall-clock seconds for the whole request; past it the
            typed :class:`repro.errors.DeadlineExceededError` is raised
            (exact surfaces never return a silently partial answer set).

    Returns:
        A :class:`CQAResult` with the answers and repair statistics.

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
        estimate_repairs=estimate_repairs,
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
    (same parameters; the repair-count estimate is skipped).

    >>> from repro.relational.instance import DatabaseInstance
    >>> from repro.constraints.parser import parse_constraint, parse_query
    >>> instance = DatabaseInstance.from_dict(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]})
    >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    >>> sorted(consistent_answers(
    ...     instance, [key], parse_query("ans(e) <- Emp(e, d)")))
    [('e1',), ('e2',)]
    """

    return consistent_answers_report(
        instance,
        constraints,
        query,
        method=method,
        null_is_unknown=null_is_unknown,
        max_states=max_states,
        estimate_repairs=False,
        repair_mode=repair_mode,
        deadline=deadline,
    ).answers


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

    result = consistent_answers_report(
        instance,
        constraints,
        query,
        method=method,
        null_is_unknown=null_is_unknown,
        max_states=max_states,
        estimate_repairs=False,
        repair_mode=repair_mode,
    )
    if result.repair_count == 0 and not result.repair_count_estimated:
        return False
    return result.certain
