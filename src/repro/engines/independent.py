"""The ``"independent"`` engine: plain evaluation for constraint-independent queries.

When static analysis proves the query's predicate set disjoint from the
affected-predicate closure of a non-conflicting constraint set
(:func:`repro.analysis.independence.independence_diagnostic`, diagnostic
``I302``), every repair agrees with the database on every relation the
query reads — so one ordinary evaluation pass *is* the consistent
answer, bit-identical to full CQA with no repair machinery at all.

The engine checks the session's cached independence verdict
(:meth:`repro.session.ConsistentDatabase.plan`) on every call
and raises :class:`repro.analysis.QueryNotIndependentError` when the
precondition fails: requesting ``method="independent"`` explicitly is
an assertion, not a hint, and silently falling back would hide a
soundness bug.  The planner (``method="auto"``) only routes here after
proving independence itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engines.base import CQAConfig, CQAEngine, register_engine
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.session import ConsistentDatabase


@register_engine("independent")
class IndependentEngine(CQAEngine):
    """Answer a constraint-independent query by plain evaluation.

    Mirrors the rewriting engine's reporting contract: no repairs are
    materialised, so the result marks ``repair_count_estimated`` and
    :meth:`~repro.session.ConsistentDatabase.report` fills in the
    conflict-graph estimate.
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        from repro.analysis.independence import QueryNotIndependentError
        from repro.core.cqa import CQAResult

        if session.plan(query).independence is None:
            raise QueryNotIndependentError(
                f"query {query!r} is not constraint-independent: some "
                "constraint touches a predicate it reads (or the constraint "
                "set is conflicting); use method='auto' to plan, or an "
                "enumeration/rewriting engine to answer"
            )
        with _trace.span("engine.independent") as sp:
            answers = query.answers(
                session.instance, null_is_unknown=config.null_is_unknown
            )
            if sp:
                sp.add(answers=len(answers))
        return CQAResult(
            answers=answers,
            repair_count=-1,
            method="independent",
            repair_count_estimated=True,
        )
