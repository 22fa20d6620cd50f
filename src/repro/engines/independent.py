"""The ``"independent"`` engine: plain evaluation for constraint-independent queries.

When static analysis proves the query's predicate set disjoint from the
affected-predicate closure of a non-conflicting constraint set
(:func:`repro.analysis.independence.independence_diagnostic`, diagnostic
``I302``), every repair agrees with the database on every relation the
query reads — so one ordinary evaluation pass *is* the consistent
answer, bit-identical to full CQA with no repair machinery at all.

The engine re-proves independence on every call and raises
:class:`repro.analysis.QueryNotIndependentError` when the precondition
fails: requesting ``method="independent"`` explicitly is an assertion,
not a hint, and silently falling back would hide a soundness bug.  The
planner (``method="auto"``) only routes here after proving independence
itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

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
    materialised, so ``repair_count`` is the conflict-graph *estimate*
    (``-1`` when ``config.estimate_repairs`` is off) flagged by
    ``repair_count_estimated``.
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        from repro.analysis.independence import (
            QueryNotIndependentError,
            independence_diagnostic,
        )
        from repro.core.cqa import CQAResult

        if independence_diagnostic(session.constraints, query) is None:
            raise QueryNotIndependentError(
                f"query {query!r} is not constraint-independent: some "
                "constraint touches a predicate it reads (or the constraint "
                "set is conflicting); use method='auto' to plan, or an "
                "enumeration/rewriting engine to answer"
            )
        with _trace.span("engine.independent") as sp:
            if query.is_boolean:
                holds = query.holds(
                    session.instance, null_is_unknown=config.null_is_unknown
                )
                answers = frozenset({()}) if holds else frozenset()
            else:
                answers = query.answers(
                    session.instance, null_is_unknown=config.null_is_unknown
                )
            if config.estimate_repairs:
                estimate = session.conflict_graph().estimated_repair_count()
            else:
                estimate = -1
            if sp:
                sp.add(answers=len(answers))
        return CQAResult(
            answers=answers,
            repair_count=estimate,
            method="independent",
            repair_count_estimated=True,
        )

    def certain_anytime(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Optional[Tuple] = None,
        config: Optional[CQAConfig] = None,
    ) -> Optional[bool]:
        """One plain evaluation pass — inherently anytime.

        Routed through ``session.report`` so repeated anytime calls on
        an unchanged database stay one cache probe, exactly like the
        rewriting engine's anytime path.
        """

        config = config if config is not None else session.config
        if candidate is None and not query.is_boolean:
            return None
        result = session.report(
            query,
            method="independent",
            estimate_repairs=False,
            null_is_unknown=config.null_is_unknown,
            max_states=config.max_states,
            repair_mode=config.repair_mode,
        )
        if candidate is not None:
            return tuple(candidate) in result.answers
        return result.certain
