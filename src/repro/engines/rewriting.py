"""The polynomial-time engines: first-order rewriting and the auto-planner.

``"rewriting"`` evaluates the null-aware first-order rewriting once on
the inconsistent database (no repairs materialised) and raises
:class:`repro.rewriting.RewritingUnsupportedError` outside the tractable
fragment.  ``"auto"`` never raises: it asks the cost-based planner which
engine to use and delegates through the registry — which is the whole
point of the strategy protocol: the planner's verdict is just another
engine name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.engines.base import CQAConfig, CQAEngine, get_engine, register_engine
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.session import ConsistentDatabase


@register_engine("rewriting")
class RewritingEngine(CQAEngine):
    """Answer through the first-order rewriting of :mod:`repro.rewriting`.

    The rewritten query is cached per (query, constraint fingerprint) in
    the session — it does not depend on the data — so a warm session pays
    only the single evaluation pass per generation.  The repair count is
    a conflict-graph *estimate* (skipped when ``config.estimate_repairs``
    is false, leaving ``repair_count == -1``).
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        from repro.core.cqa import CQAResult

        with _trace.span("engine.rewriting") as sp:
            rewritten = session.rewritten(query)
            answers = rewritten.answers(
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
            method="rewriting",
            repair_count_estimated=True,
        )

    def certain_anytime(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Optional[Tuple] = None,
        config: Optional[CQAConfig] = None,
    ) -> Optional[bool]:
        """One polynomial pass — the rewriting is inherently anytime.

        No repairs exist to stream; the rewritten query is evaluated
        once (without the repair-count estimate) and membership of the
        candidate decides the answer immediately.  The evaluation goes
        through ``session.report`` so repeated anytime calls on an
        unchanged database stay one cache probe, exactly like their
        non-anytime counterparts.
        """

        config = config if config is not None else session.config
        if candidate is None and not query.is_boolean:
            return None
        result = session.report(
            query,
            method="rewriting",
            estimate_repairs=False,
            null_is_unknown=config.null_is_unknown,
            max_states=config.max_states,
            repair_mode=config.repair_mode,
        )
        if candidate is not None:
            return tuple(candidate) in result.answers
        return result.certain


@register_engine("auto")
class AutoEngine(CQAEngine):
    """Let the cost-based planner choose, then delegate through the registry.

    Follows :func:`repro.rewriting.plan_cqa` verbatim: the rewriting
    whenever the (constraints, query) pair is inside the tractable
    fragment, otherwise the direct reference enumeration (see the planner
    docstring for why the cheaper-but-divergent program route is reported
    but never chosen silently).  The chosen plan rides along on
    ``result.plan``.
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        with _trace.span("engine.auto") as sp:
            plan = session.plan(query, config)
            if sp:
                sp.add(chosen=plan.method)
            result = get_engine(plan.method).answers_report(session, query, config)
        result.plan = plan
        return result

    def certain_anytime(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Optional[Tuple] = None,
        config: Optional[CQAConfig] = None,
    ) -> Optional[bool]:
        """Plan first, then delegate the anytime decision the same way."""

        config = config if config is not None else session.config
        plan = session.plan(query, config)
        return get_engine(plan.method).certain_anytime(session, query, candidate, config)
