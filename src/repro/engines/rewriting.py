"""The polynomial-time engine: first-order rewriting.

``"rewriting"`` evaluates the null-aware first-order rewriting once on
the inconsistent database (no repairs materialised) and raises
:class:`repro.rewriting.RewritingUnsupportedError` outside the tractable
fragment.  ``method="auto"`` is no engine: the session replaces it by
the engine its cached plan names (this one whenever the pair is inside
the fragment), so the planner's verdict is just another engine name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.engines.base import CQAConfig, CQAEngine, register_engine
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.session import ConsistentDatabase


@register_engine("rewriting")
class RewritingEngine(CQAEngine):
    """Answer through the first-order rewriting of :mod:`repro.rewriting`.

    The rewritten query is cached per query in the session, with its
    plan — it does not depend on the data — so a warm session pays
    only the single evaluation pass per generation.  No repairs are
    materialised: the result marks ``repair_count_estimated`` (with
    ``repair_count == -1``), and
    :meth:`~repro.session.ConsistentDatabase.report` fills in the
    conflict-graph estimate.
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
            if sp:
                sp.add(answers=len(answers))
        return CQAResult(
            answers=answers,
            repair_count=-1,
            method="rewriting",
            repair_count_estimated=True,
        )

    def certain(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Tuple,
        config: CQAConfig,
    ) -> bool:
        """Decide the candidate alone on the session's instance.

        One early-exit run of the rewritten query with the candidate's
        values in the head slots (:meth:`RewrittenQuery.answers`); no
        answer set.  It runs under the request budget, like
        :meth:`answers_report` does under ``report()``.
        """

        with session._budget_scope(config), _trace.span("engine.rewriting"):
            rewritten = session.rewritten(query)
            return bool(
                rewritten.answers(
                    session.instance,
                    null_is_unknown=config.null_is_unknown,
                    candidate=candidate,
                )
            )

