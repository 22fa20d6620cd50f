"""The repair-enumerating engines: direct search and stable models.

Both enumerate every repair and keep the answers common to all of them
(Definition 8, :func:`repro.core.cqa.result_from_repairs`).  The direct
search's repairs are minimal deltas over a snapshot, so a negation-free
conjunctive query is decided from the deltas without building any
repair; the stable-model route materialises its repairs, and every
query there is evaluated per repair and intersected.  An anytime
``certain()`` instead asks each streamed repair about its one candidate
and stops at the first refutation.  The repair lists themselves come
from the session's generation-keyed cache (``session.repairs_list``),
so a warm session answers a second query over an unchanged database
without re-running the search — and the ``"direct"`` route additionally
warm-starts its violation store from the session's live
:class:`ViolationTracker`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.engines.base import CQAConfig, CQAEngine, register_engine
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.session import ConsistentDatabase


@register_engine("direct")
class DirectEngine(CQAEngine):
    """Enumerate repairs with :class:`repro.core.repairs.RepairEngine`.

    The repository's reference implementation of Definition 7, run by
    the production repair search in the calling process
    (``config.repair_mode = "naive"`` selects the nested-loop reference
    instead, with the same repairs in the same order).

    >>> from repro import ConsistentDatabase, parse_constraint, parse_query
    >>> db = ConsistentDatabase(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr")]},
    ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
    ...     method="direct",
    ... )
    >>> sorted(db.consistent_answers(parse_query("ans(e) <- Emp(e, d)")))
    [('e1',)]
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        from repro.core.cqa import result_from_repairs

        with _trace.span("engine.direct") as sp:
            repairs = session.repairs_list("direct", config)
            if sp:
                sp.add(repairs=len(repairs))
            return result_from_repairs(
                repairs, query, null_is_unknown=config.null_is_unknown, method="direct"
            )

    def certain(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Tuple,
        config: CQAConfig,
    ) -> bool:
        """Under ``config.anytime``, decide the candidate over the repair stream.

        Repairs arrive from :meth:`ConsistentDatabase.stream_repairs` —
        the anytime search, or the cached list when one exists — and
        each is asked about the candidate alone
        (``query.answers(repair, candidate=...)``), so one refuting
        repair ends the computation without finishing the search.
        Without ``anytime`` the answer is membership in the session's
        answer report (:meth:`CQAEngine.certain`).

        Under a ``degrade=True`` budget a truncated stream without a
        counterexample returns the best-known answer ``True`` and
        leaves ``session.last_degradation`` set — every repair proven
        so far satisfied the candidate, but unexplored frontier could
        still refute it; strict budgets raise instead.  A refutation
        found *before* the budget ran out is exact either way.
        """

        if not config.anytime:
            return super().certain(session, query, candidate, config)
        proven = False
        stream = session.stream_repairs(config)
        try:
            for repair in stream:
                proven = True
                with _trace.span("query.eval"):
                    held = query.answers(
                        repair, null_is_unknown=config.null_is_unknown, candidate=candidate
                    )
                if not held:
                    return False
        finally:
            stream.close()  # an abandoned search publishes its statistics now
        # No repair proven: conflicting NNCs (nothing is certain), or a
        # degrade budget spent before the first proof (best known: True).
        return proven or session.last_degradation is not None


@register_engine("program")
class ProgramEngine(CQAEngine):
    """Compute the repairs as the stable models of ``Π(D, IC)``.

    The paper's Definition 9 route: ground the disjunctive repair
    program, enumerate its stable models and read the repairs off the
    ``t**`` annotations (cautious reasoning over the program).
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        from repro.core.cqa import result_from_repairs

        with _trace.span("engine.program") as sp:
            repairs = session.repairs_list("program", config)
            if sp:
                sp.add(repairs=len(repairs))
            return result_from_repairs(
                repairs, query, null_is_unknown=config.null_is_unknown, method="program"
            )
