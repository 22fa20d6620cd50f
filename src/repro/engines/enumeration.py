"""The repair-enumerating engines: direct search and stable models.

Both materialise every repair and intersect the per-repair answer sets
(Definition 8).  The repair lists themselves come from the session's
generation-keyed cache (``session.repairs_list``), so a warm session
answers a second query over an unchanged database without re-running the
search — and the ``"direct"`` route additionally warm-starts its
violation store from the session's live :class:`ViolationTracker`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

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

    def certain_anytime(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Optional[Tuple] = None,
        config: Optional[CQAConfig] = None,
    ) -> Optional[bool]:
        """Stream repairs and stop at the first counterexample.

        Repairs arrive from :meth:`ConsistentDatabase.stream_repairs` —
        the anytime frontier, or the cached list when one exists — so
        one refuting repair ends the computation without finishing the
        search.  Open queries without a candidate tuple fall back
        (``None``): their answer *set* needs every repair anyway.

        Under a ``degrade=True`` budget a truncated stream without a
        counterexample returns the best-known answer ``True`` and
        leaves ``session.last_degradation`` set — every repair proven
        so far satisfied the candidate, but unexplored frontier could
        still refute it; strict budgets raise instead.  A refutation
        found *before* the budget ran out is exact either way.
        """

        config = config if config is not None else session.config
        if candidate is None and not query.is_boolean:
            return None
        repair_count = 0
        for repair in session.stream_repairs(config):
            repair_count += 1
            with _trace.span("query.eval"):
                if candidate is not None:
                    refuted = tuple(candidate) not in query.answers(
                        repair, null_is_unknown=config.null_is_unknown
                    )
                else:
                    refuted = not query.holds(
                        repair, null_is_unknown=config.null_is_unknown
                    )
            if refuted:
                return False
        if session.last_degradation is not None:
            # Truncated without a counterexample: report the certified
            # lower bound (True over everything proven), flagged by the
            # session's degradation record.
            return True
        if repair_count == 0:
            return False  # conflicting NNCs: no repairs, nothing is certain
        return True

    @staticmethod
    def enumeration_cost(instance, constraints, estimated_repairs):
        # The direct engine re-discovers each repair through many
        # alternative violation-resolution orders, so its search grows
        # roughly quadratically in the repair count, with each state
        # paying one violation sweep.  Calibrated against benchmark E11,
        # where direct wins at ~4 repairs and the program route from ~16.
        n_facts = max(len(instance), 1)
        n_constraints = max(len(constraints), 1)
        per_state = float(n_facts * n_constraints)
        repairs = float(min(estimated_repairs, 10 ** 9))
        return repairs * repairs * per_state


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

    @staticmethod
    def enumeration_cost(instance, constraints, estimated_repairs):
        # Grounding costs about one body-join per constraint, paid once;
        # then one stable-model pass per repair, plus the shared quadratic
        # ``≤_D``-minimality filter.  Same calibration as DirectEngine.
        from repro.constraints.ic import IntegrityConstraint

        n_facts = max(len(instance), 1)
        n_constraints = max(len(constraints), 1)
        per_state = float(n_facts * n_constraints)
        repairs = float(min(estimated_repairs, 10 ** 9))
        grounding = 0.0
        for constraint in constraints:
            if isinstance(constraint, IntegrityConstraint):
                grounding += float(n_facts) ** min(len(constraint.body), 3)
            else:
                grounding += float(n_facts)
        return grounding + repairs * per_state + repairs * repairs * n_facts
