"""The SQLite push-down engine.

``method="sqlite"`` runs the whole CQA computation inside SQLite: the
query is rewritten exactly as for the ``"rewriting"`` engine, compiled
to one ``SELECT`` and executed on the session's cached
:class:`repro.sqlbackend.SQLiteBackend` mirror of the instance.  Before
the engine registry this path was only reachable through the backend's
own ``consistent_answers`` method; now it sits behind the same front
door as the in-memory engines, so switching between "evaluate in
Python" and "evaluate in the database" is a one-string change.

Same applicability as the rewriting engine: raises
:class:`repro.rewriting.RewritingUnsupportedError` outside the
tractable fragment (which also covers non-conjunctive queries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engines.base import CQAConfig, CQAEngine, register_engine
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.session import ConsistentDatabase


@register_engine("sqlite")
class SQLiteEngine(CQAEngine):
    """First-order rewriting compiled to SQL and evaluated by SQLite.

    >>> from repro import ConsistentDatabase, parse_constraint, parse_query
    >>> db = ConsistentDatabase(
    ...     {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]},
    ...     [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
    ... )
    >>> sorted(db.consistent_answers(
    ...     parse_query("ans(e) <- Emp(e, d)"), method="sqlite"))
    [('e1',), ('e2',)]
    """

    def answers_report(
        self, session: "ConsistentDatabase", query: "Query", config: CQAConfig
    ) -> "CQAResult":
        from repro.core.cqa import CQAResult

        with _trace.span("engine.sqlite") as sp:
            rewritten = session.rewritten(query)
            backend = session.sql_backend(query=query)
            answers = backend.consistent_answers(
                query, rewritten=rewritten, null_is_unknown=config.null_is_unknown
            )
            if sp:
                sp.add(answers=len(answers))
        return CQAResult(
            answers=answers,
            repair_count=-1,
            method="sqlite",
            repair_count_estimated=True,
        )
