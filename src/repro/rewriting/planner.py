"""Strategy selection for consistent query answering.

``plan_cqa`` decides from ``(constraints, query)`` alone how to compute
the consistent answers.  Whether a query is first-order rewritable is a
property of the query and the constraints, never of the data (Fuxman &
Miller, JCSS 2007; Koutris & Wijsen, TODS 2017), so a session plans
each query once per constraint set and a write re-plans nothing:

* ``independent`` — when static analysis proves the query's predicates
  disjoint from every constraint's affected-predicate closure
  (:mod:`repro.analysis.independence`, diagnostic ``I302``): the
  consistent answers *are* the plain answers, one evaluation pass;
* ``rewriting`` — whenever the pair is inside the tractable fragment of
  :mod:`repro.rewriting.fragment` / :mod:`repro.rewriting.rewriter`: one
  polynomial-time pass, no repairs materialised;
* ``direct`` — repair enumeration otherwise, by the repository's
  reference implementation of Definition 7.  The program route is never
  chosen: the two enumeration routes are known to disagree on ``≤_D``
  corner cases involving uncovered null atoms in the symmetric
  difference (``docs/semantics-notes.md``).

``method="auto"`` follows the plan verbatim: the session runs the
engine the plan names.  By construction it never raises
:class:`~repro.rewriting.fragment.RewritingUnsupportedError` —
unsupported pairs simply fall back to enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.logic.queries import Query
from repro.rewriting.fragment import RewritingUnsupportedError
from repro.rewriting.rewriter import RewrittenQuery, rewrite_query

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic


@dataclass(frozen=True)
class CQAPlan:
    """How one (constraints, query) pair is answered."""

    method: str  #: "independent" | "rewriting" | "direct", or the method requested
    reason: str  #: human-readable justification of the choice
    #: The ``I302`` record when the query is constraint-independent (its
    #: predicates are disjoint from every constraint's affected-predicate
    #: closure): plain evaluation is already the consistent answer.
    independence: Optional["Diagnostic"] = None
    #: The first-order rewriting, or ``None`` outside the fragment.
    rewritten: Optional[RewrittenQuery] = None
    #: Why the pair is outside the fragment, when it is.
    unsupported: Optional[RewritingUnsupportedError] = None

    @property
    def supported(self) -> bool:
        """Is the first-order rewriting applicable?"""

        return self.rewritten is not None

    @property
    def unsupported_reason(self) -> Optional[str]:
        return None if self.unsupported is None else self.unsupported.reason

    @property
    def unsupported_diagnostic(self) -> Optional["Diagnostic"]:
        """The structured ``I301`` record behind ``unsupported_reason`` —
        code, the fragment ``clause`` violated, the offending constraint —
        so ``method="auto"`` fallbacks are machine-readable."""

        return None if self.unsupported is None else self.unsupported.diagnostic

    def requested(self, method: str) -> "CQAPlan":
        """This plan with *method* run instead of the planned route.

        ``"auto"`` returns the plan itself.  Any other method keeps the
        independence, rewriting and fragment facts, which do not depend
        on the route, and says in its reason that it was requested.
        """

        if method == "auto":
            return self
        return replace(
            self,
            method=method,
            reason=f"method={method!r} requested (auto would choose {self.method!r})",
        )

    def __repr__(self) -> str:
        return f"CQAPlan({self.method}: {self.reason})"


def plan_cqa(
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
) -> CQAPlan:
    """Choose the evaluation strategy for *query* under *constraints*.

    Returns ``independent`` when ``I302`` holds, else ``rewriting`` when
    :func:`~repro.rewriting.rewriter.rewrite_query` succeeds, else
    ``direct``; ``method="auto"`` follows the plan verbatim.

    >>> from repro import parse_constraint, parse_query
    >>> key = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")
    >>> plan_cqa([key], parse_query("ans(e) <- Emp(e, d)")).method
    'rewriting'
    >>> plan_cqa([key], parse_query("ans(p) <- Project(p, b)")).method
    'independent'
    """

    from repro.analysis.independence import independence_diagnostic, query_predicates

    constraint_set = (
        constraints
        if isinstance(constraints, ConstraintSet)
        else ConstraintSet(list(constraints))
    )
    try:
        rewritten: Optional[RewrittenQuery] = rewrite_query(query, constraint_set)
        unsupported = None
    except RewritingUnsupportedError as error:
        rewritten, unsupported = None, error
    independence = independence_diagnostic(constraint_set, query)
    if independence is not None:
        # One plain evaluation pass beats even the rewriting, which would
        # pay per-atom residue lookups for residues that are all vacuous.
        reads = query_predicates(query) or frozenset()
        method = "independent"
        reason = (
            "the query's predicates "
            f"({', '.join(sorted(reads)) or 'none'}) are untouched by every "
            "constraint and the set is non-conflicting: consistent answers "
            "equal the plain answers (I302 independence fast path)"
        )
    elif unsupported is None:
        method = "rewriting"
        reason = "(constraints, query) is inside the first-order rewriting fragment"
    else:
        method = "direct"
        reason = (
            f"rewriting unsupported ({unsupported.reason}); "
            "falling back to the direct reference engine"
        )
    return CQAPlan(
        method=method,
        reason=reason,
        independence=independence,
        rewritten=rewritten,
        unsupported=unsupported,
    )
