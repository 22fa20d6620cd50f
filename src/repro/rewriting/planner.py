"""Cost-based strategy selection for consistent query answering.

``plan_cqa`` inspects ``(instance, constraints, query)`` and decides how
to compute the consistent answers:

* ``independent`` — when static analysis proves the query's predicates
  disjoint from every constraint's affected-predicate closure
  (:mod:`repro.analysis.independence`, diagnostic ``I302``): the
  consistent answers *are* the plain answers, one evaluation pass;
* ``rewriting`` — whenever the pair is inside the tractable fragment of
  :mod:`repro.rewriting.fragment` / :mod:`repro.rewriting.rewriter`: one
  polynomial-time pass, always the cheapest option when available;
* ``direct`` — repair enumeration otherwise.  The planner materialises
  the conflict graph (polynomial) to estimate the repair count and also
  costs the logic-program route (the direct engine re-explores repairs
  through many resolution orders, roughly quadratic in the repair count;
  the program route pays a flat grounding cost and then one stable-model
  pass per repair, so it wins as violations pile up — benchmark E11).
  The fallback nevertheless always routes to ``direct``: it is the
  repository's reference implementation of Definition 7, and the two
  enumeration routes are known to disagree on ``≤_D`` corner cases
  involving uncovered null atoms in the symmetric difference, so the
  cheaper-but-divergent route is only reported, never chosen silently.

The plan is advisory for reporting, but ``method="auto"`` in
:mod:`repro.core.cqa` follows it verbatim; by construction it never
raises :class:`~repro.rewriting.fragment.RewritingUnsupportedError` —
unsupported pairs simply fall back to enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Union

from repro.relational.instance import DatabaseInstance
from repro.constraints.ic import AnyConstraint, ConstraintSet
from repro.logic.queries import Query
from repro.rewriting.conflicts import ESTIMATE_CAP, ConflictGraph
from repro.rewriting.fragment import RewritingUnsupportedError
from repro.rewriting.rewriter import RewrittenQuery, rewrite_query

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic


@dataclass
class CQAPlan:
    """The outcome of planning one CQA computation."""

    method: str  #: "independent" | "rewriting" | "direct" | "program"
    supported: bool  #: is the first-order rewriting applicable?
    reason: str  #: human-readable justification of the choice
    unsupported_reason: Optional[str] = None
    #: The structured ``I301`` record behind ``unsupported_reason`` —
    #: code, the fragment ``clause`` violated, the offending constraint —
    #: so ``method="auto"`` fallbacks are machine-readable.
    unsupported_diagnostic: Optional["Diagnostic"] = None
    #: The ``I302`` record when the query is constraint-independent (its
    #: predicates are disjoint from every constraint's affected-predicate
    #: closure): plain evaluation is already the consistent answer and
    #: ``method`` is ``"independent"``.
    independence: Optional["Diagnostic"] = None
    estimated_repairs: Optional[int] = None
    costs: Dict[str, float] = field(default_factory=dict)
    rewritten: Optional[RewrittenQuery] = None
    #: Filled by ``ConsistentDatabase.explain()``: True when the session
    #: has already cached its constraint set's compiled plans
    #: (:class:`repro.compile.kernel.CompiledProgram`) — a prior
    #: violation-path call served them — so an enumeration fallback
    #: pays no compilation.  ``None`` outside a session context.
    compiled_program_cached: Optional[bool] = None
    #: Filled by ``ConsistentDatabase.explain()``: how many join plans
    #: the session's requests have specialized through
    #: :mod:`repro.compile.codegen` so far (the session-local slice of
    #: the process-wide memo, mirroring ``CacheInfo.codegen_builds``).
    #: ``None`` outside a session context.
    codegen_builds: Optional[int] = None

    def __repr__(self) -> str:
        extra = ""
        if self.estimated_repairs is not None:
            extra = f", ~{self.estimated_repairs} repairs"
        return f"CQAPlan({self.method}{extra}: {self.reason})"


@dataclass(frozen=True)
class StaticPlan:
    """The half of a plan that depends on (constraints, query) alone.

    Computed once per query and constraint set by :func:`static_plan`;
    :func:`plan_cqa` adds the costs and estimates that read the data.
    """

    #: The ``I302`` record when the query is constraint-independent.
    independence: Optional["Diagnostic"]
    #: The first-order rewriting, or ``None`` outside the fragment.
    rewritten: Optional[RewrittenQuery]
    #: Why the query is outside the fragment, when it is.
    unsupported: Optional[RewritingUnsupportedError]


def static_plan(constraints: ConstraintSet, query: Query) -> StaticPlan:
    """The data-independent half of :func:`plan_cqa`: independence and rewriting."""

    from repro.analysis.independence import independence_diagnostic

    try:
        rewritten: Optional[RewrittenQuery] = rewrite_query(query, constraints)
        unsupported = None
    except RewritingUnsupportedError as error:
        rewritten, unsupported = None, error
    return StaticPlan(
        independence=independence_diagnostic(constraints, query),
        rewritten=rewritten,
        unsupported=unsupported,
    )


def _enumeration_costs(
    instance: DatabaseInstance,
    constraints: ConstraintSet,
    estimated_repairs: int,
) -> Dict[str, float]:
    """Rank the enumeration strategies by asking the engine registry.

    Each repair-enumerating engine models its own coarse cost
    (:meth:`repro.engines.CQAEngine.enumeration_cost` — the direct
    search grows roughly quadratically in the repair count, the
    logic-program route pays a flat grounding cost plus one stable-model
    pass per repair; both calibrated against benchmark E11).  Collecting
    the figures through the registry means a newly registered engine
    with a cost model automatically shows up in every plan's ``costs``.
    """

    from repro.engines import enumeration_costs

    return enumeration_costs(instance, constraints, estimated_repairs)


def _independent_plan(
    instance: DatabaseInstance, query: Query, static: StaticPlan
) -> CQAPlan:
    """The plan for a constraint-independent query (the ``I302`` fast path).

    ``supported`` / ``rewritten`` / ``unsupported_diagnostic`` still
    report truthfully whether the rewriting applies, so ``explain()``
    keeps answering "would the rewriting have applied?" — but the chosen
    method is ``"independent"``: one plain evaluation pass beats even the
    rewriting (which would pay per-atom residue lookups for residues that
    are all vacuous here).
    """

    from repro.analysis.independence import query_predicates

    reads = query_predicates(query) or frozenset()
    scan_cost = 0.0
    for predicate in reads:
        scan_cost += float(max(instance.row_count(predicate), 1))
    unsupported = static.unsupported
    return CQAPlan(
        method="independent",
        supported=static.rewritten is not None,
        reason=(
            "the query's predicates "
            f"({', '.join(sorted(reads)) or 'none'}) are untouched by every "
            "constraint and the set is non-conflicting: consistent answers "
            "equal the plain answers (I302 independence fast path)"
        ),
        unsupported_reason=unsupported.reason if unsupported is not None else None,
        unsupported_diagnostic=(
            unsupported.diagnostic if unsupported is not None else None
        ),
        independence=static.independence,
        costs={"independent": scan_cost},
        rewritten=static.rewritten,
    )


def plan_cqa(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    query: Query,
    max_states: Optional[int] = None,
    static: Optional[StaticPlan] = None,
) -> CQAPlan:
    """Choose the evaluation strategy for one CQA computation.

    Args:
        instance: the (possibly inconsistent) database.
        constraints: the integrity constraints to repair against.
        query: the query whose consistent answers are wanted.
        max_states: the repair-search budget, used only to warn when
            the repair estimate exceeds it.
        static: the :func:`static_plan` of (constraints, query), when
            the caller keeps one (a session does, across writes).

    Returns:
        A :class:`CQAPlan`; ``method="auto"`` follows it verbatim.
    """

    constraint_set = (
        constraints
        if isinstance(constraints, ConstraintSet)
        else ConstraintSet(list(constraints))
    )
    if static is None:
        static = static_plan(constraint_set, query)

    # Cheapest static fact first: a query whose predicates no constraint
    # can touch (and a non-conflicting set, so repairs exist) has
    # consistent answers equal to the plain answers — one ordinary
    # evaluation pass, no repair machinery, no rewriting residues.
    if static.independence is not None:
        return _independent_plan(instance, query, static)

    error = static.unsupported
    if error is not None:
        graph = ConflictGraph.build(instance, constraint_set)
        estimated = graph.estimated_repair_count()
        costs = _enumeration_costs(instance, constraint_set, estimated)
        # The fallback is always the direct engine: it is the repository's
        # reference implementation of Definition 7, and the two
        # enumeration routes are known to disagree on ≤_D corner cases
        # where an over-deleting candidate's delta contains an uncovered
        # null atom (the direct engine keeps it as an incomparable repair,
        # the stable-model route never generates it).  The program cost is
        # still estimated and reported so the trade-off stays visible.
        method = "direct"
        cheaper = "direct" if costs["direct"] <= costs["program"] else "program"
        reason = (
            f"rewriting unsupported ({error.reason}); "
            f"~{estimated if estimated < ESTIMATE_CAP else '≥2^62'} repairs estimated, "
            "falling back to the direct reference engine"
        )
        if cheaper != "direct":
            reason += " (the cost model rates the program route cheaper here)"
        if max_states is not None and estimated > max_states:
            reason += (
                f"; warning: the estimate exceeds max_states={max_states}, "
                "enumeration may hit its budget"
            )
        return CQAPlan(
            method=method,
            supported=False,
            reason=reason,
            unsupported_reason=error.reason,
            unsupported_diagnostic=error.diagnostic,
            estimated_repairs=estimated,
            costs=costs,
        )

    # Rewriting needs one scan per query atom plus hash lookups per residue;
    # it beats enumeration whenever any violation exists and ties otherwise.
    rewritten = static.rewritten
    assert rewritten is not None  # outside the fragment returned above
    join_cost = 1.0
    for rewriting in rewritten.atoms:
        join_cost *= max(instance.row_count(rewriting.atom.predicate), 1)
    costs = {"rewriting": join_cost * max(len(constraint_set), 1)}
    return CQAPlan(
        method="rewriting",
        supported=True,
        reason="(constraints, query) is inside the first-order rewriting fragment",
        costs=costs,
        rewritten=rewritten,
    )
