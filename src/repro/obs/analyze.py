"""EXPLAIN ANALYZE for the CQA stack.

:func:`analyze_request` is the engine behind
``ConsistentDatabase.explain(query, analyze=True)``: it executes one
request with tracing on and returns an :class:`ExplainReport`, a view of
that request's own span tree.  Nothing is re-run or timed by hand:

* :attr:`ExplainReport.phases` is the self time of each span name — a
  span's duration minus its children's — summed over the tree, so the
  phases and :attr:`ExplainReport.unattributed` (the root span's own
  self time, which no library span claimed) partition the root span;
* :attr:`ExplainReport.repair_statistics` is the
  :class:`~repro.core.repairs.RepairStatistics` of the search this
  request ran, or ``None`` when it ran none (a cached answer or repair
  list, or an engine that does not enumerate repairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.core.repairs import RepairStatistics
    from repro.rewriting.planner import CQAPlan
    from repro.session import CacheInfo, ConsistentDatabase


@dataclass
class ExplainReport:
    """The result of one traced request (``explain(analyze=True)``)."""

    query: str
    plan: "CQAPlan"
    generation: int
    phases: Dict[str, float]  #: span name → self seconds, in first-opened order
    unattributed: float  #: the root span's self seconds
    cache: "CacheInfo"
    answer_cache_hit: bool
    repair_statistics: Optional["RepairStatistics"]  #: this request's search, if any
    result: "CQAResult"
    metrics_delta: Dict[str, float]
    trace: _trace.SpanRecord

    def render(self) -> str:
        """The report as an EXPLAIN ANALYZE-style text block."""

        lines: List[str] = []
        lines.append(f"EXPLAIN ANALYZE {self.query}")
        lines.append(f"Plan: {self.plan.method}")
        lines.append(f"  reason: {self.plan.reason}")
        lines.append(
            f"Cache: generation={self.generation} "
            f"hits={self.cache.hits} misses={self.cache.misses} "
            f"answer_cache_hit={self.answer_cache_hit}"
        )
        total = self.trace.duration
        lines.append(f"Phases (self time of {total * 1e3:.3f} ms):")
        for name, seconds in [*self.phases.items(), ("(unattributed)", self.unattributed)]:
            share = seconds / total if total > 0 else 0.0
            lines.append(f"  {name:<20} {seconds * 1e3:9.3f} ms {share:6.1%}")
        if self.repair_statistics is None:
            lines.append("Repair search: none run by this request")
        else:
            rs = self.repair_statistics
            lines.append(
                f"Repair search: {rs.states_explored} states, "
                f"{rs.repairs_found} repairs, "
                f"{rs.violation_updates} tracker updates, "
                f"{rs.constraints_reevaluated} constraint re-evaluations, "
                f"{rs.leq_d_comparisons} ≤_D comparisons"
            )
        repairs = (
            f"~{self.result.repair_count} repairs estimated, none enumerated"
            if self.result.repair_count_estimated
            else f"repairs considered: {self.result.repair_count}"
        )
        lines.append(f"Answers: {len(self.result.answers)} ({repairs})")
        return "\n".join(lines)


def _self_seconds(span: _trace.SpanRecord) -> float:
    """The span's duration minus its children's, dropped ones included."""

    children = sum(child.duration for child in span.children)
    return span.duration - children - sum(span.dropped_seconds.values())


def _phases(root: _trace.SpanRecord) -> Dict[str, float]:
    """Self seconds per span name below *root*, in first-opened order."""

    phases: Dict[str, float] = {}

    def visit(span: _trace.SpanRecord) -> None:
        for child in span.children:
            phases[child.name] = phases.get(child.name, 0.0) + _self_seconds(child)
            visit(child)
        for name, seconds in span.dropped_seconds.items():
            phases[name] = phases.get(name, 0.0) + seconds

    visit(root)
    return phases


def analyze_request(
    session: "ConsistentDatabase",
    query,
    overrides: Mapping[str, Any],
) -> ExplainReport:
    """Execute one request under tracing (see module docstring).

    Tracing is force-enabled for the duration of the call; when the
    process-wide tracer was off, the captured span tree lives only in
    the returned report and the tracer is left exactly as found.
    """

    registry = _metrics.registry()
    tracer = _trace.tracer()
    before = registry.snapshot()
    config = session.config.merged(dict(overrides))
    searched_before = session.last_repair_statistics
    was_enabled = tracer.enabled
    tracer.enabled = True
    root_span = _trace.span("explain.analyze", query=str(query), method=config.method)
    try:
        with root_span:
            plan = session.explain(query, **dict(overrides))
            result = session.report(query, **dict(overrides))
    finally:
        tracer.enabled = was_enabled
    if not was_enabled and root_span in tracer.roots:
        # The tracer was only on for this call: keep the span out of the
        # process-wide roots, it lives in the report.
        tracer.roots.remove(root_span)
    record = root_span.to_record()
    phases = _phases(record)

    searched = session.last_repair_statistics
    after = registry.snapshot()
    return ExplainReport(
        query=str(query),
        plan=plan,
        generation=session.generation,
        phases=phases,
        unattributed=_self_seconds(record),
        cache=session.cache_info(),
        # ``report()`` opens its span only when the answer cache misses.
        answer_cache_hit="session.report" not in phases,
        repair_statistics=searched if searched is not searched_before else None,
        result=result,
        metrics_delta={
            name: value - before.get(name, 0.0)
            for name, value in after.items()
            if value != before.get(name, 0.0)
        },
        trace=record,
    )
