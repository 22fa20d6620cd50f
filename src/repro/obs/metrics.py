"""A process-wide metrics registry: counters, gauges, histograms.

Five PRs accreted five disjoint statistics surfaces —
``RepairStatistics``, ``SessionStatistics``, ``CompilerStatistics``,
the session cache's ``cache_info()`` and the per-benchmark JSON — each
with its own lifetime and no common exposition.  This module gives
them one home: every counter the repository maintains is *also*
published into a named metric here, the typed objects stay as views
(:func:`session_statistics_view`, :func:`repair_statistics_view`,
:func:`compiler_statistics_view` rebuild them from registry totals),
and the whole registry renders as a Prometheus text-format page
(:meth:`MetricsRegistry.prometheus_text`) ready for the future service
layer to scrape.

Naming follows Prometheus conventions: ``repro_<area>_<what>_total``
for counters, plain ``repro_<area>_<what>`` for gauges, base-name
histograms that expose ``_count``/``_sum``/``_bucket`` samples.  The
full metric taxonomy is documented in ``docs/observability.md``.

Everything is stdlib-only and allocation-light; a counter increment is
one dict lookup plus an add, cheap enough for every per-request call
site (per-*state* search counters stay in their typed objects and are
absorbed in bulk via :func:`absorb_repair_statistics`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Default histogram bucket upper bounds (seconds-oriented).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "_value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A value that can go up and down (pool sizes, cache sizes, ...)."""

    __slots__ = ("name", "help", "_value")
    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """A distribution: observation count, sum and cumulative buckets."""

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.sum += value
        # Per-interval storage: only the first bucket the value fits in is
        # incremented; the cumulative ``le`` semantics are produced at
        # exposition time (``prometheus_text``).
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                break

    def _reset(self) -> None:
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with get-or-create accessors and text exposition.

    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_demo_total", "demo").inc(3)
    >>> registry.counter("repro_demo_total").value
    3.0
    >>> registry.snapshot()
    {'repro_demo_total': 3.0}
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under *name*, or ``None``."""

        return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        """Registered metric names, sorted."""

        return tuple(sorted(self._metrics))

    # ------------------------------------------------------------------ exposition
    def snapshot(self) -> Dict[str, float]:
        """A flat name → value view (histograms expand to ``_count``/``_sum``).

        This is the artifact format: plain floats, JSON-serialisable,
        diffable between two instants (``ExplainReport.metrics_delta`` is
        such a difference).
        """

        values: Dict[str, float] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                values[f"{name}_count"] = float(metric.count)
                values[f"{name}_sum"] = metric.sum
            else:
                values[name] = metric.value
        return values

    def prometheus_text(self) -> str:
        """The registry in the Prometheus text exposition format."""

        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, bucket in zip(metric.buckets, metric.bucket_counts):
                    cumulative += bucket
                    lines.append(f'{name}_bucket{{le="{_format(bound)}"}} {cumulative}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{name}_sum {_format(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_format(metric.value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every metric (tests and per-run benchmark snapshots)."""

        for metric in self._metrics.values():
            metric._reset()


def _format(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every instrumented call site publishes to."""

    return _REGISTRY


def counter(name: str, help: str = "") -> Counter:
    """Get-or-create a counter on the process-wide registry."""

    return _REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get-or-create a gauge on the process-wide registry."""

    return _REGISTRY.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
) -> Histogram:
    """Get-or-create a histogram on the process-wide registry."""

    return _REGISTRY.histogram(name, help, buckets=buckets)


# --------------------------------------------------------------------------- absorption
def absorb_repair_statistics(stats: Any) -> None:
    """Publish one finished repair run's ``RepairStatistics`` into the registry.

    Called once per top-level enumeration (``RepairEngine.repairs`` and
    the session's anytime stream) — *not* per pause or per state, so the
    per-state counters cost nothing extra during the search itself.
    """

    reg = _REGISTRY
    reg.counter(
        "repro_repair_runs_total", "finished repair enumerations"
    ).inc()
    reg.counter(
        "repro_repair_states_explored_total", "search-tree states entered"
    ).inc(stats.states_explored)
    reg.counter(
        "repro_repair_candidates_found_total", "consistent candidates discovered"
    ).inc(stats.candidates_found)
    reg.counter(
        "repro_repair_repairs_found_total", "≤_D-minimal repairs returned"
    ).inc(stats.repairs_found)
    reg.counter(
        "repro_repair_dead_branches_total", "states with no applicable fix"
    ).inc(stats.dead_branches)
    reg.counter(
        "repro_repair_violation_updates_total", "violation tracker updates"
    ).inc(stats.violation_updates)
    reg.counter(
        "repro_repair_constraints_reevaluated_total",
        "per-constraint seeded update passes",
    ).inc(stats.constraints_reevaluated)
    reg.counter(
        "repro_repair_leq_d_comparisons_total", "pairwise ≤_D checks"
    ).inc(stats.leq_d_comparisons)
    reg.histogram(
        "repro_repair_search_seconds", "wall-clock seconds per candidate search"
    ).observe(stats.search_seconds)
    reg.histogram(
        "repro_repair_minimality_seconds", "wall-clock seconds per ≤_D filter"
    ).observe(stats.minimality_seconds)


# --------------------------------------------------------------------------- typed views
def _counter_value(name: str) -> int:
    metric = _REGISTRY.get(name)
    return int(metric.value) if isinstance(metric, (Counter, Gauge)) else 0


def _sum_value(name: str) -> float:
    metric = _REGISTRY.get(name)
    if isinstance(metric, Histogram):
        return metric.sum
    if isinstance(metric, (Counter, Gauge)):
        return metric.value
    return 0.0


def repair_statistics_view():
    """Registry totals as a ``RepairStatistics`` (lifetime aggregate)."""

    from repro.core.repairs import RepairStatistics

    return RepairStatistics(
        states_explored=_counter_value("repro_repair_states_explored_total"),
        candidates_found=_counter_value("repro_repair_candidates_found_total"),
        repairs_found=_counter_value("repro_repair_repairs_found_total"),
        dead_branches=_counter_value("repro_repair_dead_branches_total"),
        violation_updates=_counter_value("repro_repair_violation_updates_total"),
        constraints_reevaluated=_counter_value(
            "repro_repair_constraints_reevaluated_total"
        ),
        leq_d_comparisons=_counter_value("repro_repair_leq_d_comparisons_total"),
        search_seconds=_sum_value("repro_repair_search_seconds"),
        minimality_seconds=_sum_value("repro_repair_minimality_seconds"),
    )


def session_statistics_view():
    """Registry totals as a ``SessionStatistics`` (lifetime aggregate)."""

    from repro.session import SessionStatistics

    return SessionStatistics(
        queries=_counter_value("repro_session_queries_total"),
        mutations=_counter_value("repro_session_mutations_total"),
        tracker_rebuilds=_counter_value("repro_session_tracker_rebuilds_total"),
        batches_rolled_back=_counter_value("repro_session_batches_rolled_back_total"),
        compiled_programs_built=_counter_value(
            "repro_session_compiled_programs_built_total"
        ),
        compiled_program_hits=_counter_value(
            "repro_session_compiled_program_hits_total"
        ),
    )


def compiler_statistics_view():
    """Registry totals as a ``CompilerStatistics`` (lifetime aggregate)."""

    from repro.compile.kernel import CompilerStatistics

    return CompilerStatistics(
        constraints_compiled=_counter_value("repro_compile_constraints_total"),
        queries_compiled=_counter_value("repro_compile_queries_total"),
        bodies_compiled=_counter_value("repro_compile_bodies_total"),
        programs_compiled=_counter_value("repro_compile_programs_total"),
    )
