"""Observability for the CQA stack: spans, metrics, EXPLAIN ANALYZE.

Three layers, all stdlib-only and strictly no-op unless asked for:

* :mod:`repro.obs.trace` — a hierarchical span tracer over the full
  request path (parse → plan → compile → violations → repair search →
  minimality → answers), with a human-readable tree renderer and
  Chrome trace-event JSON export.  Force-enable with ``REPRO_TRACE=1``.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms absorbing the repository's scattered statistics
  objects (which remain as typed views), with Prometheus text-format
  exposition.
* :mod:`repro.obs.analyze` — the EXPLAIN ANALYZE report behind
  ``ConsistentDatabase.explain(query, analyze=True)``, built from the
  request's own span tree.

:mod:`repro.obs.clock` supplies the single injectable wall clock
every timed code path (engine timings, spans, benchmarks) reads, so a
test can install a :class:`~repro.obs.clock.FakeClock` and make every
duration deterministic.
"""

# NOTE: the ``clock()`` accessor is deliberately NOT re-exported here —
# binding it on the package would shadow the ``repro.obs.clock``
# *submodule* attribute and break ``from repro.obs import clock``.
from repro.obs.clock import (
    Clock,
    FakeClock,
    SystemClock,
    now,
    reset_clock,
    set_clock,
    using_clock,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.trace import (
    Span,
    SpanRecord,
    Tracer,
    chrome_trace_events,
    dump_chrome_trace,
    render_tree,
    span,
    tracer,
    tracing,
)
from repro.obs.analyze import ExplainReport

__all__ = [
    # clock
    "Clock",
    "FakeClock",
    "SystemClock",
    "now",
    "reset_clock",
    "set_clock",
    "using_clock",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    # trace
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace_events",
    "dump_chrome_trace",
    "render_tree",
    "span",
    "tracer",
    "tracing",
    # analyze
    "ExplainReport",
]
