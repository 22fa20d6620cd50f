"""A hierarchical span tracer for the CQA request path.

One process-wide :class:`Tracer` records **spans** — named, attributed
wall-clock intervals nested by a context-manager API::

    from repro.obs import trace

    with trace.span("session.report", method="direct") as sp:
        ...                       # children opened here nest under sp
        if sp:                    # live spans are truthy, the no-op is falsy
            sp.add(cache_hit=False)

Three properties carry the design:

* **Strictly no-op when disabled.**  ``trace.span(...)`` with the
  tracer off returns one shared :data:`_NULL_SPAN` whose ``__enter__``/
  ``__exit__``/``add`` do nothing — no allocation, no clock read, no
  stack push.  The disabled cost of an instrumented call is one
  attribute check (the overhead gate in ``tests/obs`` holds it to ≤ 5%
  on the E15 smoke sweep).  Because the null span is *falsy*, call
  sites guard expensive attributes with ``if sp: sp.add(...)``.
* **One process.**  The library starts no process, so every span of a
  request is recorded in the process that runs it.
* **Bounded retention.**  Force-enabled runs (``REPRO_TRACE=1``) keep
  tracing through entire test sessions; the tracer caps both retained
  root spans (:data:`MAX_ROOT_SPANS`, oldest dropped first) and
  children per span (:data:`MAX_CHILD_SPANS`), counting what it drops,
  so instrumentation can never grow memory without bound.  A dropped
  child's duration stays on its parent under the child's name
  (``dropped_seconds``), so self times computed from a capped tree
  still partition the root exactly.

Exports: :func:`render_tree` (human-readable, durations in ms) and
:func:`chrome_trace_events` / :func:`dump_chrome_trace` (Chrome
``chrome://tracing`` / Perfetto "trace event" JSON, one complete
``"ph": "X"`` event per span).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import clock as _clock

#: Root spans retained by the tracer; the oldest is dropped (and counted
#: in ``Tracer.dropped_roots``) once the cap is hit.
MAX_ROOT_SPANS = 256

#: Children retained per span; further children are dropped, counted in
#: ``Span.dropped_children`` and their durations summed per name in
#: ``Span.dropped_seconds``.
MAX_CHILD_SPANS = 1024

#: Environment variable that force-enables tracing at import time.
TRACE_ENV_VAR = "REPRO_TRACE"

_TRUTHY = {"1", "true", "yes", "on"}


@dataclass(frozen=True)
class SpanRecord:
    """A frozen snapshot of one finished span (and its subtree).

    Plain data, no tracer reference, tuple children: what an EXPLAIN
    ANALYZE report keeps of its request's span tree.
    """

    name: str
    start: float
    end: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: Tuple["SpanRecord", ...] = ()
    dropped_children: int = 0
    dropped_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span:
    """One live span: a named interval with attributes and children.

    Used as a context manager; entering pushes the span on the tracer's
    stack, exiting pops it and files it under its parent (or as a
    root).  The span's own bookkeeping stays inside its interval: the
    start clock is read at construction, before the span's allocations,
    and the end clock after the span is filed under its parent
    (:meth:`add_child`), so neither lands in the parent's self time.
    Spans are truthy — the disabled-path :class:`_NullSpan` is falsy —
    so ``if sp:`` guards attribute computation that would otherwise run
    with tracing off.
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "children",
        "dropped_children",
        "dropped_seconds",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self.start = _clock.now()
        self._tracer = tracer
        self.name = name
        self.end: Optional[float] = None
        self.attributes = attributes
        self.children: List["Span"] = []
        self.dropped_children = 0
        self.dropped_seconds: Dict[str, float] = {}

    # Enter and exit inline the tracer's stack bookkeeping: they run twice
    # per span, and a traced request's time outside any span is mostly
    # this overhead.
    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].add_child(self)
        else:
            self.end = _clock.now()
            self._tracer._file_root(self)
        return False

    def __bool__(self) -> bool:
        return True

    def add(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns it for chaining."""

        self.attributes.update(attributes)
        return self

    def add_child(self, child: "Span") -> None:
        """File the finishing *child* under this span and end it.

        The child's end clock is read once it is filed, so the filing
        counts in the child's duration.  A child past the retention cap
        is dropped: its duration stays here, under its name.
        """

        if len(self.children) < MAX_CHILD_SPANS:
            self.children.append(child)
            child.end = _clock.now()
        else:
            child.end = _clock.now()
            self.dropped_children += 1
            self.dropped_seconds[child.name] = (
                self.dropped_seconds.get(child.name, 0.0) + child.end - child.start
            )

    @property
    def duration(self) -> float:
        """Seconds covered; 0.0 while the span is still open."""

        return 0.0 if self.end is None else self.end - self.start

    def to_record(self) -> SpanRecord:
        """Freeze the finished span (and subtree) into a :class:`SpanRecord`."""

        return SpanRecord(
            name=self.name,
            start=self.start,
            end=self.end if self.end is not None else self.start,
            attributes=dict(self.attributes),
            children=tuple(child.to_record() for child in self.children),
            dropped_children=self.dropped_children,
            dropped_seconds=dict(self.dropped_seconds),
        )


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def add(self, **attributes: Any) -> "_NullSpan":
        return self

    def add_child(self, child: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """The process-wide span collector.

    Not thread-safe by design: the repository runs requests on one
    thread, so a lock on the hot path would buy nothing.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.roots: List[Span] = []
        self.dropped_roots = 0
        self._stack: List[Span] = []

    # ------------------------------------------------------------------ recording
    def span(self, name: str, **attributes: Any):
        """A context-managed span, or the shared no-op when disabled."""

        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attributes)

    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""

        return self._stack[-1] if self._stack else None

    def _file_root(self, span: Span) -> None:
        if len(self.roots) >= MAX_ROOT_SPANS:
            self.roots.pop(0)
            self.dropped_roots += 1
        self.roots.append(span)

    def reset(self) -> None:
        """Drop every recorded span and open-stack entry."""

        self.roots = []
        self._stack = []
        self.dropped_roots = 0


_TRACER = Tracer()
if os.environ.get(TRACE_ENV_VAR, "").strip().lower() in _TRUTHY:
    _TRACER.enabled = True

def tracer() -> Tracer:
    """The process-wide tracer."""

    return _TRACER


def span(name: str, **attributes: Any):
    """Open a span on the process-wide tracer (no-op when disabled)."""

    if not _TRACER.enabled:
        return _NULL_SPAN
    return Span(_TRACER, name, attributes)


def enabled() -> bool:
    """Is the process-wide tracer recording?"""

    return _TRACER.enabled


def enable() -> None:
    _TRACER.enabled = True


def disable() -> None:
    _TRACER.enabled = False


def reset() -> None:
    """Clear every recorded span (the enabled flag is untouched)."""

    _TRACER.reset()


class tracing:
    """Context manager that sets the tracer's enabled flag and restores it.

    >>> from repro.obs import trace
    >>> before = trace.enabled()
    >>> with trace.tracing(True) as t:
    ...     t.enabled
    True
    >>> trace.enabled() == before
    True
    """

    def __init__(self, on: bool = True):
        self._on = on
        self._previous: Optional[bool] = None

    def __enter__(self) -> Tracer:
        self._previous = _TRACER.enabled
        _TRACER.enabled = self._on
        return _TRACER

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TRACER.enabled = bool(self._previous)
        return False


# --------------------------------------------------------------------------- exporters
def _walk(span: Span, depth: int) -> Iterator[Tuple[Span, int]]:
    yield span, depth
    for child in span.children:
        yield from _walk(child, depth + 1)


def render_tree(spans: Optional[Sequence[Span]] = None) -> str:
    """The recorded spans as an indented tree, durations in milliseconds."""

    spans = _TRACER.roots if spans is None else list(spans)
    lines: List[str] = []
    for root in spans:
        for node, depth in _walk(root, 0):
            duration_ms = node.duration * 1e3
            attrs = ""
            if node.attributes:
                rendered = ", ".join(
                    f"{key}={value!r}" for key, value in sorted(node.attributes.items())
                )
                attrs = f"  [{rendered}]"
            dropped = (
                f"  (+{node.dropped_children} children dropped)"
                if node.dropped_children
                else ""
            )
            lines.append(f"{'  ' * depth}{node.name}  {duration_ms:.3f}ms{attrs}{dropped}")
    if _TRACER.dropped_roots and spans is _TRACER.roots:
        lines.append(f"(+{_TRACER.dropped_roots} root spans dropped)")
    return "\n".join(lines)


def chrome_trace_events(
    spans: Optional[Sequence[Span]] = None,
) -> List[Dict[str, Any]]:
    """The spans as Chrome trace-event "complete" (``ph: X``) events.

    Timestamps and durations are microseconds (the format's unit), on
    one ``pid``/``tid`` lane: every span ran in this process.
    """

    spans = _TRACER.roots if spans is None else list(spans)
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    for root in spans:
        for node, _ in _walk(root, 0):
            events.append(
                {
                    "name": node.name,
                    "ph": "X",
                    "ts": node.start * 1e6,
                    "dur": node.duration * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": dict(node.attributes),
                }
            )
    return events


def dump_chrome_trace(path: str, spans: Optional[Sequence[Span]] = None) -> None:
    """Write the spans as a ``chrome://tracing``-loadable JSON file."""

    payload = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
