"""The hierarchical span tracer (``repro.obs.trace``).

Ends with the well-formedness property: every trace the stack emits —
one per pinned scenario — has every span closed and every child
interval nested inside its parent.
"""

import gc
import json
import os

import pytest

from repro.constraints.parser import parse_constraint, parse_query
from repro.obs import clock, trace
from repro.obs.trace import _NULL_SPAN
from repro.session import ConsistentDatabase
from repro.workloads import grouped_key_workload


def span_nodes(span):
    """Every node of the span tree, root first."""

    nodes = [span]
    for child in span.children:
        nodes.extend(span_nodes(child))
    return nodes


def assert_well_formed(span, parent=None):
    """All spans closed; every child interval nested inside its parent's."""

    assert span.end is not None, f"span {span.name!r} was never closed"
    assert span.start <= span.end, f"span {span.name!r} ends before it starts"
    if parent is not None:
        assert span.start >= parent.start, (
            f"child {span.name!r} starts before parent {parent.name!r}"
        )
        assert span.end <= parent.end, (
            f"child {span.name!r} ends after parent {parent.name!r}"
        )
    for child in span.children:
        assert_well_formed(child, span)


class TestDisabledPath:
    def test_span_returns_the_shared_falsy_null_span(self):
        with trace.tracing(False):
            sp = trace.span("anything", attr=1)
            assert sp is _NULL_SPAN
            assert not sp
            assert sp is trace.span("something.else")

    def test_null_span_operations_are_no_ops(self):
        with trace.tracing(False):
            with trace.span("ignored") as sp:
                sp.add(key="value")
                sp.add_child(object())
            assert trace.tracer().roots == []

    def test_enabled_reflects_the_flag(self):
        with trace.tracing(False):
            assert not trace.enabled()
        with trace.tracing(True):
            assert trace.enabled()


class TestRecording:
    def test_spans_nest_and_record_attributes(self):
        with trace.tracing(True):
            trace.reset()
            with trace.span("outer", method="direct") as outer:
                assert outer
                assert trace.tracer().current() is outer
                with trace.span("inner") as inner:
                    inner.add(rows=3)
            assert trace.tracer().current() is None
        roots = trace.tracer().roots
        assert [root.name for root in roots] == ["outer"]
        assert roots[0].attributes == {"method": "direct"}
        assert [child.name for child in roots[0].children] == ["inner"]
        assert roots[0].children[0].attributes == {"rows": 3}
        assert_well_formed(roots[0])

    def test_durations_come_from_the_injectable_clock(self):
        with clock.using_clock(clock.FakeClock()) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("outer"):
                    fake.advance(1.0)
                    with trace.span("inner"):
                        fake.advance(0.25)
        outer = trace.tracer().roots[0]
        assert outer.duration == pytest.approx(1.25)
        assert outer.children[0].duration == pytest.approx(0.25)

    def test_exception_closes_the_span_and_records_the_error(self):
        with trace.tracing(True):
            trace.reset()
            with pytest.raises(ValueError):
                with trace.span("failing"):
                    raise ValueError("boom")
        failing = trace.tracer().roots[0]
        assert failing.end is not None
        assert failing.attributes["error"] == "ValueError"


class TestRetentionCaps:
    def test_child_cap_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_CHILD_SPANS", 3)
        with trace.tracing(True):
            trace.reset()
            with trace.span("parent"):
                for index in range(5):
                    with trace.span(f"child-{index}"):
                        pass
        parent = trace.tracer().roots[0]
        assert len(parent.children) == 3
        assert parent.dropped_children == 2
        assert "(+2 children dropped)" in trace.render_tree()

    def test_dropped_children_keep_their_time_under_their_name(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_CHILD_SPANS", 1)
        with clock.using_clock(clock.FakeClock()) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("parent"):
                    for name, seconds in (("a", 1.0), ("b", 0.5), ("b", 0.25)):
                        with trace.span(name):
                            fake.advance(seconds)
                parent = trace.tracer().roots[0]
                record = parent.to_record()
        assert [child.name for child in parent.children] == ["a"]
        assert parent.dropped_seconds == {"b": pytest.approx(0.75)}
        assert record.dropped_seconds == parent.dropped_seconds

    def test_root_cap_drops_oldest_first(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_ROOT_SPANS", 2)
        with trace.tracing(True):
            trace.reset()
            for index in range(4):
                with trace.span(f"root-{index}"):
                    pass
        tracer = trace.tracer()
        assert [root.name for root in tracer.roots] == ["root-2", "root-3"]
        assert tracer.dropped_roots == 2


class TestExporters:
    def make_trace(self):
        with clock.using_clock(clock.FakeClock()) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("session.report", query="ans()"):
                    fake.advance(0.002)
                    with trace.span("engine.direct"):
                        fake.advance(0.001)
        return trace.tracer().roots

    def test_render_tree_indents_and_shows_durations(self):
        roots = self.make_trace()
        rendered = trace.render_tree(roots)
        lines = rendered.splitlines()
        assert lines[0].startswith("session.report  3.000ms")
        assert "[query='ans()']" in lines[0]
        assert lines[1].startswith("  engine.direct  1.000ms")

    def test_chrome_trace_events_are_complete_events_in_microseconds(self):
        roots = self.make_trace()
        events = trace.chrome_trace_events(roots)
        assert [event["name"] for event in events] == [
            "session.report",
            "engine.direct",
        ]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == os.getpid()
            assert event["tid"] == os.getpid()
        assert events[0]["dur"] == pytest.approx(3000.0)  # µs
        assert events[1]["dur"] == pytest.approx(1000.0)
        assert events[0]["args"] == {"query": "ans()"}

    def test_dump_chrome_trace_writes_loadable_json(self, tmp_path):
        roots = self.make_trace()
        path = tmp_path / "trace-events.json"
        trace.dump_chrome_trace(str(path), roots)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 2


class TestWellFormedOnEveryScenario:
    def test_every_scenario_emits_a_well_formed_trace(self, all_scenarios):
        """The ISSUE's property: run a full request per pinned scenario and
        check every emitted trace — spans closed, children nested inside
        parents — even when the request itself fails."""

        for name, scenario in sorted(all_scenarios.items()):
            with trace.tracing(True):
                trace.reset()
                db = ConsistentDatabase(scenario.instance, scenario.constraints)
                db.is_consistent()
                db.violations()
                try:
                    db.repair_count()
                except Exception:
                    # The property under test is trace hygiene, not the
                    # request outcome: a failed request must still close
                    # every span it opened.
                    pass
                roots = trace.tracer().roots
                assert roots, f"scenario {name} recorded no spans"
                for root in roots:
                    assert_well_formed(root)


def self_seconds(span):
    """The span's duration minus its children's, dropped ones included."""

    return (
        span.duration
        - sum(child.duration for child in span.children)
        - sum(span.dropped_seconds.values())
    )


def traced_anytime_certain():
    """A traced ``certain(anytime=True)`` proving every repair of an 81-repair
    key+check session (4 key groups of 3 plus a check on ``Emp``) after a
    write, so no cached repair list serves it."""

    instance, constraints = grouped_key_workload(n_groups=4, group_size=3, n_clean=100)
    db = ConsistentDatabase(
        instance, [*constraints, parse_constraint("Emp(e, d, s) -> s > 0")]
    )
    db.insert("Emp", ("w1", "dept1", 10))
    query = parse_query("ans(e, d) <- Emp(e, d, s)")
    clean = next(fact for fact in instance.facts() if fact.values[0] == "e0")
    gc.collect()
    with trace.tracing(True):
        trace.reset()
        assert db.certain(query, clean.values[:2], anytime=True)
        (root,) = trace.tracer().roots
    assert db.last_repair_statistics.repairs_found == 81
    return root


def best_unattributed_share(roots):
    """The smallest root self-time share: shares are wall-clock, and the
    best of a few runs filters a preemption landing in the root's own
    few percent."""

    return min(self_seconds(root) / root.duration for root in roots)


class TestAnytimeAttribution:
    def test_the_certain_span_leaves_at_most_five_percent_unattributed(self):
        roots = [traced_anytime_certain() for _ in range(3)]
        for root in roots:
            assert root.name == "session.certain"
            assert {
                "repair.search",
                "repair.minimality",
                "repair.materialise",
                "query.eval",
            } <= {node.name for node in span_nodes(root)}
            assert_well_formed(root)
        assert best_unattributed_share(roots) <= 0.05

    def test_attribution_survives_the_child_cap(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_CHILD_SPANS", 8)
        roots = [traced_anytime_certain() for _ in range(3)]
        for root in roots:
            assert root.dropped_children > 0
            assert_well_formed(root)
        assert best_unattributed_share(roots) <= 0.05
