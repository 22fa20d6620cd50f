"""The differential runner: probe selection, classification, signatures."""

import pytest

import repro.session as session_module
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraints, parse_query
from repro.core.repairs import RepairSequence
from repro.explore.differential import (
    ALL_PROBES,
    REFERENCE_PROBE,
    Divergence,
    probe_specs,
    repair_key,
    run_case,
)
from repro.explore.registry import iter_scenarios
from repro.explore.sources.corpus import corpus_entries
from repro.relational.instance import DatabaseInstance
from repro.workloads.case import ScenarioCase


class TestProbeSpecs:
    def test_all_selects_every_probe(self):
        assert probe_specs(["all"]) == ALL_PROBES

    def test_reference_probe_is_always_first(self):
        specs = probe_specs(["program", "sqlite"])
        assert [spec.name for spec in specs] == [
            "direct:parallel",
            "program",
            "sqlite",
        ]

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError, match="unknown probes"):
            probe_specs(["direct:quantum"])

    def test_families(self):
        by_name = {spec.name: spec for spec in ALL_PROBES}
        assert by_name["direct:naive"].family == "direct"
        assert by_name["program"].family == "program"


class TestSignatures:
    def test_signature_merges_engine_families(self):
        divergence = Divergence(
            kind="repairs", left="direct:parallel", right="program"
        )
        assert divergence.signature == "repairs:direct/program"

    def test_same_family_collapses_to_one_component(self):
        divergence = Divergence(
            kind="repair-order", left="direct:parallel", right="direct:naive"
        )
        assert divergence.signature == "repair-order:direct"

    def test_empty_side_is_dropped(self):
        divergence = Divergence(kind="crash", left="session", right="")
        assert divergence.signature == "crash:session"

    def test_mode_suffix_does_not_change_the_signature(self):
        a = Divergence(kind="answers", left="direct:naive", right="program")
        b = Divergence(kind="answers", left="direct:parallel", right="program")
        assert a.signature == b.signature


class TestRunCase:
    def test_paper_scenarios_agree_or_skip(self):
        # The worked examples are the best-understood instances in the
        # repo; every probe must agree (or sit out its fragment) on them.
        for case in iter_scenarios(["paper"], seed=0, count=4):
            outcome = run_case(case)
            assert outcome.status == "agree", (case.name, outcome.divergences)
            assert all(r.status in ("ok", "skip") for r in outcome.results)

    def test_reference_probe_always_completes_on_paper_cases(self):
        for case in iter_scenarios(["paper"], seed=0, count=4):
            outcome = run_case(case)
            reference = outcome.results[0]
            assert reference.probe == REFERENCE_PROBE.name
            assert reference.status == "ok"
            assert reference.repairs_raw is not None
            assert reference.repairs_canonical == tuple(sorted(reference.repairs_raw))

    def test_corpus_witness_diverges_with_its_pinned_signature(self):
        path, case, divergence = corpus_entries()[0]
        assert divergence is not None
        outcome = run_case(case)
        assert outcome.status == "diverged"
        assert divergence.signature in outcome.signatures

    def test_skip_statuses_do_not_fail_a_case(self):
        # gen-0-2's query is outside the rewriting fragment on at least
        # one probe; skips must classify as "skip", never as divergence.
        for case in iter_scenarios(["generated"], seed=0, count=5):
            outcome = run_case(case)
            skipped = [r for r in outcome.results if r.status == "skip"]
            for result in skipped:
                assert result.error
            assert outcome.status in ("agree", "diverged")

    def test_repair_key_is_order_insensitive(self):
        path, case, _divergence = corpus_entries()[0]
        session = case.session()
        repairs = session.repairs_list("direct", session.config)
        keys = {repair_key(repair) for repair in repairs}
        assert len(keys) == len(repairs)
        for repair in repairs:
            assert repair_key(repair) == tuple(sorted(repair_key(repair)))


class TestCarryRelation:
    """Repairs a session serves after a write equal a fresh search's."""

    #: Deleting the first fact, Child(c1, p), changes no violation at the
    #: root (Parent(p, bad) witnesses it), but the search reached it: once
    #: it deletes Parent(p, bad), the child dangles.
    CASE = ScenarioCase(
        name="carry-region",
        instance=DatabaseInstance.from_dict(
            {"Child": [("c1", "p")], "Parent": [("p", "bad")]}
        ),
        constraints=ConstraintSet(
            parse_constraints(["Child(c, p) -> Parent(p, q)", "Parent(p, q) -> q != 'bad'"])
        ),
        query=parse_query("ans(c) <- Child(c, p)"),
    )

    def test_the_relation_finds_nothing_on_the_library(self):
        outcome = run_case(self.CASE, check_certain=False)
        assert "carry:direct" not in outcome.signatures

    def test_a_check_that_accepts_every_change_is_reported(self, monkeypatch):
        def accept_every_change(repairs, current, inserted, deleted, index):
            base = repairs.base.copy()
            for fact in deleted:
                base.discard(fact)
            for fact in inserted:
                base.add(fact)
            return RepairSequence(base, repairs.deltas, repairs.record)

        monkeypatch.setattr(session_module, "carry_repairs", accept_every_change)
        outcome = run_case(self.CASE, check_certain=False)
        assert "carry:direct" in outcome.signatures
        carry = next(d for d in outcome.divergences if d.kind == "carry")
        assert "Child(c1, p)" in carry.detail
