"""The explorer campaign loop and its CLI face.

Includes the issue's acceptance test: from a fixed seed the explorer
autonomously rediscovers the known ≤_D direct-vs-program divergence,
shrinks it to a witness with ≤ 4 facts and ≤ 2 constraints, and two runs
with the same seed produce byte-identical witness files.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.explore.cli import main
from repro.explore.explorer import explore
from repro.explore.serialize import loads, pinned_signatures_of

REPO = Path(__file__).resolve().parents[2]

#: Enough budget that the 6-scenario cap, not the clock, ends the run.
RELAXED = {"budget_seconds": 300.0}


def rediscovery_run(tmp_path: Path, label: str):
    """Seed-0 generated-only campaign against an empty corpus."""

    corpus = tmp_path / f"corpus-{label}"
    corpus.mkdir()
    out = tmp_path / f"out-{label}"
    return (
        explore(
            0,
            sources=["generated"],
            corpus_directory=corpus,
            out_dir=out,
            max_scenarios=6,
            **RELAXED,
        ),
        out,
    )


class TestRediscovery:
    @pytest.fixture(scope="class")
    def first_run(self, tmp_path_factory):
        return rediscovery_run(tmp_path_factory.mktemp("explore"), "first")

    def test_known_divergence_is_rediscovered(self, first_run):
        report, out = first_run
        assert report.scenarios_run == 6
        assert report.new_divergences, "seed 0 no longer reaches the ≤_D divergence"
        found = report.new_divergences[0]
        assert found.case_name == "gen-0-5"
        assert "repairs:direct/program" in found.signatures
        assert not report.ok

    def test_witness_is_shrunk_within_the_acceptance_bounds(self, first_run):
        report, out = first_run
        witness_path = Path(report.new_divergences[0].witness_path)
        assert witness_path.exists()
        document = loads(witness_path.read_text())
        assert len(document["facts"]) <= 4
        assert len(document["constraints"]) <= 2
        assert document["status"] == "open"
        assert "repairs:direct/program" in pinned_signatures_of(document)

    def test_same_seed_runs_are_byte_identical(self, first_run, tmp_path):
        report, out = first_run
        again, out_again = rediscovery_run(tmp_path, "second")
        first_witness = Path(report.new_divergences[0].witness_path)
        second_witness = Path(again.new_divergences[0].witness_path)
        assert first_witness.name == second_witness.name
        assert first_witness.read_bytes() == second_witness.read_bytes()

    def test_pinned_corpus_silences_the_rediscovery(self, first_run, tmp_path):
        report, out = first_run
        witness_path = Path(report.new_divergences[0].witness_path)
        corpus = tmp_path / "pinned"
        corpus.mkdir()
        (corpus / witness_path.name).write_bytes(witness_path.read_bytes())
        pinned_run = explore(
            0,
            sources=["generated"],
            corpus_directory=corpus,
            out_dir=tmp_path / "out",
            max_scenarios=6,
            **RELAXED,
        )
        assert pinned_run.ok
        assert not pinned_run.new_divergences
        assert pinned_run.known_divergences


class TestExplore:
    def test_unknown_source_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown sources"):
            explore(0, sources=["nope"], out_dir=tmp_path)

    def test_scenario_floor_fails_the_run(self, tmp_path):
        report = explore(
            0,
            sources=["paper"],
            max_scenarios=2,
            min_scenarios=50,
            out_dir=tmp_path,
            **RELAXED,
        )
        assert report.scenarios_run == 2
        assert not report.ok

    def test_report_serializes_to_json(self, tmp_path):
        report = explore(
            0, sources=["paper"], max_scenarios=3, out_dir=tmp_path, **RELAXED
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["scenarios_run"] == 3
        assert payload["ok"] is True
        assert payload["probes"][0] == "direct:parallel"

    def test_campaign_counters_reach_the_metrics_registry(self, tmp_path):
        from repro.obs import metrics

        scenarios = metrics.counter("repro_explore_scenarios_total")
        diverged = metrics.counter("repro_explore_divergences_total")
        before = (scenarios.value, diverged.value)
        report = explore(
            0, sources=["corpus"], max_scenarios=2, out_dir=tmp_path, **RELAXED
        )
        assert scenarios.value == before[0] + report.scenarios_run
        assert diverged.value == before[1] + len(report.divergences)

    def test_default_corpus_pins_the_known_divergences(self, tmp_path):
        # Against the real tests/corpus, the seed-0 sweep that includes
        # gen-0-5 reports the divergence as known, not as news.
        report = explore(
            0,
            sources=["generated"],
            max_scenarios=6,
            out_dir=tmp_path,
            **RELAXED,
        )
        assert report.ok
        assert report.known_divergences
        assert not list(tmp_path.iterdir()), "no witness files for known divergences"


class TestCli:
    def test_json_report_and_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "--seed",
                "0",
                "--sources",
                "generated",
                "--max-scenarios",
                "6",
                "--budget-seconds",
                "300",
                "--out",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["known_divergences"]

    def test_text_report_mentions_known_signatures(self, tmp_path, capsys):
        code = main(
            [
                "--sources",
                "generated",
                "--max-scenarios",
                "6",
                "--budget-seconds",
                "300",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "known" in out

    def test_new_divergence_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "corpus"
        empty.mkdir()
        code = main(
            [
                "--sources",
                "generated",
                "--max-scenarios",
                "6",
                "--budget-seconds",
                "300",
                "--corpus",
                str(empty),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "NEW" in out and "FAIL" in out

    @pytest.mark.parametrize("flag", [True, False])
    def test_null_convention_reaches_every_probe_and_certain_check(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        from repro.session import ConsistentDatabase

        seen = []
        for name in ("report", "certain"):
            original = getattr(ConsistentDatabase, name)

            def recording(self, *args, _original=original, **overrides):
                seen.append(overrides.get("null_is_unknown"))
                return _original(self, *args, **overrides)

            monkeypatch.setattr(ConsistentDatabase, name, recording)
        arguments = ["--sources", "paper", "--max-scenarios", "3", "--budget-seconds", "300"]
        code = main(arguments + ["--out", str(tmp_path)] + (["--null-is-unknown"] if flag else []))
        assert code == 0 and "PASS" in capsys.readouterr().out
        assert len(seen) > 3 and set(seen) == {flag}

    def test_unknown_source_is_a_usage_error(self, tmp_path, capsys):
        code = main(["--sources", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point_matches_in_process_run(self, tmp_path):
        # Cross-process determinism: the installed `python -m repro.explore`
        # writes the same witness bytes an in-process run does.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "out-subprocess"
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.explore",
                "--seed",
                "0",
                "--sources",
                "generated",
                "--max-scenarios",
                "6",
                "--budget-seconds",
                "300",
                "--corpus",
                str(corpus),
                "--out",
                str(out),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "101"},
        )
        assert completed.returncode == 1, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["new_divergences"]
        witness = Path(payload["new_divergences"][0]["witness_path"])
        in_process, _ = rediscovery_run(tmp_path, "reference")
        reference = Path(in_process.new_divergences[0].witness_path)
        assert witness.read_bytes() == reference.read_bytes()
