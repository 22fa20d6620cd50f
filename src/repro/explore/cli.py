"""``python -m repro.explore`` — the explorer's command-line face.

CI and humans run the same loop::

    python -m repro.explore --seed 0 --budget-seconds 60 --min-scenarios 500

``--null-is-unknown`` runs the same campaign under the SQL-style query
convention.

Exit codes: ``0`` green (every divergence pinned, floor met), ``1`` a
non-pinned divergence was found or the scenario floor was missed, ``2``
usage error (argparse).  ``--format json`` emits the full machine-
readable report for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.engines.base import CQAConfig
from repro.explore.differential import ALL_PROBES, DEFAULT_PROBE_BUDGET
from repro.explore.explorer import DEFAULT_SOURCES, ExploreReport, explore
from repro.explore.registry import available_sources


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Differential engine fuzzing with witness shrinking.",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=60.0,
        help="wall-clock budget for the campaign (default 60)",
    )
    parser.add_argument(
        "--max-scenarios",
        type=int,
        default=10_000,
        help="hard scenario cap regardless of time left (default 10000)",
    )
    parser.add_argument(
        "--min-scenarios",
        type=int,
        default=0,
        help="fail (exit 1) when fewer scenarios fit the budget (default 0)",
    )
    parser.add_argument(
        "--sources",
        default=",".join(DEFAULT_SOURCES),
        help=(
            "comma-separated scenario sources "
            f"(default {','.join(DEFAULT_SOURCES)}; available: "
            f"{','.join(available_sources())})"
        ),
    )
    parser.add_argument(
        "--engines",
        default=None,
        help=(
            "comma-separated probe selection, or 'all' "
            f"(default: all; available: "
            f"{','.join(spec.name for spec in ALL_PROBES)})"
        ),
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_PROBE_BUDGET.max_states,
        help="per-probe repair-search state budget",
    )
    parser.add_argument(
        "--probe-deadline",
        type=float,
        default=DEFAULT_PROBE_BUDGET.deadline,
        help="per-probe wall-clock deadline in seconds",
    )
    parser.add_argument(
        "--null-is-unknown",
        action="store_true",
        help=(
            "evaluate every probe's query and certain() check with SQL-style "
            "unknown comparisons on null (default: null is a constant)"
        ),
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report new divergences without reducing them to witnesses",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("explore-out"),
        help="directory for shrunk witnesses (default ./explore-out)",
    )
    parser.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="override the pinned-corpus directory (default tests/corpus)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    return parser


def _render_text(report: ExploreReport) -> str:
    lines = [
        f"explored {report.scenarios_run} scenarios "
        f"(seed {report.seed}, {report.elapsed_seconds:.1f}s, "
        f"sources {', '.join(report.sources)})",
        f"  agreed: {report.agreed}  skipped: {report.skipped}  "
        f"budget-exceeded: {report.budget_exceeded}  "
        f"diverged: {len(report.divergences)}",
    ]
    known_by_signature: dict = {}
    for divergence in report.known_divergences:
        for signature in divergence.signatures:
            known_by_signature.setdefault(signature, []).append(divergence.case_name)
    for signature in sorted(known_by_signature):
        cases = known_by_signature[signature]
        shown = ", ".join(cases[:3]) + (", …" if len(cases) > 3 else "")
        lines.append(f"  known  {signature}: {len(cases)} case(s) ({shown})")
    for divergence in report.new_divergences:
        lines.append(
            f"  NEW    {divergence.case_name}: {', '.join(divergence.signatures)}"
        )
        for detail in divergence.details:
            lines.append(f"         {detail}")
        if divergence.witness_path:
            lines.append(f"         witness: {divergence.witness_path}")
    if report.min_scenarios and report.scenarios_run < report.min_scenarios:
        lines.append(
            f"  FLOOR MISSED: {report.scenarios_run} < {report.min_scenarios} scenarios"
        )
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    sources = [name for name in arguments.sources.split(",") if name]
    engines: Optional[List[str]] = None
    if arguments.engines:
        engines = [name for name in arguments.engines.split(",") if name]
    probe_budget = CQAConfig(
        max_states=arguments.max_states,
        deadline=arguments.probe_deadline,
        null_is_unknown=arguments.null_is_unknown,
    )
    try:
        report = explore(
            arguments.seed,
            budget_seconds=arguments.budget_seconds,
            max_scenarios=arguments.max_scenarios,
            min_scenarios=arguments.min_scenarios,
            sources=sources,
            engines=engines,
            probe_budget=probe_budget,
            shrink_new=not arguments.no_shrink,
            out_dir=arguments.out,
            corpus_directory=arguments.corpus,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if arguments.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
