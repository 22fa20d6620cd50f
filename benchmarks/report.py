"""Render benchmark JSON artifacts as markdown tables.

Every ``bench_e*`` experiment writes a ``{"experiment", "headers",
"rows"}`` record per result table when ``REPRO_BENCH_JSON`` names a
directory (see ``harness.print_table``); the CI smoke job uploads that
directory as the ``bench-results`` artifact.  This module turns the
records back into the markdown the README's results section embeds:

.. code-block:: bash

    REPRO_BENCH_JSON=bench-results PYTHONPATH=src python -m pytest \
        benchmarks/bench_e11_rewriting_vs_repairs.py \
        benchmarks/bench_e12_incremental_violations.py \
        benchmarks/bench_e13_session_cache.py \
        benchmarks/bench_e14_parallel_anytime.py \
        benchmarks/bench_e15_compiled_kernel.py \
        -q -o python_files='bench_*.py' -o python_functions='bench_*' \
        --smoke --benchmark-disable
    python -m benchmarks.report bench-results            # headline tables
    python -m benchmarks.report bench-results --all      # every table found

Pure stdlib — the report needs no ``repro`` import, so it runs anywhere
the JSON artifacts were downloaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: The headline experiments the README's results section tracks, in order.
HEADLINE_PREFIXES = ("e11", "e12", "e13", "e14", "e15")


def load_records(directory: Path) -> List[Dict[str, object]]:
    """All experiment records in *directory*, sorted by file name."""

    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping {path.name}: {error}", file=sys.stderr)
            continue
        if not isinstance(record, dict) or "headers" not in record:
            continue
        record["_file"] = path.name
        records.append(record)
    return records


def is_headline(record: Dict[str, object]) -> bool:
    """Does the record belong to one of the README's headline experiments?"""

    name = str(record.get("experiment", "")) + str(record.get("_file", ""))
    name = name.lower()
    return any(prefix in name for prefix in HEADLINE_PREFIXES)


def markdown_table(record: Dict[str, object]) -> str:
    """One experiment record as a GitHub-flavoured markdown table."""

    headers: Sequence[str] = record["headers"]  # type: ignore[assignment]
    rows: Sequence[Sequence[object]] = record.get("rows", ())  # type: ignore[assignment]
    lines = [
        "### " + str(record.get("experiment", record.get("_file", "experiment"))),
        "",
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def metrics_section(directory: Path) -> str:
    """The ``metrics-snapshot.json`` artifacts as a markdown section.

    The snapshot is the flat ``{name: value}`` registry dump the
    benchmark session writes (see ``benchmarks/conftest.py``); any file
    matching ``metrics*.json`` in *directory* is rendered, so per-run
    snapshots (``metrics-<run>.json``) line up side by side.
    """

    sections: List[str] = []
    for path in sorted(directory.glob("metrics*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping {path.name}: {error}", file=sys.stderr)
            continue
        snapshot = payload.get("metrics") if isinstance(payload, dict) else None
        if not isinstance(snapshot, dict):
            continue
        lines = [
            f"### Metrics ({path.name})",
            "",
            "| metric | value |",
            "|---|---|",
        ]
        for name in sorted(snapshot):
            value = snapshot[name]
            rendered = (
                str(int(value))
                if isinstance(value, float) and value.is_integer()
                else str(value)
            )
            lines.append(f"| `{name}` | {rendered} |")
        sections.append("\n".join(lines))
    if not sections:
        return (
            f"No metrics snapshot found in {directory}/ — run the benchmarks "
            "with REPRO_BENCH_JSON set."
        )
    return "\n\n".join(sections)


def render(
    directory: Path, include_all: bool = False, include_metrics: bool = False
) -> str:
    """The markdown report for every (headline) record in *directory*."""

    records = load_records(directory)
    if not include_all:
        records = [record for record in records if is_headline(record)]
    parts: List[str] = []
    if records:
        parts.append("\n\n".join(markdown_table(record) for record in records))
    elif not include_metrics:
        return (
            f"No benchmark JSON found in {directory}/ — run the benchmarks with "
            "REPRO_BENCH_JSON set (see the module docstring)."
        )
    if include_metrics:
        parts.append(metrics_section(directory))
    return "\n\n".join(parts)


#: The acceptance gates ``--check-gates`` re-verifies from the JSON
#: artifacts: (experiment match, gating column, minimum value).  The
#: gated number is read from the *last* row — the sweeps are ascending,
#: so the last row is the largest point.
GATES = (("e15", "naive/kernel", 10.0),)


def _gate_value(record: Dict[str, object], column: str) -> float:
    """The float in *column* of the record's last row (``"12.3x"`` → 12.3)."""

    headers: Sequence[str] = record["headers"]  # type: ignore[assignment]
    rows: Sequence[Sequence[object]] = record.get("rows", ())  # type: ignore[assignment]
    if not rows:
        raise ValueError("no rows")
    index = list(headers).index(column)
    cell = str(rows[-1][index]).strip().rstrip("x×")
    return float(cell)


def check_gates(directory: Path) -> int:
    """Re-verify the benchmark acceptance gates from the JSON artifacts.

    For each entry of :data:`GATES`, finds the experiment record whose
    name/file matches and whose headers contain the gating column, and
    requires the last row's value to clear the minimum.  A missing
    record or an unparsable cell fails too — a gate that cannot be
    checked is not a passing gate.  Returns a process exit code.
    """

    records = load_records(directory)
    failures: List[str] = []
    for match, column, minimum in GATES:
        found = None
        for record in records:
            name = (
                str(record.get("experiment", "")) + str(record.get("_file", ""))
            ).lower()
            headers = record.get("headers", ())
            if match in name and column in headers:  # type: ignore[operator]
                found = record
                break
        if found is None:
            failures.append(
                f"gate {match!r}/{column!r}: no matching record in {directory}/"
            )
            continue
        try:
            value = _gate_value(found, column)
        except (ValueError, IndexError) as error:
            failures.append(f"gate {match!r}/{column!r}: unreadable ({error})")
            continue
        verdict = "ok" if value >= minimum else "FAIL"
        print(f"gate {match}: {column} = {value:g} (need >= {minimum:g}) {verdict}")
        if value < minimum:
            failures.append(
                f"gate {match!r}/{column!r}: {value:g} below the required {minimum:g}"
            )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.report", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "directory",
        nargs="?",
        default=os.environ.get("REPRO_BENCH_JSON", "bench-results"),
        help="directory holding the *.json artifacts "
        "(default: $REPRO_BENCH_JSON or ./bench-results)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="render every table found, not just the E11–E15 headline ones",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="append the metrics-registry snapshots (metrics*.json) as a section",
    )
    parser.add_argument(
        "--check-gates",
        action="store_true",
        help="re-verify the E15 acceptance gate from the JSON artifacts "
        "(exit 1 on regression or missing record) instead of rendering",
    )
    arguments = parser.parse_args(argv)
    if arguments.check_gates:
        return check_gates(Path(arguments.directory))
    print(
        render(
            Path(arguments.directory),
            include_all=arguments.all,
            include_metrics=arguments.metrics,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
