"""End-to-end benchmark of ``ConsistentDatabase``; see README.md.

    python3 perfbench/run.py --workload repair_enum --seed 1 --seconds 10 --trace 0

Starts fresh worker processes (``worker.py``): two set-up probes and the
measured run, each with the library's own tracer off and the collector
on.  Prints a table of the metrics, raw and speed-corrected, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones of a traced replay with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import oracle
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_DIR = os.path.join(HERE, "out")

#: Fresh processes whose set-up time is measured; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Every run, its builds included, ends within this many seconds.
DEADLINE_S = 170.0
#: A tail is the value with exactly this many samples above it.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def launch(args: List[str], seed: int, deadline: float) -> Tuple[Dict[str, Any], int]:
    """Run ``worker.py`` in a fresh process; return its JSON and peak RSS (KiB).

    The peak is the kernel's ``ru_maxrss`` from ``wait4``: the largest
    resident set of the worker and of any process it started and reaped
    (its pool workers), each measured on its own.
    """

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        assert proc.stdout is not None
        output = proc.stdout.read().decode()
        proc.stdout.close()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = output.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss


def tail(values: List[float]) -> Tuple[float, float]:
    """The value with TAIL_BEYOND samples above it, and its percentile."""

    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(run: Dict[str, Any], setups: List[Dict[str, Any]], rss_kib: int) -> Tuple[Dict[str, Any], List[str], List[str]]:
    """The end-to-end metrics, the table lines and any problem with the sample."""

    samples: Dict[str, List[List[float]]] = run["samples"]
    metrics: Dict[str, Any] = {}
    lines: List[str] = []
    problems: List[str] = []

    def put(name: str, unit: str, value: float, raw: float, note: str = "") -> None:
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<20} {value:>12.4f} {unit:<4} raw {raw:>12.4f}  {note}")

    for kind, prefix, unit, scale in (
        ("query", "query", "ms", 1e3),
        ("certain", "certain", "ms", 1e3),
        ("mutation", "mutation", "us", 1e6),
    ):
        pairs = samples.get(kind, [])
        if len(pairs) < TAIL_MIN_SAMPLES:
            problems.append(f"{kind}: {len(pairs)} samples, a tail needs {TAIL_MIN_SAMPLES}")
            continue
        raw = [scale * r for r, _ in pairs]
        corrected = [scale * c for _, c in pairs]
        put(f"{prefix}_p50_{unit}", unit, statistics.median(corrected), statistics.median(raw),
            f"n={len(pairs)}")
        value, percentile = tail(corrected)
        put(f"{prefix}_tail_{unit}", unit, value, tail(raw)[0], f"p{percentile:.1f} of n={len(pairs)}")
    everything = [pair for pairs in samples.values() for pair in pairs]
    put(
        "throughput_ops_s", "1/s",
        len(everything) / sum(c for _, c in everything),
        len(everything) / sum(r for r, _ in everything),
        f"{len(everything)} operations",
    )
    put(
        "setup_s", "s",
        statistics.median(s["corrected_s"] for s in setups),
        statistics.median(s["raw_s"] for s in setups),
        f"median of {len(setups)} fresh processes",
    )
    put("peak_rss_mb", "MB", rss_kib / 1024.0, rss_kib / 1024.0, "largest process of the run")
    return metrics, lines, problems


def layer_table(run: Dict[str, Any]) -> Tuple[Dict[str, Any], List[str]]:
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["layers"].items()}
    totals: Dict[str, float] = run["layer_totals"]
    whole = sum(totals.values())
    lines = ["  layer self time over the traced replay (ms, share of traced request time):"]
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        label = "unattributed (session.request)" if name == "session.request" else name
        lines.append(f"    {label:<34} {1e3 * seconds:>10.2f}  {100 * seconds / whole:5.1f}%")
    lines.append("  per-layer metrics:")
    for name, entry in metrics.items():
        lines.append(f"    {name:<38} {entry['value']:>14.4f} {entry['unit']}")
    overhead = run["overhead"]
    lines.append(
        "  tracing overhead: traced {:.3f} s vs untraced {:.3f} s corrected request time"
        " ({:+.1f}%), median per request {:+.3f} ms".format(
            overhead["traced_s"], overhead["untraced_s"],
            100 * (overhead["traced_s"] / overhead["untraced_s"] - 1),
            overhead["median_request_ms"],
        )
    )
    return metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    problems = [f"reference model: {p}" for p in oracle.selfcheck()]
    lines = [f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}"]
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        spans = os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.json")
        run, _ = launch(common + ["--mode", "traced", "--spans", spans], args.seed, deadline)
        metrics, table = layer_table(run)
        lines += table + [f"  span file: {os.path.relpath(spans, ROOT)}"]
    else:
        setups = [launch(common + ["--mode", "setup"], args.seed, deadline)[0]["setup"]
                  for _ in range(SETUP_RUNS - 1)]
        run, rss = launch(common + ["--mode", "run"], args.seed, deadline)
        metrics, table, shortfall = end_to_end(run, setups + [run["setup"]], rss)
        lines += table
        problems += shortfall
        for setup in setups:
            problems += setup["problems"]
    counts = {kind: len(pairs) for kind, pairs in run["samples"].items()}
    lines.append(f"  rounds {run['rounds']}, operations per kind {counts}")
    problems += run["problems"]
    for problem in problems[:20]:
        lines.append(f"  PROBLEM: {problem}")
    for failure in run["failures"][:20]:
        lines.append(f"  FAILED: {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
