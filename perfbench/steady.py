"""Steadiness check: two sets of runs of the same code, alternating.

    python3 perfbench/steady.py [--runs 10] [--workload repair_enum ...]

For every workload it runs ``run.py --trace 0`` ``--runs`` times per set,
set A (seeds 1, 2, ...) and set B (seeds 1001, 1002, ...) alternating,
A first on even runs and B first on odd ones, each run as long as
``run_seconds`` in ``BENCHMARK.json``.  It prints each end-to-end
metric's median and quartiles per set, the spread (quartile distance
over the median), the change of set B's median against set A's, and
whether both stay within the metric's bound in ``BENCHMARK.json``
(``ok``), or the spread within a third of it (``steady``).  Results are
also written to ``out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: First seed of set A and of set B.
SEED_BASES = (1, 1001)


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    output = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    report: Dict[str, Any] = {}
    for workload in args.workload or sorted(WORKLOADS):
        sets: List[List[Dict[str, Any]]] = [[], []]
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = SEED_BASES[s] + i
                started = time.monotonic()
                result = one_run(workload, seed, benchmark["run_seconds"])
                result["wall_s"] = time.monotonic() - started
                result["seed"] = seed
                sets[s].append(result)
                print(f"{workload} set {'AB'[s]} seed {seed}: {result['wall_s']:.1f} s, "
                      f"correct={result['correct']} failed {result['failed']}/{result['attempted']}",
                      flush=True)
        report[workload] = {"runs": sets, "metrics": {}}
        print(f"\n{workload}: {args.runs} runs per set")
        print(f"  {'metric':<18} {'set':<3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6}  verdict")
        for name in bounds:
            rows = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            report[workload]["metrics"][name] = rows
            for s, row in enumerate(rows):
                ok = row["spread"] <= bounds[name]
                verdict = ("steady" if row["spread"] <= bounds[name] / 3 else "ok") if ok else "TOO WIDE"
                if s == 1:
                    change = rows[1]["median"] / rows[0]["median"] - 1
                    worse = change if lower_is_better[name] else -change
                    verdict += f"; B vs A {change:+.1%} " + ("ok" if worse <= bounds[name] else "DISAGREE")
                print(f"  {name:<18} {'AB'[s]:<3} {row['median']:>11.4f} {row['q1']:>11.4f} "
                      f"{row['q3']:>11.4f} {row['spread']:>7.3f} {bounds[name]:>6.2f}  {verdict}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        wrong = sum(not r["correct"] for runs in sets for r in runs)
        print(f"  failed share per run: {sorted(shares)}; runs with correct=false: {wrong}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nresults: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
