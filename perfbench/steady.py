"""Steadiness check: each workload N times per set, medians vs bounds.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --sets 1 --workload dse-sizing

Every set runs each workload with seeds ``1..N`` and the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric and
set the table shows the median, the quartiles (``statistics.quantiles
(values, n=4)``) and the spread ``(q3 - q1) / median`` next to the
metric's bound: ``steady`` within a third of the bound, ``ok`` within
the bound, ``UNSTEADY`` past it. With two or more sets it then shows how
much worse, in the metric's own direction, each later set's median is
than the first set's, against the same bound. Exits 1 when a spread or
a shift passes its bound; stops at the first run that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One untraced run; its end-to-end metric values by name."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} calls failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def verdict(value: float, bound: float) -> str:
    return ("steady" if value <= bound / 3
            else "ok" if value <= bound else "UNSTEADY")


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run each workload N times per set; compare to bounds.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2 or args.sets < 1:
        parser.error("need --runs >= 2 and --sets >= 1")
    seconds = spec["run_seconds"]
    unsteady = False
    for workload in args.workload or names:
        sets: List[List[Dict[str, float]]] = []
        for index in range(args.sets):
            sets.append([run_once(workload, seed, seconds)
                         for seed in range(1, args.runs + 1)])
            print(f"{workload} set {index + 1}: {args.runs} runs of "
                  f"{seconds} s, seeds 1..{args.runs}", flush=True)
        print(f"  {'metric':<16}{'set':>4}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
        medians: Dict[str, List[float]] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for index, runs in enumerate(sets):
                values = [run[name] for run in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                medians.setdefault(name, []).append(median)
                spread = (q3 - q1) / median if median else 0.0
                unsteady |= spread > bound
                print(f"  {name:<16}{index + 1:>4}{median:>12.5g}"
                      f"{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{bound:>8.3f}"
                      f"  {verdict(spread, bound)}")
        if args.sets > 1:
            print(f"  {'metric':<16}{'set':>4}{'worse by':>12}"
                  f"{'bound':>8}  verdict (median against set 1)")
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                first, *later = medians[name]
                for index, median in enumerate(later, start=2):
                    shift = worse_by(first, median, metric["better"])
                    unsteady |= shift > bound
                    print(f"  {name:<16}{index:>4}{shift:>12.4f}"
                          f"{bound:>8.3f}  {verdict(shift, bound)}")
        sys.stdout.flush()
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
