"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kiter-cold --seed 1 --seconds 20 --trace 0

``perfbench/WORKLOADS.md`` describes the workloads and the metrics.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The package is imported from this checkout's ``src/``;
without it, or without the corpus under ``tests/data``, the run exits
non-zero before printing a result. The ``REPRO_*`` switches of the
environment (tracing, profiling, slow-solve capture, engine plug-ins)
are cleared first, so every run measures the program's defaults.

A run measures whole rounds: it starts no round after ``--seconds`` of
calls, and finishes the one it is in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5


def _bootstrap() -> None:
    """Put this checkout's ``src/`` first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {src}")
    if not (ROOT / "tests" / "data" / "golden_index.json").is_file():
        raise SystemExit("perfbench: no corpus under tests/data")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(src), str(ROOT)]


class Tally:
    """What one set of calls did: latencies, answers, solve counts."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.round_starts: List[int] = []  # index of each round's first call
        self.failed = 0
        self.answers = 0
        self.solves = 0
        self.rounds = 0
        self.engine_iterations = 0
        self.counters: Dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def start_round(self) -> None:
        self.round_starts.append(len(self.latencies))

    def fastest_per_call(self) -> List[float]:
        """Each call of a repeated round, timed by its fastest repeat."""
        ends = self.round_starts[1:] + [len(self.latencies)]
        rounds = [self.latencies[start:end]
                  for start, end in zip(self.round_starts, ends)]
        return [min(times) for times in zip(*rounds)]

    def add(self, elapsed: float, checked) -> None:
        self.latencies.append(elapsed)
        if checked is None or not checked.ok:
            self.failed += 1
        if checked is not None:
            self.answers += checked.answers
            self.solves += checked.solves
            self.rounds += checked.rounds
            self.engine_iterations += checked.engine_iterations

    def count(self, before: Dict[str, float],
              after: Dict[str, float]) -> None:
        for key, value in after.items():
            self.counters[key] = (
                self.counters.get(key, 0) + value - before.get(key, 0))


def program_counters(workload) -> Dict[str, float]:
    """The registry's block-cache events plus the workload's counters."""
    from repro.obs.metrics import REGISTRY

    blocks = REGISTRY.samples("repro_expansion_block_cache_total")
    return {
        "block_hits": blocks.get(("hit",), 0),
        "block_misses": blocks.get(("miss",), 0),
        **workload.counters(),
    }


def measure(workload, seconds: float, ledger,
            time_setup=None) -> Tuple[Tally, Tally, List[float]]:
    """The closed loop: one call at a time, whole rounds until time is up.

    Every round is run to its end, so each call of a round is measured
    as often as the others. With a ledger, even rounds run traced and
    odd rounds untraced, so both halves see the same kind of inputs and
    program state. With ``time_setup``, ``SETUP_REPEATS`` set-ups are
    timed between rounds at even steps through the run, so they meet
    the host at the moments the calls do; the time they take is added
    to the run. Returns the untraced and the traced tally and the
    set-up times.
    """
    plain, traced = Tally(), Tally()
    setups: List[float] = []
    due = ([seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]
           if time_setup else [])
    started = time.perf_counter()
    paused = 0.0  # spent timing set-ups, not calls
    round_index = 0
    while True:
        measured = time.perf_counter() - started - paused
        if due and measured >= due[0]:
            due.pop(0)
            pause = time.perf_counter()
            setups.append(time_setup())
            paused += time.perf_counter() - pause
            continue
        if measured >= seconds:
            break
        tracing = ledger is not None and round_index % 2 == 0
        tally = traced if tracing else plain
        tally.start_round()
        requests = workload.next_round()
        if tracing:
            before = program_counters(workload)
            ledger.install()
        try:
            for request in requests:
                call_started = time.perf_counter()
                try:
                    result = workload.call(request)
                except Exception:  # noqa: BLE001 - a failed call is counted
                    tally.add(time.perf_counter() - call_started, None)
                    traceback.print_exc()
                    continue
                tally.add(time.perf_counter() - call_started,
                          workload.check(request, result))
        finally:
            if tracing:
                ledger.uninstall()
                tally.count(before, program_counters(workload))
        round_index += 1
    return plain, traced, setups


def time_setup(args) -> float:
    """Seconds from process start to ready-to-call, in a fresh process."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        ready = child.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if not ready or child.returncode != 0:
        raise SystemExit(f"perfbench: set-up run exited {child.returncode}")
    return elapsed


def end_to_end(workload, tally: Tally,
               setup_times: List[float]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of the untraced calls.

    Where every round repeats the same calls, each call counts once,
    timed by its fastest repeat: other work on a shared host only ever
    adds time, and a single slow stretch of the host would otherwise
    move the whole run. Other workloads count every call as timed.
    """
    if workload.REPEATS:
        latencies = tally.fastest_per_call()
        answers = tally.answers / len(tally.round_starts)
    else:
        latencies, answers = tally.latencies, tally.answers
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "answers_per_s": (answers / sum(latencies), "1/s"),
        "call_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "call_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "ok_share": (1 - tally.failed / tally.attempted, "share"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        random.Random(f"{args.workload}:{args.seed}"))
    if args.setup_only:
        print("ready", flush=True)
        workload.close()
        return 0
    ledger = None
    if args.trace:
        from perfbench.ledger import Ledger

        ledger = Ledger(queue=getattr(workload, "queue", None))
    gc.collect()
    try:
        plain, traced, setups = measure(
            workload, args.seconds, ledger,
            None if args.trace else lambda: time_setup(args))
    finally:
        workload.close()
    if args.trace:
        from perfbench.ledger import layer_metrics

        metrics = layer_metrics(ledger, traced, plain)
    else:
        metrics = end_to_end(workload, plain, setups)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {attempted} calls, "
          f"{plain.answers + traced.answers} answers, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
