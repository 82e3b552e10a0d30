"""Distributed-fabric benchmark: coordinator + 2 workers vs sequential.

The workload is the serving-layer 30-request traffic replay
(``benchmarks/bench_service.py``'s shape): ``REPEATS`` queries over
``len(_graphs(...))`` unique synthetic Table-2 analogues. Three rows
answer it:

* **single-worker sequential** — one blocking ``throughput_kiter`` per
  request in this process: every repeat pays a full solve;
* **distributed (gated)** — the same requests through
  ``ThroughputService(queue=CoordinatorClient(url))`` against an
  in-process coordinator with **two real worker OS processes**
  (``repro worker --coordinator``): the coordinator dedups the repeats
  and the workers split the unique solves. The acceptance gate is
  **≥ 1.5x** over sequential — in-batch dedup alone guarantees ~3x on
  any machine, so the gate holds even on single-core CI where the two
  workers merely time-slice; multi-core hosts add real parallelism on
  top;
* **distributed replay** — the whole batch again from a fresh client:
  answered entirely by the coordinator's cache (``cache_hit="remote"``).

Ablation artifacts (``results/ablation_distributed.txt``):
**cold start** (spawning the coordinator + both workers and solving a
disjoint warm-up set, daemon boot included) and a **SQLite-vs-disk
cache backend** micro-benchmark (put+get of golden-corpus-sized
outcomes). CI job ``distributed-smoke`` runs this module and uploads
``BENCH_distributed.json`` plus the artifact.

A second test gates the coordinator's bounded state: the p99 of
``MemoryJobQueue`` ``lease``, ``ack`` and ``result`` with 0, 10k and
50k completed jobs in the queue's history (``BENCH_distributed_queue.json``,
``results/ablation_queue_history.txt``). The p99 at 50k must stay
within ``HISTORY_GATE`` of the p99 at 0: no operation may scan the
history.
"""

import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from benchmarks.conftest import SCALE, write_artifact
from repro.bench.reporting import format_table
from repro.obs.bench import emit_bench
from repro.distributed import (
    CoordinatorClient,
    CoordinatorServer,
    DiskCacheBackend,
    MemoryJobQueue,
    SQLiteCacheBackend,
)
from repro.generators.synthetic import graph1, graph2, graph3
from repro.kperiodic import throughput_kiter
from repro.service import ThroughputService

WORKERS = 2
#: 6 unique graphs × 5 repeats = the 30-request replay. Production λ*
#: traffic repeats graphs hard (sweeps, dashboards, CI), and the gate
#: must hold on single-core CI runners where two workers only
#: time-slice — dedup, not parallelism, carries the floor there.
REPEATS = 5
GATE = 1.5
#: Completed jobs in the queue before the per-operation timings.
HISTORIES = (0, 10_000, 50_000)
#: Timed submit → lease → ack → result cycles per history.
CYCLES = 5_000
HISTORY_GATE = 1.2


def _graphs(*scales):
    return [
        maker(scale)
        for maker in (graph1, graph2, graph3)
        for scale in scales
    ]


def _traffic(graphs):
    return [g for _ in range(REPEATS) for g in graphs]


def _spawn_worker(url, name, cwd):
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--coordinator", url,
         "--id", name, "--poll", "0.02", "--chunk-size", "2"],
        env=env, cwd=str(cwd),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def test_distributed_replay_beats_single_worker_sequential(
    benchmark, tmp_path
):
    unique = _graphs(SCALE, SCALE + 1)
    requests = _traffic(unique)
    warmup = _graphs(SCALE + 2)  # disjoint set for the cold-start row

    start = time.perf_counter()
    sequential = [throughput_kiter(g) for g in requests]
    sequential_s = time.perf_counter() - start

    with CoordinatorServer(
        queue=MemoryJobQueue(visibility_timeout=60)
    ) as server:
        workers = []
        try:
            # Cold start: daemons boot *inside* the measured window.
            start = time.perf_counter()
            workers = [
                _spawn_worker(server.url, f"bench-w{i}", tmp_path)
                for i in range(WORKERS)
            ]
            cold_service = ThroughputService(
                queue=CoordinatorClient(server.url), queue_poll=0.02,
            )
            cold = cold_service.submit_many(warmup)
            cold_s = time.perf_counter() - start
            assert all(o.ok for o in cold)

            # Steady state: the gated 30-request replay. The poll
            # interval is deliberately lazy: on a single-core host an
            # aggressive poller steals CPU from the very workers it is
            # waiting on (HTTP handling happens in this process).
            service = ThroughputService(
                queue=CoordinatorClient(server.url), queue_poll=0.15,
            )
            start = time.perf_counter()
            distributed = service.submit_many(requests)
            distributed_s = time.perf_counter() - start

            # Replay from a fresh client: remote cache only.
            replay_service = ThroughputService(
                queue=CoordinatorClient(server.url), queue_poll=0.02,
            )
            start = time.perf_counter()
            replayed = replay_service.submit_many(requests)
            replay_s = time.perf_counter() - start
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()

    for reference, outcome, repeat in zip(
        sequential, distributed, replayed
    ):
        assert outcome.status == "OK"
        assert outcome.period == reference.period  # Fraction-exact
        assert repeat.period == reference.period
        assert repeat.cache_hit in ("remote", "memory", "batch")

    backend_rows = _cache_backend_ablation(tmp_path)
    rows = [
        [f"single-worker sequential ({len(requests)} solves)",
         f"{sequential_s * 1000:.0f}ms", "1.00x"],
        [f"distributed ({WORKERS} worker procs, "
         f"{len(unique)} solves + dedup)",
         f"{distributed_s * 1000:.0f}ms",
         f"{sequential_s / distributed_s:.2f}x"],
        ["distributed replay (remote cache)",
         f"{replay_s * 1000:.0f}ms",
         f"{sequential_s / replay_s:.1f}x"],
        [f"cold start (+ {WORKERS} daemon boots, "
         f"{len(warmup)} solves)",
         f"{cold_s * 1000:.0f}ms", "-"],
        *backend_rows,
    ]
    table = format_table(
        ["Path", "wall time", "speedup"],
        rows,
        title=(
            f"Distributed fabric — {len(requests)} requests over "
            f"{len(unique)} unique synthetic graphs "
            f"(scale {SCALE}..{SCALE + 1}, {os.cpu_count()} CPU(s))"
        ),
    )
    write_artifact("ablation_distributed.txt", table)
    print("\n" + table)
    emit_bench(
        "distributed",
        [
            {"name": "distributed_speedup",
             "value": sequential_s / distributed_s, "unit": "x"},
            {"name": "replay_speedup",
             "value": sequential_s / replay_s, "unit": "x"},
            {"name": "cold_start_seconds", "value": cold_s, "unit": "s"},
        ],
        extra={
            "workers": WORKERS,
            "requests": len(requests),
            "unique_graphs": len(unique),
            "cpu_count": os.cpu_count(),
            "gate": {"threshold": GATE,
                     "speedup": sequential_s / distributed_s,
                     "passed": sequential_s / distributed_s >= GATE},
        },
        out_dir=str(Path(repro.__file__).resolve().parents[2]),
    )
    assert sequential_s / distributed_s >= GATE, (
        f"distributed replay ({distributed_s:.3f}s) is only "
        f"{sequential_s / distributed_s:.2f}x over sequential "
        f"({sequential_s:.3f}s); the gate is {GATE}x"
    )
    assert replay_s < distributed_s
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _cache_backend_ablation(tmp_path):
    """SQLite vs disk persistent tier: put+get micro-benchmark rows."""
    outcome = {
        "status": "OK", "period": [881, 13], "K": {f"t{i}": 2 for i in range(12)},
        "rounds": 7, "engine_iterations": 41, "critical_tasks": ["t3"],
        "engine": "ratio-iteration", "engine_used": "ratio-iteration",
        "fallback": False,
        "cache_hit": "", "wall_time": 0.173, "worker_pid": 4242,
    }
    count = 300
    digests = [f"{i:x}".rjust(64, "a") for i in range(count)]
    rows = []
    backends = {
        "disk backend": DiskCacheBackend(tmp_path / "ablation-disk"),
        "sqlite backend": SQLiteCacheBackend(
            tmp_path / "ablation-cache.db"
        ),
    }
    for label, backend in backends.items():
        start = time.perf_counter()
        for digest in digests:
            backend.put(digest, outcome)
        for digest in digests:
            assert backend.get(digest)["period"] == [881, 13]
        elapsed = time.perf_counter() - start
        rows.append([
            f"{label} ({count} put+get)",
            f"{elapsed * 1000:.0f}ms",
            f"{count / elapsed:.0f} op-pairs/s",
        ])
        backend.close()
    return rows


def _filled_queue(history):
    """A memory queue holding ``history`` acked jobs."""
    queue = MemoryJobQueue()
    for i in range(history):
        queue.submit({"digest": f"{i:064x}", "graph": {}})
    for job in queue.lease(history):
        queue.ack(job.job_id, job.token, {"status": "OK", "period": [1, 1]})
    return queue


def _p99(samples):
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))]


def test_memory_queue_operations_stay_flat_as_history_grows(benchmark):
    queues = {history: _filled_queue(history) for history in HISTORIES}
    times = {history: {"lease": [], "ack": [], "result": []}
             for history in HISTORIES}
    clock = time.perf_counter
    order = list(HISTORIES)
    # Histories take turns cycle by cycle, each first in turn, so host
    # noise hits all alike. The collector is off while timing: where a
    # collection lands is what scatters a ~10 us tail by ±20%, and the
    # gate is about the queue's own work per operation.
    gc.disable()
    try:
        for cycle in range(CYCLES):
            digest = f"c{cycle:063x}"  # never a history digest
            order = order[1:] + order[:1]
            for history in order:
                queue = queues[history]
                queue.submit({"digest": digest, "graph": {}})
                started = clock()
                (job,) = queue.lease(1)
                leased = clock()
                queue.ack(job.job_id, job.token,
                          {"status": "OK", "period": [1, 1]})
                acked = clock()
                assert queue.result(digest)["status"] == "OK"
                answered = clock()
                times[history]["lease"].append(leased - started)
                times[history]["ack"].append(acked - leased)
                times[history]["result"].append(answered - acked)
    finally:
        gc.enable()

    p99_ms = {
        (history, op): _p99(samples) * 1000
        for history, ops in times.items() for op, samples in ops.items()
    }
    ops = ("lease", "ack", "result")
    ratios = {op: p99_ms[HISTORIES[-1], op] / p99_ms[0, op] for op in ops}
    table = format_table(
        ["Completed jobs", *(f"{op} p99" for op in ops)],
        [[f"{history:,}",
          *(f"{p99_ms[history, op]:.4f}ms" for op in ops)]
         for history in HISTORIES]
        + [[f"{HISTORIES[-1]:,} / 0",
            *(f"{ratios[op]:.2f}x" for op in ops)]],
        title=(
            f"MemoryJobQueue per-operation p99 vs history "
            f"({CYCLES} cycles per history, {os.cpu_count()} CPU(s))"
        ),
    )
    write_artifact("ablation_queue_history.txt", table)
    print("\n" + table)
    emit_bench(
        "distributed_queue",
        [
            {"name": f"{op}_p99_ms_at_{history}",
             "value": p99_ms[history, op], "unit": "ms"}
            for history in HISTORIES for op in ops
        ],
        extra={
            "cycles": CYCLES,
            "cpu_count": os.cpu_count(),
            "gate": {"threshold": HISTORY_GATE, "ratios": ratios,
                     "passed": all(r <= HISTORY_GATE
                                   for r in ratios.values())},
        },
        out_dir=str(Path(repro.__file__).resolve().parents[2]),
    )
    for op, ratio in ratios.items():
        assert ratio <= HISTORY_GATE, (
            f"{op} p99 at {HISTORIES[-1]:,} completed jobs is "
            f"{ratio:.2f}x its p99 on an empty queue; the gate is "
            f"{HISTORY_GATE}x"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
