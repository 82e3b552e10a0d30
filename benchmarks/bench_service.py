"""Service-layer benchmark: batched service traffic vs single-shot solves.

The workload replays serving-style traffic: ``REPEATS`` queries over
each of the ten synthetic Table-2 analogues (production λ* traffic is
dominated by repeated graphs — design-space sweeps, dashboards, CI).
Three paths answer it:

* **sequential** — one blocking ``throughput_kiter`` call per request,
  the pre-service workflow: every repeat pays a full solve;
* **service batch** — the same requests through
  ``ThroughputService(workers=2).submit_many`` (the ``repro batch``
  path): in-batch dedup solves each unique job once on the pool and
  fans the outcome out to the repeats;
* **service repeat** — the whole batch again, answered entirely by the
  in-memory result cache.

The serving-layer acceptance gate is the batch path beating sequential
wall time. Dedup alone guarantees that on any machine; on multi-core
hosts the pool adds real parallelism on top, which is asserted
separately when ≥ 2 CPUs are available (CI containers for this repo
may expose a single core, where two workers just time-slice). Results
land in ``results/service_batch_vs_sequential.txt``. The pool is
measured warm (one trivial warm-up job), mirroring a long-lived
service process rather than cold-start CLI latency.
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import SCALE, write_artifact
from repro.bench.reporting import format_table
from repro.obs.bench import emit_bench
from repro.generators.synthetic import graph1, graph2, graph3, graph4, graph5
from repro.kperiodic import throughput_kiter
from repro.model import sdf
from repro.service import ThroughputService

WORKERS = 2
REPEATS = 3

REPO_ROOT = Path(__file__).resolve().parent.parent
FLEET_DIR = REPO_ROOT / "tests" / "data" / "fleet"
#: CI gate: batched chunk throughput over one-payload chunks, at
#: equal worker count, on the fleet fixture. Locally the batched path
#: lands near 2.8x; the gate leaves margin for noisy CI hosts.
FLEET_GATE_THRESHOLD = 2.0
FLEET_GATE_ENGINES = ("ratio-iteration",)
FLEET_ENGINES = ("ratio-iteration", "karp")
FLEET_TIMING_REPEATS = 7


def _unique_graphs():
    return [
        maker(scale)
        for maker in (graph1, graph2, graph3, graph4, graph5)
        for scale in (SCALE, SCALE + 1)
    ]


def _traffic(graphs):
    # Interleave the repeats (g0 g1 … g9 g0 g1 …) so the sequential
    # baseline cannot benefit from any incidental warm state either.
    return [g for _ in range(REPEATS) for g in graphs]


def test_service_batch_beats_sequential(benchmark):
    graphs = _unique_graphs()
    requests = _traffic(graphs)

    start = time.perf_counter()
    sequential = [throughput_kiter(g) for g in requests]
    sequential_s = time.perf_counter() - start

    with ThroughputService(workers=WORKERS) as service:
        service.submit(sdf({"A": 1, "B": 1},
                           [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)]))
        start = time.perf_counter()
        batch = service.submit_many(requests)
        batch_s = time.perf_counter() - start

        start = time.perf_counter()
        cached = service.submit_many(requests)
        cached_s = time.perf_counter() - start
        stats = service.stats()

    for reference, outcome, repeat in zip(sequential, batch, cached):
        assert outcome.status == "OK"
        assert outcome.period == reference.period
        assert repeat.period == reference.period
        assert repeat.cache_hit == "memory"
    solved = stats.solves
    assert solved <= len(graphs) + 1  # dedup: one solve per unique job

    rows = [
        [f"sequential kiter ({len(requests)} solves)",
         f"{sequential_s * 1000:.0f}ms", "1.00x"],
        [f"service batch ({WORKERS} workers, {len(graphs)} solves + dedup)",
         f"{batch_s * 1000:.0f}ms", f"{sequential_s / batch_s:.2f}x"],
        ["service repeat (memory cache)", f"{cached_s * 1000:.0f}ms",
         f"{sequential_s / cached_s:.0f}x"],
    ]
    table = format_table(
        ["Path", "wall time", "speedup"],
        rows,
        title=(
            f"Service layer — {len(requests)} requests over "
            f"{len(graphs)} unique synthetic graphs "
            f"(scale {SCALE}..{SCALE + 1}, {os.cpu_count()} CPU(s))"
        ),
    )
    write_artifact("service_batch_vs_sequential.txt", table)
    print("\n" + table)
    assert batch_s < sequential_s, (
        f"service batch ({batch_s:.3f}s) did not beat sequential "
        f"({sequential_s:.3f}s)"
    )
    assert cached_s < batch_s
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _fleet_cases():
    index = FLEET_DIR / "fleet_index.json"
    if not index.exists():
        return []
    return json.loads(index.read_text())


def _best_of(fn, repeats=FLEET_TIMING_REPEATS):
    """Best wall time over ``repeats`` runs (damps scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batched_fleet_chunk_gate(benchmark):
    """CI gate: batched chunk ≥2x over per-graph chunk, equal workers.

    Both configurations run the *same* worker chunk path
    (``service.pool.solve_chunk``, the function every pool/distributed
    worker executes) in this one process — equal worker count by
    construction — over the triple-verified fleet fixture. The only
    difference is the chunk size: the whole fixture as one chunk, whose
    lockstep rounds stack every graph into one batched MCRP kernel
    pass, against one-payload chunks (``solve_chunk([p])`` per
    payload), whose kernel passes hold one graph each. Both are
    measured warm (the worker graph LRU and expansion/compiled caches
    carry across chunks, as in any long-lived worker); the
    ``sequential`` row is the pre-service one-payload-at-a-time
    baseline with no warm worker state at all.
    Every path must reproduce the fixture's triple-verified λ* exactly.

    Emits machine-readable ``BENCH_service.json`` (the perf trajectory
    across PRs) plus ``results/ablation_batched_fleet.txt``.
    """
    import pytest

    from repro.io import load_graph
    from repro.kperiodic.kiter import solve_kiter_payload
    from repro.mcrp.batched import BATCHED_ORACLES
    from repro.service.pool import solve_chunk

    cases = _fleet_cases()
    if not cases:
        pytest.skip("fleet fixture not generated")
    graphs = {c["file"]: load_graph(FLEET_DIR / c["file"]) for c in cases}

    def payloads(engine):
        return [
            {"graph": graphs[c["file"]].to_dict(), "engine": engine,
             "graph_digest": c["file"]}
            for c in cases
        ]

    def one_payload_chunks(chunk):
        return [solve_chunk([p])[0] for p in chunk]

    def check(outcomes, engine, path):
        for c, o in zip(cases, outcomes):
            assert o["status"] == "OK", (engine, path, c["file"], o)
            assert o["period"] == c["period"], (engine, path, c["file"])

    rows = []
    table_rows = []
    speedups = {}
    for engine in FLEET_ENGINES:
        chunk = payloads(engine)
        # Warm the worker state for both chunk configs (graph LRU +
        # expansion block/compiled caches), as any steady-state worker.
        solve_chunk(chunk)
        one_payload_chunks(chunk)
        batched_s, batched_out = _best_of(lambda: solve_chunk(chunk))
        pergraph_s, pergraph_out = _best_of(
            lambda: one_payload_chunks(chunk))
        sequential_s, sequential_out = _best_of(
            lambda: [solve_kiter_payload(p) for p in chunk],
            repeats=3,
        )
        check(batched_out, engine, "batched")
        check(pergraph_out, engine, "per-graph")
        check(sequential_out, engine, "sequential")
        if engine in BATCHED_ORACLES:
            assert all(o["batched"] for o in batched_out), engine
        speedup = pergraph_s / batched_s
        speedups[engine] = speedup
        rows.extend([
            {"engine": engine, "path": "sequential",
             "wall_s": sequential_s, "speedup_vs_sequential": 1.0},
            {"engine": engine, "path": "per-graph",
             "wall_s": pergraph_s,
             "speedup_vs_sequential": sequential_s / pergraph_s},
            {"engine": engine, "path": "batched",
             "wall_s": batched_s,
             "speedup_vs_sequential": sequential_s / batched_s,
             "speedup_vs_per_graph": speedup},
        ])
        table_rows.extend([
            [engine, "sequential", f"{sequential_s * 1000:.1f}ms", "", ""],
            [engine, "per-graph chunk", f"{pergraph_s * 1000:.1f}ms",
             f"{sequential_s / pergraph_s:.2f}x", ""],
            [engine, "batched chunk", f"{batched_s * 1000:.1f}ms",
             f"{sequential_s / batched_s:.2f}x", f"{speedup:.2f}x"],
        ])

    table = format_table(
        ["engine", "path", "wall time", "vs sequential", "vs per-graph"],
        table_rows,
        title=(
            f"Batched fleet solving — {len(cases)} fixture graphs per "
            f"chunk, 1 worker per config ({os.cpu_count()} CPU(s)), "
            f"best of {FLEET_TIMING_REPEATS}"
        ),
    )
    write_artifact("ablation_batched_fleet.txt", table)
    print("\n" + table)

    gated = {e: speedups[e] for e in FLEET_GATE_ENGINES}
    emit_bench(
        "service",
        [
            {"name": f"batched_speedup_{engine}", "value": speedup,
             "unit": "x"}
            for engine, speedup in sorted(speedups.items())
        ],
        extra={
            "fixture": str(FLEET_DIR.relative_to(REPO_ROOT)),
            "cases": len(cases),
            "workers": 1,
            "cpu_count": os.cpu_count(),
            "timing": {"repeats": FLEET_TIMING_REPEATS,
                       "policy": "best"},
            "gate": {
                "engines": list(FLEET_GATE_ENGINES),
                "threshold": FLEET_GATE_THRESHOLD,
                "speedups": gated,
                "passed": all(
                    s >= FLEET_GATE_THRESHOLD for s in gated.values()
                ),
            },
            "rows": rows,
        },
        out_dir=str(REPO_ROOT),
    )
    for engine, speedup in gated.items():
        assert speedup >= FLEET_GATE_THRESHOLD, (
            f"batched chunk speedup {speedup:.2f}x for {engine} fell "
            f"below the {FLEET_GATE_THRESHOLD}x gate "
            f"(per-graph {dict(speedups)})"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_service_parallel_speedup_on_unique_graphs(benchmark):
    """Pure pool parallelism, no dedup — meaningful only with ≥2 CPUs."""
    import pytest

    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-CPU host: pool workers only time-slice")
    graphs = _unique_graphs()
    start = time.perf_counter()
    sequential = [throughput_kiter(g) for g in graphs]
    sequential_s = time.perf_counter() - start
    with ThroughputService(workers=WORKERS) as service:
        service.submit(sdf({"A": 1, "B": 1},
                           [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)]))
        start = time.perf_counter()
        batch = service.submit_many(graphs)
        batch_s = time.perf_counter() - start
    for reference, outcome in zip(sequential, batch):
        assert outcome.period == reference.period
    assert batch_s < sequential_s, (
        f"{WORKERS}-worker pool ({batch_s:.3f}s) did not beat "
        f"sequential ({sequential_s:.3f}s) on {os.cpu_count()} CPUs"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
