"""Scheduling-policy bench: every registered policy × MCRP engine.

The gate sweeps the policy registry (``asap``, ``alap``, ``list``,
``force-directed`` today — a newly registered policy joins the matrix
automatically via :func:`repro.bench.runner.schedule_policy_names`)
against two MCRP engines over a fleet-fixture subset. Every cell must
come back ``OK`` with the fixture's triple-verified λ* **bit-identical**
across policies and engines: the policy zoo reshapes *starts*, never
the certified period.

An informational (non-gating) section compares resource-constrained
list scheduling under a two-CPU balanced binding against unconstrained
ASAP: pattern makespan when the binding admits the certified period,
an honest ``N/S`` when it does not (most tight graphs cannot keep λ*
on two processors — that strictness is the policy's contract, see
``docs/scheduling.md``).

Emits machine-readable ``BENCH_scheduling.json`` (the perf trajectory
across PRs) plus ``results/ablation_scheduling_policies.txt``.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import BUDGET, write_artifact
from repro.bench.reporting import format_table
from repro.obs.bench import emit_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
FLEET_DIR = REPO_ROOT / "tests" / "data" / "fleet"

#: Fleet subset: the two paper figures, one rational-period graph
#: (modem, λ* = 43/2), and one graph per random fleet family.
FLEET_SUBSET = (
    "fleet_figure1.json",
    "fleet_figure2.json",
    "fleet_modem.json",
    "fleet_csdf1000.json",
    "fleet_sdf2000.json",
    "fleet_med3000.json",
)
ENGINES = ("ratio-iteration", "karp")


def _fleet_cases():
    index = FLEET_DIR / "fleet_index.json"
    if not index.exists():
        return []
    wanted = set(FLEET_SUBSET)
    return [c for c in json.loads(index.read_text())
            if c["file"] in wanted]


def test_policy_engine_matrix(benchmark):
    """CI gate: every policy × engine certifies the fixture λ* exactly."""
    import pytest

    from fractions import Fraction

    from repro.bench.runner import run_schedule_policy, schedule_policy_names
    from repro.io import load_graph

    cases = _fleet_cases()
    if not cases:
        pytest.skip("fleet fixture not generated")
    graphs = {c["file"]: load_graph(FLEET_DIR / c["file"]) for c in cases}
    policies = schedule_policy_names()
    assert len(policies) >= 3, policies

    rows = []
    metrics = []
    for policy in policies:
        for engine in ENGINES:
            start = time.perf_counter()
            for case in cases:
                outcome = run_schedule_policy(
                    policy, graphs[case["file"]], BUDGET, engine=engine
                )
                assert outcome.ok, (policy, engine, case["file"],
                                    outcome.status)
                assert outcome.period == Fraction(*case["period"]), (
                    policy, engine, case["file"], outcome.period
                )
            elapsed = time.perf_counter() - start
            rows.append([policy, engine, len(cases),
                         f"{elapsed * 1000:.0f}ms"])
            metrics.append({
                "name": f"schedule_{policy}_{engine}_s",
                "value": round(elapsed, 4),
                "unit": "s",
            })

    info_rows, info_metrics = _list_vs_asap_rows(graphs, cases)
    table = format_table(
        ["policy", "engine", "graphs", "wall time"],
        rows,
        title=(
            f"Scheduling policies — {len(policies)} policies × "
            f"{len(ENGINES)} engines over {len(cases)} fleet graphs "
            "(every cell certifies the fixture λ* bit-identically)"
        ),
    )
    info = format_table(
        ["graph", "ASAP makespan (unlimited)", "list @ 2 CPUs"],
        info_rows,
        title=(
            "Informational — resource-constrained list scheduling vs "
            "ASAP (balanced 2-CPU binding; N/S = binding cannot hold "
            "the certified period)"
        ),
    )
    text = table + "\n\n" + info
    write_artifact("ablation_scheduling_policies.txt", text)
    print("\n" + text)
    emit_bench(
        "scheduling",
        metrics + info_metrics,
        extra={
            "policies": policies,
            "engines": list(ENGINES),
            "graphs": [c["file"] for c in cases],
        },
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _list_vs_asap_rows(graphs, cases):
    """Per-graph ``(asap makespan, list@2cpu makespan | N/S)`` rows."""
    from repro.exceptions import SchedulingError
    from repro.scheduling import ResourceBinding, build_schedule

    rows = []
    metrics = []
    feasible = 0
    for case in cases:
        graph = graphs[case["file"]]
        asap = build_schedule(graph, "asap")
        asap_span = asap.stats["pattern_makespan"]
        binding = ResourceBinding.balanced(graph, 2)
        try:
            constrained = build_schedule(graph, "list", binding=binding)
        except SchedulingError:
            cell = "N/S"
        else:
            span = constrained.stats["pattern_makespan"]
            cell = f"makespan {span}  peaks {constrained.stats['peaks']}"
            feasible += 1
        rows.append([case["file"], str(asap_span), cell])
    metrics.append({
        "name": "list_2cpu_feasible_graphs",
        "value": feasible,
        "unit": "graphs",
    })
    return rows, metrics
