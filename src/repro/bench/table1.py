"""Table 1: average runtime of three optimal SDF methods per category.

Paper columns: category statistics (graph count, task/channel counts,
Σq min/avg/max) and average computation time for K-Iter, the
cycle-induced-subgraph expansion method [6], and symbolic execution [8].

The SDF3 suite is substituted by the seeded generators of
:mod:`repro.generators`; ``graphs_per_category`` scales the
suite size (the paper used 100 per random category — the default here is
laptop-friendly and adjustable).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.analysis import repetition_vector_sum
from repro.bench.reporting import format_table
from repro.bench.runner import MethodOutcome, run_method
from repro.generators.dsp import actual_dsp_graphs
from repro.generators.random_sdf import large_hsdf, large_transient, mimic_dsp

METHODS = ("kiter", "expansion", "symbolic")


def _category_graphs(name: str, count: int):
    if name == "ActualDSP":
        return actual_dsp_graphs()
    makers: Dict[str, Callable[[int], object]] = {
        "MimicDSP": mimic_dsp,
        "LgHSDF": large_hsdf,
        "LgTransient": large_transient,
    }
    return [makers[name](seed) for seed in range(count)]


TABLE1_CATEGORIES = ("ActualDSP", "MimicDSP", "LgHSDF", "LgTransient")


@dataclass
class Table1Row:
    category: str
    graph_count: int
    task_stats: str
    channel_stats: str
    sum_q_stats: str
    avg_times: Dict[str, str] = field(default_factory=dict)
    disagreements: int = 0


def _min_avg_max(values: Sequence[int]) -> str:
    return f"{min(values)}/{round(statistics.mean(values))}/{max(values)}"


def run_table1(
    *,
    graphs_per_category: int = 20,
    budget: float = 20.0,
    categories: Sequence[str] = TABLE1_CATEGORIES,
) -> List[Table1Row]:
    """Run the three methods over every category; average OK times.

    Methods that time out contribute the full budget to their average
    (a *lower bound* on the true cost, as in the paper's ``>`` rows).
    Exact methods that both finish must agree — disagreements are counted
    and should always be 0.
    """
    rows: List[Table1Row] = []
    for category in categories:
        graphs = _category_graphs(category, graphs_per_category)
        tasks = [g.task_count for g in graphs]
        channels = [g.buffer_count for g in graphs]
        sums = [repetition_vector_sum(g) for g in graphs]
        times: Dict[str, List[float]] = {m: [] for m in METHODS}
        disagreements = 0
        for g in graphs:
            outcomes: Dict[str, MethodOutcome] = {}
            for method in METHODS:
                outcome = run_method(method, g, budget)
                outcomes[method] = outcome
                times[method].append(
                    outcome.seconds if outcome.ok else budget
                )
            periods = {
                o.period for o in outcomes.values() if o.ok
            }
            if len(periods) > 1:
                disagreements += 1
        rows.append(
            Table1Row(
                category=category,
                graph_count=len(graphs),
                task_stats=_min_avg_max(tasks),
                channel_stats=_min_avg_max(channels),
                sum_q_stats=_min_avg_max(sums),
                avg_times={
                    m: f"{1000.0 * statistics.mean(times[m]):.2f} ms"
                    for m in METHODS
                },
                disagreements=disagreements,
            )
        )
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    headers = [
        "Category", "Graphs", "Tasks (min/avg/max)",
        "Channels (min/avg/max)", "Σq (min/avg/max)",
        "K-Iter", "expansion [6]", "symbolic [8]",
    ]
    body = [
        [
            r.category, str(r.graph_count), r.task_stats,
            r.channel_stats, r.sum_q_stats,
            r.avg_times["kiter"], r.avg_times["expansion"],
            r.avg_times["symbolic"],
        ]
        for r in rows
    ]
    return format_table(
        headers, body,
        title="Table 1 — average computation time, optimal SDF methods",
    )
