"""Table 1 reproduction: optimal SDF methods across four categories.

Two layers:

* per-category pytest-benchmark measurements of each method on a
  representative instance (stable, comparable numbers);
* ``test_table1_full`` regenerates the whole table (all graphs, all
  methods, with budgets) and writes ``results/table1.txt``.

Paper reference values (Intel i5-4570, C++):

    ActualDSP    K-Iter 29.82ms   [6] 2.42ms    [8] 38.32ms
    MimicDSP     K-Iter  0.24ms   [6] 2.99ms    [8] 5.30ms
    LgHSDF       K-Iter  0.69ms   [6] 0.40ms    [8] 1110.31ms
    LgTransient  K-Iter  0.03ms   [6] 70.13ms   [8] 320.00ms

The *shape* to reproduce: K-Iter beats symbolic execution by 1–3 orders
of magnitude on MimicDSP/LgHSDF/LgTransient and is slower only on
ActualDSP (the H263 decoder instance). Our stand-in for [6] is the
classical expansion with arc reduction — unlike de Groote's
cycle-induced-subgraph method it materializes all Σq copies, so it is
slow on large-Σq categories (a deviation documented in
:mod:`repro.baselines.expansion`).
"""

import pytest

from benchmarks.conftest import BUDGET, COUNT, write_artifact
from repro.bench import format_table1, run_table1
from repro.bench.runner import run_method
from repro.generators.dsp import actual_dsp_graphs, samplerate_converter
from repro.generators.random_sdf import large_hsdf, large_transient, mimic_dsp

REPRESENTATIVES = {
    "ActualDSP": samplerate_converter,
    "MimicDSP": lambda: mimic_dsp(3),
    "LgHSDF": lambda: large_hsdf(1),
    "LgTransient": lambda: large_transient(0),
}


@pytest.mark.parametrize("category", sorted(REPRESENTATIVES))
def test_table1_kiter(benchmark, category):
    graph = REPRESENTATIVES[category]()
    outcome = benchmark(lambda: run_method("kiter", graph, BUDGET))
    assert outcome.ok


@pytest.mark.parametrize("category", sorted(REPRESENTATIVES))
def test_table1_symbolic(benchmark, category):
    graph = REPRESENTATIVES[category]()
    outcome = benchmark(lambda: run_method("symbolic", graph, BUDGET))
    assert outcome.status in ("OK", "TIMEOUT")


@pytest.mark.parametrize("category", ["MimicDSP", "LgTransient"])
def test_table1_expansion(benchmark, category):
    graph = REPRESENTATIVES[category]()
    outcome = benchmark(lambda: run_method("expansion", graph, BUDGET))
    assert outcome.status in ("OK", "TIMEOUT")


def test_table1_full(benchmark):
    """Regenerate Table 1 and check the headline shape claims."""
    rows = run_table1(graphs_per_category=COUNT, budget=BUDGET)
    table = format_table1(rows)
    path = write_artifact("table1.txt", table)
    print("\n" + table)
    print(f"\n[written to {path}]")

    by_name = {r.category: r for r in rows}
    for row in rows:
        assert row.disagreements == 0, (
            f"exact methods disagreed in {row.category}"
        )

    def avg_ms(row, method) -> float:
        return float(row.avg_times[method].split()[0])

    # Headline shape: K-Iter beats symbolic on the three scaling
    # categories (the paper's 1–3 orders of magnitude).
    for category in ("MimicDSP", "LgHSDF"):
        assert avg_ms(by_name[category], "kiter") < avg_ms(
            by_name[category], "symbolic"
        ), f"K-Iter should beat symbolic on {category}"
    # trivial benchmark() use so pytest-benchmark accepts the test
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_actualdsp_h263_is_kiters_worst_case(benchmark):
    """The paper singles out H263 as K-Iter's slowest SDF3 instance."""
    graphs = {g.name: g for g in actual_dsp_graphs()}
    times = {}
    for name, g in graphs.items():
        outcome = run_method("kiter", g, BUDGET)
        assert outcome.ok
        times[name] = outcome.seconds
    assert max(times, key=times.get) == "h263decoder"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
