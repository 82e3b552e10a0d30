"""Ablation A1: the MCRP engine choice, enumerated from the registry.

Runs every registered maximum-cycle-ratio engine on the 1-periodic
constraint graphs of Table-1-style instances, plus Karp's cycle-mean
core on HSDF-expanded graphs. Engines come from
:mod:`repro.mcrp.registry`, so a newly registered engine is picked up
here with zero edits; ``karp`` (Θ(nm) per oracle probe) is kept off the
largest instances.

Expected outcome (recorded in ``results/ablation_*.txt``): the compiled-core
``hybrid`` engine wins on large graphs — float Howard lands on the
optimum and one exact probe certifies it — with plain ratio iteration
close behind; the ascending iteration over the pure-Python
Bellman-Ford oracle (``bellman._python_oracle``) trails by the
vectorization factor.

``test_hybrid_beats_default_ratio_iteration`` is the acceptance gate of
the compiled-core refactor: identical exact ``Fraction`` results, lower
wall-clock than the default from-scratch ratio-iteration solve on the
largest bundled graphs. The seed's pre-refactor implementation
(per-solve Fraction scaling, per-probe ``argsort``) no longer exists
in-tree, so the gate compares against today's *default* engine — which
already runs on the compiled core and is strictly faster than the seed
path was, making the gate conservative. The pure-Python Bellman-Ford
oracle rides along in the artifact as the closest in-tree proxy for an
un-vectorized solve.
"""

import time

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis import build_constraint_graph
from repro.baselines.expansion import expand_sdf_to_hsdf
from repro.generators.dsp import samplerate_converter, satellite_receiver
from repro.generators.random_sdf import large_hsdf, mimic_dsp
from repro.mcrp import (
    BiValuedGraph,
    all_engines,
    max_cycle_mean,
    max_cycle_ratio,
)
from repro.mcrp.bellman import _python_oracle
from repro.mcrp.karp import _karp_python_oracle

INSTANCES = {
    "samplerate": samplerate_converter,
    "satellite": satellite_receiver,
    "mimicdsp3": lambda: mimic_dsp(3),
    "lghsdf2": lambda: large_hsdf(2),
}
LARGE = {"lghsdf2"}

ENGINES = {info.name: info for info in all_engines()}
#: Engines whose oracle is Θ(nm) per probe, kept off ``LARGE``.
QUADRATIC = {"karp"}


def _bellman_python(bi):
    """Ascending iteration over the pure-Python Bellman-Ford oracle."""
    return max_cycle_ratio(bi, oracle=_python_oracle)


def _karp_python(bi):
    """Ascending iteration over the pure-Python Karp table."""
    return max_cycle_ratio(bi, oracle=_karp_python_oracle)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_engine_on_constraint_graph(benchmark, engine, instance):
    info = ENGINES[engine]
    if engine in QUADRATIC and instance in LARGE:
        pytest.skip(f"{engine} is quadratic; skipped on {instance}")
    graph = INSTANCES[instance]()
    bi, _ = build_constraint_graph(graph)
    result = benchmark(lambda: info.solve(bi))
    assert result.ratio is not None and result.ratio > 0


@pytest.mark.parametrize("instance", ["samplerate", "mimicdsp3"])
def test_engines_agree(benchmark, instance):
    graph = INSTANCES[instance]()
    bi, _ = build_constraint_graph(graph)
    ratios = {name: info.solve(bi).ratio for name, info in ENGINES.items()}
    assert len(set(ratios.values())) == 1, ratios
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _expanded_constraint_graph(graph, cap=None):
    """The K-expanded bi-valued constraint graph (K = q, capped)."""
    from repro.analysis import repetition_vector
    from repro.kperiodic.expansion import (
        expand_graph,
        expanded_repetition_vector,
    )

    q = repetition_vector(graph)
    K = {t: (q[t] if cap is None else min(q[t], cap)) for t in q}
    expanded = expand_graph(graph, K)
    q_tilde = expanded_repetition_vector(q, K)
    bi, _ = build_constraint_graph(expanded, q_tilde)
    return bi


def test_hybrid_beats_default_ratio_iteration(results_dir):
    """Compiled-core hybrid vs the default from-scratch ratio iteration.

    Measured on the largest solver inputs the bundle produces — the
    K-expanded constraint graphs K-Iter actually grinds on in its final
    rounds (the 1-periodic graphs are a handful of nodes and finish in
    microseconds either way). Hybrid must return identical ``Fraction``
    ratios and win wall-clock on the largest instance (best-of-3 each;
    compilation runs fresh per timing run via ``invalidate``). The
    baseline is today's default engine, not the (gone) seed
    implementation — a conservative bar, see the module docstring; the
    pure-Python Bellman-Ford row gives the un-vectorized reference.
    """
    default = ENGINES["ratio-iteration"].solve
    hybrid = ENGINES["hybrid"].solve
    bellman = _bellman_python
    cases = [
        ("mimicdsp3-K8", lambda: _expanded_constraint_graph(mimic_dsp(3), 8)),
        ("satellite-fullq",
         lambda: _expanded_constraint_graph(satellite_receiver())),
    ]
    rows = []
    for name, build in cases:
        bi = build()

        def timed(solver, rounds=3):
            best = float("inf")
            ratio = None
            for _ in range(rounds):
                bi.invalidate()
                start = time.perf_counter()
                result = solver(bi)
                best = min(best, time.perf_counter() - start)
                ratio = result.ratio
            return best, ratio

        base_time, base_ratio = timed(default)
        hybrid_time, hybrid_ratio = timed(hybrid)
        pure_time, pure_ratio = timed(bellman, rounds=1)
        assert hybrid_ratio == base_ratio == pure_ratio  # exactness
        rows.append((name, base_time, hybrid_time, pure_time,
                     base_time / max(hybrid_time, 1e-12)))
    text = "\n".join(
        f"{name:<16} ratio-iteration {base * 1e3:8.2f}ms   "
        f"hybrid {hyb * 1e3:8.2f}ms   "
        f"bellman(pure-py) {pure * 1e3:8.2f}ms   speedup {speedup:5.2f}x"
        for name, base, hyb, pure, speedup in rows
    )
    write_artifact("ablation_hybrid_vs_default.txt", text)
    largest = rows[-1]
    assert largest[2] < largest[1], (
        f"hybrid ({largest[2]:.4f}s) should beat the default "
        f"ratio-iteration path ({largest[1]:.4f}s) on {largest[0]}:\n{text}"
    )


def test_vectorized_karp_beats_python_karp(results_dir):
    """The vectorized Karp table vs the pure-Python reference row.

    The ``karp`` engine and the ascending iteration over
    ``_karp_python_oracle`` share the iteration, the oracle contract
    and the exact selection — only the table implementation differs —
    so identical ``Fraction`` λ* is a hard assertion and the wall-clock
    ratio isolates the vectorization. Measured on the largest expanded
    constraint graphs the bundle produces (the K-expanded graphs K-Iter
    grinds on in its final rounds); the gate requires ≥2x on the
    largest instance — in practice the gap is an order of magnitude,
    which is why the generic parametrization above keeps the quadratic
    `karp` off the LARGE instances entirely.
    """
    karp_vec = ENGINES["karp"].solve
    karp_py = _karp_python
    cases = [
        ("mimicdsp3-K4", lambda: _expanded_constraint_graph(mimic_dsp(3), 4)),
        ("satellite-fullq",
         lambda: _expanded_constraint_graph(satellite_receiver())),
    ]
    rows = []
    for name, build in cases:
        bi = build()

        def timed(solver, rounds=2):
            best = float("inf")
            ratio = None
            for _ in range(rounds):
                bi.invalidate()
                start = time.perf_counter()
                result = solver(bi)
                best = min(best, time.perf_counter() - start)
                ratio = result.ratio
            return best, ratio

        vec_time, vec_ratio = timed(karp_vec)
        py_time, py_ratio = timed(karp_py, rounds=1)
        assert vec_ratio == py_ratio  # exactness: identical Fractions
        rows.append((name, bi.node_count, bi.arc_count, vec_time, py_time,
                     py_time / max(vec_time, 1e-12)))
    text = "\n".join(
        f"{name:<16} n={n:<5} m={m:<5} karp(vectorized) {vec * 1e3:9.2f}ms"
        f"   karp-python {py * 1e3:9.2f}ms   speedup {speedup:6.2f}x"
        for name, n, m, vec, py, speedup in rows
    )
    write_artifact("ablation_karp_vectorized.txt", text)
    largest = rows[-1]
    assert largest[5] >= 2.0, (
        f"vectorized karp ({largest[3]:.3f}s) must be ≥2x faster than "
        f"karp-python ({largest[4]:.3f}s) on {largest[0]}:\n{text}"
    )


def test_compiled_cache_amortization(results_dir):
    """One compile, many solves: the cache must make re-solves cheap."""
    graph = INSTANCES["mimicdsp3"]()
    bi, _ = build_constraint_graph(graph)  # emits the compiled form

    start = time.perf_counter()
    bi.invalidate()
    bi.compile()
    cold = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(10):
        bi.compile()
    warm = (time.perf_counter() - start) / 10
    write_artifact(
        "ablation_compile_cache.txt",
        f"cold compile {cold * 1e3:.3f}ms, cached access {warm * 1e6:.1f}us",
    )
    assert warm < cold


def test_karp_on_hsdf_expansion(benchmark):
    graph = mimic_dsp(7)  # moderate Σq keeps Karp's Θ(nm) table small
    hsdf, _ = expand_sdf_to_hsdf(graph, reduced=True)
    # Karp needs unit transits: measure it on a unit-H version of the
    # same topology.
    unit = BiValuedGraph(hsdf.node_count, labels=hsdf.labels)
    for src, dst, cost, transit in hsdf.arcs():
        unit.add_arc(src, dst, cost, 1)
    result = benchmark(lambda: max_cycle_mean(unit))
    reference = max_cycle_ratio(unit)
    assert result.ratio == reference.ratio
