"""Ablation A4: direct (G, K) → CompiledGraph vs the legacy per-round rebuild.

K-Iter rebuilds the K-expanded constraint graph every round. The legacy
path re-materializes ``G̃`` as a ``CsdfGraph``, re-enumerates Theorem 2's
useful pairs from scratch and allocates one ``Fraction`` per arc; the
direct pipeline (:func:`repro.kperiodic.expansion.compile_expansion`)
compiles straight from ``(G, K)`` and caches per-buffer arc blocks under
``(buffer, K_src, K_dst)``, so a *round* — where most tasks' K entries
are unchanged — recomputes only the escalated tasks' blocks.

``test_direct_round_rebuild_beats_legacy`` is the acceptance gate of the
zero-materialization refactor: on the largest K-expanded golden-corpus
graphs the steady-state direct round rebuild (warm block cache — what
every K-Iter round after the first pays) must be ≥2x faster than the
legacy rebuild, with identical compiled arrays and identical certified
λ* ``Fraction``\\ s. The cold (empty-cache) build rides along in the
artifact: it carries the same useful-pair sweeps as the legacy path and
lands at parity or better — the win of this refactor is reuse, and the
second test pins that reuse inside a real K-Iter escalation sequence via
the cache-hit counters.

``test_cold_fleet_compile_share`` is the cold-fleet row: the 52 corpus
graphs solved as one default-engine fleet, with the compile layer — every
``compile_expansion`` call plus the fleet's per-round segmented block
pass — gated at ≤35% of the wall (``BENCH_expansion_fleet.json``,
``results/ablation_fleet_compile.txt``).
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.consistency import repetition_vector
from repro.analysis.constraint_graph import build_constraint_graph
from repro.io import load_graph
from repro.kperiodic.expansion import (
    ExpansionBlockCache,
    compile_expansion,
    expand_graph,
    expanded_repetition_vector,
    expansion_cache_for,
)
from repro.kperiodic.kiter import throughput_kiter
from repro.kperiodic.solver import min_period_for_k
from repro.mcrp import solve_mcrp
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.utils.rational import lcm_list

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
try:
    INDEX = json.loads((DATA / "golden_index.json").read_text())
except FileNotFoundError:  # pragma: no cover - sparse checkout
    pytest.skip(
        "golden corpus not present; regenerate with "
        "tools/make_golden_corpus.py",
        allow_module_level=True,
    )


def _corpus_by_expanded_size():
    """Golden graphs, largest full-q expansion first."""
    rows = []
    for entry in INDEX:
        graph = load_graph(DATA / entry["file"])
        q = repetition_vector(graph)
        size = sum(q[t.name] * t.phase_count for t in graph.tasks())
        rows.append((size, entry["file"], graph))
    rows.sort(key=lambda r: r[0], reverse=True)
    return rows


def _legacy_rebuild(graph, K, q_tilde):
    expanded = expand_graph(graph, K)
    bi, _ = build_constraint_graph(expanded, q_tilde)
    return bi


def test_direct_round_rebuild_beats_legacy(results_dir):
    cases = _corpus_by_expanded_size()[:3]
    rows = []
    for size, name, graph in cases:
        q = repetition_vector(graph)
        K = dict(q)  # the largest expansion the corpus entry ever needs
        q_tilde = expanded_repetition_vector(q, K)
        cache = ExpansionBlockCache()

        def timed(fn, rounds=3):
            best = float("inf")
            out = None
            for _ in range(rounds):
                start = time.perf_counter()
                out = fn()
                best = min(best, time.perf_counter() - start)
            return best, out

        cold_start = time.perf_counter()
        direct_bi, _space = compile_expansion(graph, K, q_tilde, cache=cache)
        cold = time.perf_counter() - cold_start
        warm, warm_out = timed(
            lambda: compile_expansion(graph, K, q_tilde, cache=cache)[0]
        )
        legacy_time, legacy_bi = timed(lambda: _legacy_rebuild(graph, K, q_tilde))

        ref = legacy_bi.compile()
        got = warm_out.compile()
        assert (got.scale, got.src, got.dst, got.cost, got.transit) == (
            ref.scale, ref.src, ref.dst, ref.cost, ref.transit
        ), f"compiled arrays diverge on {name}"

        rows.append((name, size, got.arc_count, legacy_time, cold, warm,
                     legacy_time / max(warm, 1e-12)))

    # identical certified λ* through the full fixed-K solve and the
    # legacy expand+build graph, on the largest instance
    _, name, graph = cases[0]
    q = repetition_vector(graph)
    K = dict(q)
    direct = min_period_for_k(graph, K, build_schedule=False, repetition=q)
    legacy = solve_mcrp(
        _legacy_rebuild(graph, K, expanded_repetition_vector(q, K))).ratio
    assert isinstance(direct.omega, Fraction)
    assert direct.omega_expanded == legacy
    assert direct.omega == legacy / lcm_list(K.values())

    text = "\n".join(
        f"{name:<24} nodes={size:<6} arcs={arcs:<7} "
        f"legacy-rebuild {legacy * 1e3:8.2f}ms   "
        f"direct-cold {cold * 1e3:8.2f}ms   "
        f"direct-warm {warm * 1e3:8.2f}ms   round-speedup {speedup:6.2f}x"
        for name, size, arcs, legacy, cold, warm, speedup in rows
    )
    text += (
        "\n(direct-warm = steady-state K-Iter round rebuild: block cache "
        "populated by the previous round; certified λ* identical across "
        "pipelines)"
    )
    write_artifact("ablation_direct_expansion.txt", text)
    largest = rows[0]
    assert largest[6] >= 2.0, (
        f"direct round rebuild ({largest[5]:.4f}s) must be ≥2x faster "
        f"than the legacy rebuild ({largest[3]:.4f}s) on {largest[0]}:\n"
        f"{text}"
    )


def test_kiter_escalation_reuses_unchanged_tasks_blocks(results_dir):
    """Cache-hit counters across a real (partial) K escalation sequence."""
    graph = load_graph(DATA / "golden_figure2.json")  # 3 rounds, partial
    cache = expansion_cache_for(graph)
    result = throughput_kiter(graph)
    assert len(result.rounds) >= 2, "needs a multi-round instance"

    work = graph.with_serialization_loops()
    expected_hits = 0
    ks = [r.K for r in result.rounds if r.omega is not None]
    for prev, cur in zip(ks, ks[1:]):
        assert prev != cur  # a real escalation happened
        expected_hits += sum(
            1 for b in work.buffers()
            if prev[b.source] == cur[b.source]
            and prev[b.target] == cur[b.target]
        )
    assert expected_hits > 0, "corpus entry no longer partially escalates"
    assert cache.hits >= expected_hits, cache.stats()

    stats = cache.stats()
    write_artifact(
        "ablation_direct_expansion_cache.txt",
        f"golden_figure2 K-Iter: rounds={len(result.rounds)} "
        f"hits={stats['hits']} misses={stats['misses']} "
        f"blocks={stats['blocks']} (unchanged-task blocks expected to "
        f"hit: {expected_hits})",
    )


def test_direct_round_rebuild_benchmark(benchmark):
    """The BENCH_expansion.json trajectory metric: one warm round rebuild."""
    from repro.obs.bench import emit_bench

    _, _, graph = _corpus_by_expanded_size()[0]
    q = repetition_vector(graph)
    K = dict(q)
    q_tilde = expanded_repetition_vector(q, K)
    cache = ExpansionBlockCache()
    compile_expansion(graph, K, q_tilde, cache=cache)  # populate blocks
    result = benchmark(
        lambda: compile_expansion(graph, K, q_tilde, cache=cache)
    )
    assert result is not None
    best = min(
        _timed(lambda: compile_expansion(graph, K, q_tilde, cache=cache))
        for _ in range(5)
    )
    emit_bench(
        "expansion",
        [{"name": "warm_round_rebuild_seconds", "value": best,
          "unit": "s"}],
        extra={"graph_tasks": graph.task_count,
               "timing": {"repeats": 5, "policy": "best"}},
        out_dir=str(Path(__file__).resolve().parent.parent),
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _corpus_payloads():
    """The 52 corpus graphs (golden + fleet) with their indexed λ*."""
    rows = []
    for directory, index_name in ((DATA, "golden_index.json"),
                                  (DATA / "fleet", "fleet_index.json")):
        for entry in json.loads((directory / index_name).read_text()):
            rows.append((
                json.loads((directory / entry["file"]).read_text()),
                Fraction(*entry["period"]),
            ))
    return rows


def test_cold_fleet_compile_share(monkeypatch, results_dir):
    """Compile layer of a cold fleet: ≤35% of the wall, λ* exact.

    The 52 corpus graphs are solved as one fleet through
    ``solve_fleet_payloads`` with the default engine, decoded from their dicts
    on every run so each run compiles cold. The compile layer is the
    time inside ``compile_expansion`` as the solver calls it plus the
    fleet's per-round segmented block pass
    (``derive_expansion_blocks``); the share is summed over 7 runs.
    """
    import repro.kperiodic.fleet as fleet
    import repro.kperiodic.kiter as kiter
    import repro.kperiodic.solver as solver

    spent = {"compile": 0.0}

    def timed_site(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent["compile"] += time.perf_counter() - start

        monkeypatch.setattr(module, name, wrapper)

    timed_site(solver, "compile_expansion")
    timed_site(kiter, "derive_expansion_blocks")

    corpus = _corpus_payloads()
    assert len(corpus) == 52
    expected = [period for _, period in corpus]
    fleet.solve_fleet_payloads(
        [{"graph": graph} for graph, _ in corpus])
    walls, compiles = [], []
    for _ in range(7):
        payloads = [{"graph": graph} for graph, _ in corpus]
        spent["compile"] = 0.0
        start = time.perf_counter()
        outcomes = fleet.solve_fleet_payloads(payloads)
        walls.append(time.perf_counter() - start)
        compiles.append(spent["compile"])
        assert [o["status"] for o in outcomes] == ["OK"] * len(corpus)
        assert [Fraction(*o["period"]) for o in outcomes] == expected

    share = sum(compiles) / sum(walls)
    best = min(range(len(walls)), key=walls.__getitem__)
    from repro.obs.bench import emit_bench

    emit_bench(
        "expansion_fleet",
        [{"name": "fleet_compile_share", "value": share, "unit": "share"},
         {"name": "fleet_wall_seconds", "value": walls[best], "unit": "s"},
         {"name": "fleet_compile_seconds", "value": compiles[best],
          "unit": "s"}],
        extra={"graphs": len(corpus), "engine": DEFAULT_ENGINE,
               "timing": {"repeats": len(walls),
                          "policy": "share of summed runs; best wall"}},
        out_dir=str(Path(__file__).resolve().parent.parent),
    )
    text = (
        f"cold fleet of {len(corpus)} corpus graphs ({DEFAULT_ENGINE}, "
        f"one chunk): "
        f"wall {walls[best] * 1e3:.1f}ms, compile + fleet block pass "
        f"{compiles[best] * 1e3:.1f}ms (best run); compile share "
        f"{share:.3f} over {len(walls)} runs (gate ≤0.35); every λ* "
        f"matches the corpus index"
    )
    write_artifact("ablation_fleet_compile.txt", text)
    assert share <= 0.35, text
