"""Parity and cache suite for the direct (G, K) → CompiledGraph pipeline.

The direct pipeline (:func:`repro.kperiodic.expansion.compile_expansion`)
must be indistinguishable from the legacy ``expand_graph`` +
``build_constraint_graph`` reference: identical compiled
``scale``/``cost``/``transit``/``src``/``dst`` arrays (not just equal
λ*), identical labels and node index, identical certified periods and
schedules. The legacy path is also the solver's automatic fallback when
the direct compile is unavailable (no numpy, an int64 guard); the
``legacy_fallback`` helper forces it. The block cache must hit
exactly when ``(buffer, K_src, K_dst)`` is unchanged and respect its
LRU cell budget.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis.consistency import repetition_vector
from repro.analysis.constraint_graph import (
    build_constraint_graph,
    merge_parallel_candidates,
)
from repro.analysis.precedence import (
    expanded_useful_pair_arrays,
    useful_pair_arrays,
)
from repro.kperiodic.expansion import (
    ExpansionBlockCache,
    _duplicate,
    compile_expansion,
    expand_graph,
    expanded_repetition_vector,
    expansion_cache_for,
)
import repro.kperiodic.solver as solver_mod
from repro.kperiodic.fleet import solve_fleet_payloads
from repro.kperiodic.kiter import solve_kiter_payload, throughput_kiter
from repro.kperiodic.solver import min_period_for_k
from repro.mcrp import solve_mcrp
from repro.mcrp.graph import FrozenBiValuedGraph, ScaledFractionView
from repro.model import Buffer, CsdfGraph, Task
from repro.utils.rational import lcm_list

from tests.conftest import golden_corpus_cases, make_random_live_graph

np = pytest.importorskip("numpy")

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def assert_compiled_parity(graph, K):
    """Direct and legacy pipelines must produce identical compiled arrays."""
    q = repetition_vector(graph)
    q_tilde = expanded_repetition_vector(q, K)
    expanded = expand_graph(graph, K)
    legacy, legacy_index = build_constraint_graph(expanded, q_tilde)
    built = compile_expansion(graph, K, q_tilde)
    assert built is not None
    direct, space = built
    ref = legacy.compile()
    got = direct.compile()
    assert got.scale == ref.scale
    assert got.src == ref.src
    assert got.dst == ref.dst
    assert got.cost == ref.cost
    assert got.transit == ref.transit
    assert got.out_arcs == ref.out_arcs
    assert list(direct.labels) == list(legacy.labels)
    assert space.node_index() == legacy_index
    return direct, legacy


def reference_period(graph, K):
    """``λ*/lcm(K)`` through ``expand_graph`` + ``build_constraint_graph``
    + ``solve_mcrp``: the legacy path, called directly."""
    q = repetition_vector(graph)
    bi, _ = build_constraint_graph(
        expand_graph(graph, K), expanded_repetition_vector(q, K))
    result = solve_mcrp(bi)
    if result.ratio is None:
        return Fraction(0)
    return result.ratio / lcm_list(K.values())


@contextmanager
def legacy_fallback(monkeypatch):
    """Make every fixed-K solve inside take the legacy fallback path."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "compile_expansion",
                      lambda *args, **kwargs: None)
        yield


def random_k_vectors(graph, rng):
    q = repetition_vector(graph)
    yield {t: 1 for t in q}
    yield dict(q)
    yield {t: rng.choice([1, 2, min(3, q[t]), q[t]]) for t in q}


# ----------------------------------------------------------------------
# The affine-tile sweep
# ----------------------------------------------------------------------
def test_expanded_pair_arrays_match_materialized_expansion():
    rng = random.Random(11)
    for _ in range(100):
        production = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        consumption = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        if not sum(production):
            production[0] = 1
        if not sum(consumption):
            consumption[0] = 1
        base = Buffer(
            "b", "s", "t", tuple(production), tuple(consumption),
            rng.randint(0, 8),
        )
        k_src, k_dst = rng.randint(1, 5), rng.randint(1, 5)
        materialized = Buffer(
            "b", "s", "t",
            _duplicate(base.production, k_src),
            _duplicate(base.consumption, k_dst),
            base.initial_tokens,
        )
        ref = useful_pair_arrays(materialized)
        got = expanded_useful_pair_arrays(base, k_src, k_dst)
        for r, g in zip(ref, got):
            assert np.array_equal(np.asarray(r), np.asarray(g))


def test_all_ones_self_loop_closed_form_matches_generic_sweep():
    """The serialization-loop shortcut vs the generic α ≤ β sweep."""
    for phi in range(1, 5):
        for k in range(1, 5):
            for m0 in range(0, 2 * phi * k + 2):
                ones = (1,) * phi
                base = Buffer("loop", "t", "t", ones, ones, m0)
                materialized = Buffer(
                    "loop", "t", "t",
                    _duplicate(ones, k), _duplicate(ones, k), m0,
                )
                ref = useful_pair_arrays(materialized)
                got = expanded_useful_pair_arrays(base, k, k)
                for r, g in zip(ref, got):
                    assert np.array_equal(np.asarray(r), np.asarray(g)), (
                        phi, k, m0,
                    )


# ----------------------------------------------------------------------
# Compiled-array parity
# ----------------------------------------------------------------------
def test_parity_on_random_graphs():
    rng = random.Random(5)
    for seed in range(12):
        graph = make_random_live_graph(seed)
        for K in random_k_vectors(graph, rng):
            assert_compiled_parity(graph, K)


@pytest.mark.parametrize(
    "filename,period",
    golden_corpus_cases()[:6],
    ids=[c[0] for c in golden_corpus_cases()[:6]],
)
def test_parity_on_golden_corpus(filename, period):
    from repro.io import load_graph

    graph = load_graph(DATA / filename)
    q = repetition_vector(graph)
    for K in ({t: 1 for t in q}, {t: min(q[t], 3) for t in q}):
        assert_compiled_parity(graph, K)


def test_parity_along_kiter_escalation_sequence():
    """Every K vector an actual K-Iter run visits must be parity-clean."""
    from repro.io import load_graph

    graph = load_graph(DATA / "golden_figure2.json")
    result = throughput_kiter(graph)
    assert len(result.rounds) >= 2  # the escalation sequence is real
    for rnd in result.rounds:
        assert_compiled_parity(graph, rnd.K)


def test_min_period_direct_matches_legacy_including_schedule(monkeypatch):
    for seed in (0, 4, 9):
        graph = make_random_live_graph(seed)
        q = repetition_vector(graph)
        K = {t: min(q[t], 2) for t in q}
        direct = min_period_for_k(graph, K)
        with legacy_fallback(monkeypatch):
            legacy = min_period_for_k(graph, K)
        assert direct.omega == legacy.omega == reference_period(graph, K)
        assert direct.omega_expanded == legacy.omega_expanded
        assert direct.graph_nodes == legacy.graph_nodes
        assert direct.graph_arcs == legacy.graph_arcs
        if legacy.schedule is not None:
            assert direct.schedule.starts == legacy.schedule.starts
            assert direct.schedule.task_periods == legacy.schedule.task_periods
            direct.schedule.verify(graph)


def test_kiter_periods_identical_across_pipelines(monkeypatch):
    for seed in (1, 3, 7):
        graph = make_random_live_graph(seed)
        direct = throughput_kiter(graph)
        with legacy_fallback(monkeypatch):
            legacy = throughput_kiter(make_random_live_graph(seed))
        assert direct.period == legacy.period
        assert direct.K == legacy.K
        assert direct.period == reference_period(graph, direct.K)


def test_direct_pipeline_falls_back_without_numpy(monkeypatch):
    import repro.kperiodic.expansion as expansion

    graph = make_random_live_graph(2)
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    monkeypatch.setattr(expansion, "_np", None)
    assert compile_expansion(
        graph, K, expanded_repetition_vector(q, K)
    ) is None
    fallback = min_period_for_k(graph, K)
    assert fallback.omega == reference_period(graph, K)


def _overflow_graph():
    """Rates of 2**62: the direct compile's int64 guard trips at K = 1."""
    big = 1 << 62
    graph = CsdfGraph("overflow")
    graph.add_task(Task("A", (3,)))
    graph.add_task(Task("B", (4,)))
    graph.add_buffer(Buffer("ab", "A", "B", (big,), (big,), 0))
    graph.add_buffer(Buffer("ba", "B", "A", (big,), (big,), big))
    return graph


def test_int64_overflow_graph_certifies_exactly_through_the_fallback(
    monkeypatch,
):
    from repro.io import load_graph

    overflow = _overflow_graph()
    q = repetition_vector(overflow)
    K = {t: 1 for t in q}
    assert compile_expansion(
        overflow, K, expanded_repetition_vector(q, K)) is None
    solved = throughput_kiter(overflow)
    assert solved.K == K
    assert solved.period == reference_period(overflow, K) == 7

    # A two-payload fleet: the overflow graph takes the fallback, its
    # chunk-mate the direct compile; each matches the legacy reference.
    figure2 = load_graph(DATA / "golden_figure2.json")
    graphs = [overflow, figure2]
    outcomes = solve_fleet_payloads(
        [{"graph": g.to_dict(), "engine": "hybrid"} for g in graphs])
    with legacy_fallback(monkeypatch):
        legacy = [throughput_kiter(CsdfGraph.from_dict(g.to_dict()))
                  for g in graphs]
    for graph, outcome, reference in zip(graphs, outcomes, legacy):
        assert outcome["status"] == "OK"
        period = Fraction(*outcome["period"])
        assert outcome["K"] == reference.K
        assert period == reference.period
        assert period == reference_period(graph, outcome["K"])
    assert len(legacy[1].rounds) >= 2  # the chunk-mate escalates K


# ----------------------------------------------------------------------
# The block cache
# ----------------------------------------------------------------------
def test_cache_hits_when_k_unchanged_and_misses_on_escalation():
    graph = make_random_live_graph(3)
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    q_tilde = expanded_repetition_vector(q, K)
    cache = ExpansionBlockCache()
    compile_expansion(graph, K, q_tilde, cache=cache)
    buffers = cache.misses  # one block per buffer incl. serialization loops
    assert buffers > 0 and cache.hits == 0

    # Same K: every block hits.
    compile_expansion(graph, K, q_tilde, cache=cache)
    assert cache.hits == buffers and cache.misses == buffers

    # Escalate one task: exactly its incident buffers (with the
    # serialization loop) recompute, the rest still hit.
    work = graph.with_serialization_loops()
    task = next(t for t in q if q[t] > 1)
    K2 = dict(K, **{task: q[task]})
    touched = sum(
        1 for b in work.buffers() if task in (b.source, b.target)
    )
    compile_expansion(
        graph, K2, expanded_repetition_vector(q, K2), cache=cache
    )
    assert cache.misses == buffers + touched
    assert cache.hits == 2 * buffers - touched


def test_cache_respects_cell_budget_with_lru_eviction():
    graph = make_random_live_graph(1)
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    q_tilde = expanded_repetition_vector(q, K)
    cache = ExpansionBlockCache(max_cells=8)  # far below one round's blocks
    compile_expansion(graph, K, q_tilde, cache=cache)
    assert cache.evictions > 0
    assert cache.stats()["cells"] <= 8 or len(cache) == 1


def test_kiter_reuses_blocks_across_rounds():
    from repro.io import load_graph

    graph = load_graph(DATA / "golden_figure2.json")
    cache = expansion_cache_for(graph)
    base_hits = cache.hits
    result = throughput_kiter(graph)
    assert len(result.rounds) >= 2
    assert cache.hits > base_hits, cache.stats()
    # a second identical run hits on every block of every round
    misses_before = cache.misses
    throughput_kiter(graph)
    assert cache.misses == misses_before


def test_payload_worker_path_shares_blocks_per_graph_object():
    """The service-pool worker contract: one graph object, one cache."""
    graph = make_random_live_graph(6)
    payload = {"graph": graph.to_dict(), "engine": "ratio-iteration"}
    cache = expansion_cache_for(graph)
    first = solve_kiter_payload(payload, graph=graph)
    assert first["status"] == "OK"
    hits_before, misses_before = cache.hits, cache.misses
    assert misses_before > 0
    second = solve_kiter_payload(payload, graph=graph)
    assert second["status"] == "OK"
    assert second["period"] == first["period"]
    assert cache.misses == misses_before  # nothing recomputed
    # The repeat solve replays the same deterministic K sequence, so it
    # reuses whole assembled constraint graphs — it never even reaches
    # the per-buffer block layer (hits stay flat, compiled memo hits).
    assert cache.hits == hits_before
    assert cache.compiled_hits > 0


# ----------------------------------------------------------------------
# The vectorized parallel-arc merge
# ----------------------------------------------------------------------
def test_merge_exact_across_mixed_denominators():
    # Two candidates on the same node pair: β/den = 3/6 vs 2/4 — the
    # Fractions tie exactly (H = −1/2), so the first stays; a third
    # with H = −2/3 < −1/2 must win.
    srcs = np.array([0, 0, 0, 1], dtype=np.int64)
    dsts = np.array([1, 1, 1, 0], dtype=np.int64)
    costs = np.array([7, 7, 7, 5], dtype=np.int64)
    betas = np.array([3, 2, 4, 1], dtype=np.int64)
    dens = np.array([6, 4, 6, 3], dtype=np.int64)
    out = merge_parallel_candidates(srcs, dsts, costs, betas, dens, 2)
    assert out is not None
    o_src, o_dst, o_cost, o_beta, o_den = out
    assert o_src.tolist() == [0, 1] and o_dst.tolist() == [1, 0]
    assert o_cost.tolist() == [7, 5]
    got = [Fraction(-int(b), int(d)) for b, d in zip(o_beta, o_den)]
    assert got == [Fraction(-2, 3), Fraction(-1, 3)]


def test_merge_keeps_first_occurrence_order():
    srcs = np.array([2, 0, 2, 1], dtype=np.int64)
    dsts = np.array([0, 1, 0, 2], dtype=np.int64)
    costs = np.array([1, 2, 1, 3], dtype=np.int64)
    betas = np.array([5, 1, 9, 2], dtype=np.int64)
    dens = np.array([2, 2, 2, 2], dtype=np.int64)
    out = merge_parallel_candidates(srcs, dsts, costs, betas, dens, 3)
    o_src, o_dst, _, o_beta, _ = out
    assert list(zip(o_src.tolist(), o_dst.tolist())) == [
        (2, 0), (0, 1), (1, 2)
    ]
    assert o_beta.tolist()[0] == 9  # min H = max β at equal denominators


def test_merge_overflow_returns_none():
    big = (1 << 61) + 1
    srcs = np.array([0, 0], dtype=np.int64)
    dsts = np.array([1, 1], dtype=np.int64)
    costs = np.array([1, 1], dtype=np.int64)
    betas = np.array([big, 3], dtype=np.int64)
    dens = np.array([7, 5], dtype=np.int64)  # lcm 35, factors 5 and 7
    assert merge_parallel_candidates(srcs, dsts, costs, betas, dens, 2) is None


def test_build_constraint_graph_merge_matches_streaming_reference():
    """The legacy builder must be byte-identical through the new merge."""
    from repro.analysis import constraint_graph as cg

    g = CsdfGraph("parallel")
    g.add_task(Task("A", (1, 2)))
    g.add_task(Task("B", (3,)))
    g.add_buffer(Buffer("ab1", "A", "B", (2, 1), (3,), 2))
    g.add_buffer(Buffer("ab2", "A", "B", (1, 1), (2,), 5))
    g.add_buffer(Buffer("aa", "A", "A", (1, 0), (0, 1), 1))
    g.add_buffer(Buffer("ba", "B", "A", (3,), (2, 1), 4))
    for merge in (True, False):
        vectorized, _ = build_constraint_graph(g, merge_parallel=merge)
        work = g.with_serialization_loops()
        rep = repetition_vector(work)
        from repro.mcrp.graph import BiValuedGraph

        labels = []
        base_of = {}
        pair_count = {}
        for t in work.tasks():
            base_of[t.name] = len(labels)
            labels.extend((t.name, p) for p in range(1, t.phase_count + 1))
        for b in work.buffers():
            key = (b.source, b.target)
            pair_count[key] = pair_count.get(key, 0) + 1
        reference = BiValuedGraph(len(labels), labels=labels)
        cg._build_arcs_streaming(
            work, rep, reference, base_of, pair_count, merge
        )
        assert vectorized.arc_src == reference.arc_src
        assert vectorized.arc_dst == reference.arc_dst
        assert list(vectorized.arc_cost) == list(reference.arc_cost)
        assert list(vectorized.arc_transit) == list(reference.arc_transit)
        ref_c = reference.compile()
        got_c = vectorized.compile()
        assert got_c.scale == ref_c.scale
        assert got_c.cost == ref_c.cost
        assert got_c.transit == ref_c.transit


# ----------------------------------------------------------------------
# Frozen graph + fraction views
# ----------------------------------------------------------------------
def test_frozen_graph_is_immutable_and_lazy():
    graph = make_random_live_graph(0)
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    built = compile_expansion(graph, K, expanded_repetition_vector(q, K))
    frozen, _space = built
    assert isinstance(frozen, FrozenBiValuedGraph)
    assert isinstance(frozen.arc_cost, ScaledFractionView)
    compiled = frozen.compile()
    assert frozen.arc_cost[0] == Fraction(compiled.cost[0], compiled.scale)
    assert frozen.arc_transit[-1] == Fraction(
        compiled.transit[-1], compiled.scale
    )
    with pytest.raises(TypeError):
        frozen.add_arc(0, 0, 1, 1)
    with pytest.raises(TypeError):
        frozen.extend_arcs([0], [0], [1], [1])
    with pytest.raises(TypeError):
        frozen.add_node()
    frozen.invalidate()  # no-op, must not drop the compiled form
    assert frozen.compile() is compiled


def test_scaled_fraction_view_sequence_protocol():
    view = ScaledFractionView([6, -3, 0], 6)
    assert len(view) == 3
    assert list(view) == [Fraction(1), Fraction(-1, 2), Fraction(0)]
    assert view[-1] == Fraction(0)
    assert view[0:2] == [Fraction(1), Fraction(-1, 2)]


def test_subgraph_slice_matches_python_path(monkeypatch):
    """SCC subgraphs sliced from compiled arrays equal the Fraction copy."""
    from repro.mcrp import decompose

    graph = make_random_live_graph(8)
    q = repetition_vector(graph)
    K = dict(q)
    built = compile_expansion(graph, K, expanded_repetition_vector(q, K))
    bi, _space = built
    fast = decompose.max_cycle_ratio_sccs(bi)
    monkeypatch.setattr(decompose, "_MIN_SLICE_ARCS", 1 << 62)
    slow = decompose.max_cycle_ratio_sccs(bi)
    assert fast.ratio == slow.ratio
    assert fast.cycle_arcs == slow.cycle_arcs
    assert fast.cycle_nodes == slow.cycle_nodes
