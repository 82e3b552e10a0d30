"""The vectorized Karp fast path and the numpy potentials pass.

Two families of guarantees for the compiled fast paths added on top of
the oracle:

* **Karp table** — the numpy table (``_best_mean_cycle_numpy``) and the
  pure-Python reference (``_best_mean_cycle_python``) return identical
  exact ``Fraction`` means and verified critical cycles on random
  graphs, the golden corpus, and the edge cases (acyclic, single-node
  SCC, dead walks, int64 overflow fallback); the ``karp`` engine and
  the ascending iteration over the pure-Python Karp oracle certify
  identical λ* everywhere.
* **Longest-path potentials** — the Jacobi numpy pass and the
  queue-based reference produce identical exact potentials, agree on
  the seeded partial-convergence handoff, and both reject uncertified
  ratios (a positive cycle at the given λ) with ``SolverError``, which
  also covers deadlock-shaped cycles (positive at *every* λ).
"""

from fractions import Fraction

import pytest
from oracles import max_cycle_ratio_karp_python

import repro.kperiodic.solver as solver_mod
import repro.mcrp.karp as karp_mod
from repro.analysis import build_constraint_graph
from repro.exceptions import SolverError
from repro.io import load_graph
from repro.kperiodic import min_period_for_k, throughput_kiter
from repro.kperiodic.solver import longest_path_potentials
from repro.mcrp import (
    BiValuedGraph,
    EngineInfo,
    get_engine,
    max_cycle_mean,
    solve_mcrp,
)
from tests.conftest import golden_corpus_cases, make_random_live_graph

GOLDEN = golden_corpus_cases()
DATA_DIR = __import__("pathlib").Path(__file__).parent / "data"

numpy = pytest.importorskip("numpy")


@pytest.fixture
def force_vectorized(monkeypatch):
    """Engage the numpy fast paths regardless of instance size."""
    monkeypatch.setattr(karp_mod, "_MIN_VECTOR_NODES", 1)
    monkeypatch.setattr(solver_mod, "_MIN_VECTOR_NODES", 1)


# ----------------------------------------------------------------------
# Karp table: exact parity, vectorized vs reference
# ----------------------------------------------------------------------
def _assert_table_parity(graph: BiValuedGraph):
    compiled = graph.compile()
    weights = list(compiled.cost)
    ref_mean, ref_cycle = karp_mod._best_mean_cycle_python(compiled, weights)
    assert compiled.ensure_numpy()
    vec_mean, vec_cycle = karp_mod._best_mean_cycle_numpy(compiled, weights)
    assert ref_mean == vec_mean
    if ref_mean is None:
        assert ref_cycle is None and vec_cycle is None
        return
    for cycle in (ref_cycle, vec_cycle):
        graph.check_cycle(cycle)
        total = sum(weights[a] for a in cycle)
        assert Fraction(total, len(cycle)) == ref_mean


@pytest.mark.parametrize("seed", range(12))
def test_table_parity_on_random_digraphs(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 24)
    g = BiValuedGraph(n)
    for _ in range(rng.randint(0, 4 * n)):
        g.add_arc(rng.randrange(n), rng.randrange(n),
                  rng.randint(-9, 30), 1)
    _assert_table_parity(g)


def test_table_parity_acyclic():
    g = BiValuedGraph(70)
    for i in range(69):
        g.add_arc(i, i + 1, 5, 1)  # a chain: no cycle at all
    _assert_table_parity(g)
    assert max_cycle_mean(g).ratio is None


def test_table_parity_single_node_scc(force_vectorized):
    g = BiValuedGraph(1)
    g.add_arc(0, 0, 7, 1)
    _assert_table_parity(g)
    assert max_cycle_mean(g).ratio == 7


def test_table_parity_dead_walks(force_vectorized):
    # walks die out before length n: row k>2 is all -inf in the table
    g = BiValuedGraph(5)
    g.add_arc(0, 1, 3, 1)
    g.add_arc(1, 2, 2, 1)  # node 2 has no out-arcs
    g.add_arc(3, 4, 1, 1)
    _assert_table_parity(g)
    assert max_cycle_mean(g).ratio is None


def test_vector_gate_declines_int64_overflow():
    g = BiValuedGraph(80)
    for i in range(80):
        g.add_arc(i, (i + 1) % 80, 1 << 70, 1)
    compiled = g.compile()
    assert not karp_mod._vector_gate(compiled, compiled.max_abs_cost)
    # the engine still answers exactly through the reference table
    assert max_cycle_mean(g).ratio == (1 << 70)
    assert get_engine("karp").solve(g).ratio == (1 << 70)


def test_max_cycle_mean_fractional_costs_vectorized(force_vectorized):
    # the scaled-integer table must map the mean back through the scale
    g = BiValuedGraph(2)
    g.add_arc(0, 1, Fraction(1, 3), 1)
    g.add_arc(1, 0, Fraction(1, 2), 1)
    assert max_cycle_mean(g).ratio == Fraction(5, 12)


@pytest.mark.parametrize("seed", range(8))
def test_karp_engines_agree_on_constraint_graphs(seed, force_vectorized):
    g = make_random_live_graph(seed, tasks=4 + seed % 3)
    bi, _ = build_constraint_graph(g)
    vec = solve_mcrp(bi, "karp")
    ref = solve_mcrp(
        bi, EngineInfo("karp-python", max_cycle_ratio_karp_python))
    assert vec.ratio == ref.ratio
    if vec.ratio is not None:
        bi.check_cycle(vec.cycle_arcs)
        total_l, total_h = bi.cycle_values(vec.cycle_arcs)
        assert total_l / total_h == vec.ratio


# ----------------------------------------------------------------------
# Golden corpus: cross-engine exact-Fraction parity
# ----------------------------------------------------------------------
@pytest.mark.skipif(not GOLDEN, reason="golden corpus not present")
@pytest.mark.parametrize("filename,period", GOLDEN,
                         ids=[c[0] for c in GOLDEN])
def test_karp_golden_corpus_parity(filename, period, force_vectorized,
                                   reference_engines):
    graph = load_graph(DATA_DIR / filename)
    assert throughput_kiter(graph, engine="karp").period == period
    assert throughput_kiter(graph, engine="karp-python").period == period


# ----------------------------------------------------------------------
# numpy longest-path potentials
# ----------------------------------------------------------------------
def _expanded_bi_graph(graph):
    from repro.analysis import repetition_vector
    from repro.kperiodic.expansion import (
        expand_graph,
        expanded_repetition_vector,
    )

    q = repetition_vector(graph)
    expanded = expand_graph(graph, q)
    q_tilde = expanded_repetition_vector(q, q)
    bi, _ = build_constraint_graph(expanded, q_tilde)
    return bi


@pytest.mark.parametrize("seed", [2, 9])
def test_potentials_numpy_python_parity(seed, monkeypatch):
    bi = _expanded_bi_graph(make_random_live_graph(seed, tasks=5))
    lam = solve_mcrp(bi, "ratio-iteration").ratio
    monkeypatch.setattr(solver_mod, "_MIN_VECTOR_NODES", 1)
    vec = longest_path_potentials(bi, lam)
    monkeypatch.setattr(solver_mod, "_MIN_VECTOR_NODES", 10 ** 9)
    ref = longest_path_potentials(bi, lam)
    assert vec == ref
    # fixpoint: every arc is satisfied (dist[dst] ≥ dist[src] + w)
    for i in range(bi.arc_count):
        w = bi.arc_cost[i] - lam * bi.arc_transit[i]
        assert vec[bi.arc_dst[i]] >= vec[bi.arc_src[i]] + w


def test_potentials_seeded_handoff(monkeypatch):
    # exhaust the Jacobi budget so the queue engine finishes from the
    # partially converged state; the fixpoint must be unchanged
    bi = _expanded_bi_graph(make_random_live_graph(4, tasks=5))
    lam = solve_mcrp(bi, "ratio-iteration").ratio
    reference = longest_path_potentials(bi, lam)
    monkeypatch.setattr(solver_mod, "_MIN_VECTOR_NODES", 1)
    monkeypatch.setattr(solver_mod, "_MAX_JACOBI_SWEEPS", 1)
    assert longest_path_potentials(bi, lam) == reference


@pytest.mark.parametrize("vectorized", [True, False])
def test_potentials_reject_uncertified_ratio(vectorized, monkeypatch):
    # λ below λ* leaves a positive (in scheduling terms: negative
    # slack) cycle: both relaxations must refuse to "converge"
    monkeypatch.setattr(
        solver_mod, "_MIN_VECTOR_NODES", 1 if vectorized else 10 ** 9
    )
    n = 80
    g = BiValuedGraph(n)
    for i in range(n):
        g.add_arc(i, (i + 1) % n, 2, 1)  # one big cycle, λ* = 2
    with pytest.raises(SolverError, match="positive cycle"):
        longest_path_potentials(g, Fraction(1))
    assert longest_path_potentials(g, Fraction(2))[0] == 0


@pytest.mark.parametrize("vectorized", [True, False])
def test_potentials_reject_deadlock_cycle(vectorized, monkeypatch):
    # a positive-cost cycle with non-positive transit stays positive at
    # every λ — no potentials exist at any candidate period
    monkeypatch.setattr(
        solver_mod, "_MIN_VECTOR_NODES", 1 if vectorized else 10 ** 9
    )
    g = BiValuedGraph(2)
    g.add_arc(0, 1, 1, 0)
    g.add_arc(1, 0, 1, 0)
    for lam in (Fraction(0), Fraction(7), Fraction(999)):
        with pytest.raises(SolverError, match="positive cycle"):
            longest_path_potentials(g, lam)


def test_potentials_single_node_scc(monkeypatch):
    monkeypatch.setattr(solver_mod, "_MIN_VECTOR_NODES", 1)
    g = BiValuedGraph(1)
    g.add_arc(0, 0, 3, 1)  # self-loop, λ* = 3: zero-weight at λ*
    assert longest_path_potentials(g, Fraction(3)) == [0]
    with pytest.raises(SolverError, match="positive cycle"):
        longest_path_potentials(g, Fraction(2))


@pytest.mark.parametrize("engine", ["karp", "ratio-iteration"])
def test_schedule_from_vectorized_paths_verifies(engine, force_vectorized,
                                                 multirate_cycle):
    # end to end: vectorized oracle + vectorized potentials produce a
    # schedule the token-replay ground truth accepts
    result = min_period_for_k(
        multirate_cycle, {"A": 1, "B": 1}, engine=engine
    )
    assert result.omega == Fraction(6)
    result.schedule.verify(multirate_cycle, iterations=3)
