"""A seeded exact probe equals a zero-start probe.

The exact positive-cycle oracle's Jacobi sweeps may start from any
finite vector (a :class:`~repro.mcrp.bellman.StartHint`): without a
positive cycle they still reach a fixpoint, and every returned cycle is
verified. The suite pins the metamorphic relation on random SDF
constraint graphs of at least 64 nodes (so the numpy path runs): for
every start — zeros, the true potentials, large random values, values
just under and just over the int64 guard — the oracle finds a cycle
exactly when the zero start does, every engine returns the zero start's
λ*, the SCC pipeline hands each component its own slice of the start,
and a DSE session's uncertified probes run seeded and still equal cold
solves.
"""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.dse import DseSession
from repro.exceptions import DeadlockError
from repro.generators.random_sdf import random_connected_sdf
from repro.io import load_graph
from repro.kperiodic import kiter as kiter_mod
from repro.kperiodic.kiter import WarmStart, throughput_kiter
from repro.kperiodic.solver import (
    _integer_potentials,
    prepare_min_period,
    solve_prepared_min_period,
    warm_certificate,
)
from repro.mcrp import decompose, get_engine, max_cycle_ratio, solve_mcrp
from repro.mcrp.bellman import ScaledGraph, StartHint, find_positive_cycle
from repro.model.graph import CsdfGraph
from repro.obs.metrics import REGISTRY

DATA = Path(__file__).parent / "data"
ENGINES = ("ratio-iteration", "karp")
STARTS = ("zero", "potentials", "random", "under-guard", "over-guard")
_SWEEPS = REGISTRY.counter("repro_mcrp_oracle_sweeps_total")


def sweeps():
    """``repro_mcrp_oracle_sweeps_total`` as ``(seeded, zero)``."""
    return (_SWEEPS.labels(start="seeded").value,
            _SWEEPS.labels(start="zero").value)


def constraint_graph(seed):
    """The 1-periodic constraint graph of a random SDF graph and its
    λ*: one node per task, 64 to 80 of them, several SCCs. The first
    seed from ``seed`` on whose graph is feasible at K ≡ 1 is taken."""
    while True:
        graph = random_connected_sdf(
            seed, tasks=64 + seed % 17, max_q=4, feedback_edges=4,
            feedback_margin=2)
        K = {name: 1 for name in graph.task_names()}
        bi = prepare_min_period(graph, K).bi_graph
        try:
            return bi, max_cycle_ratio(bi).ratio
        except DeadlockError:
            seed += 1


def true_potentials(bi, lam):
    """Longest paths at ``λ*`` as a hint (no positive cycle there)."""
    compiled = bi.compile()
    values = _integer_potentials(compiled, lam.numerator, lam.denominator)
    return StartHint(np.array(values, dtype=np.int64),
                     lam.denominator * compiled.scale)


def make_start(kind, bi, lam_star, lam, rng):
    """A hint of ``kind`` for a probe at ``lam``."""
    compiled = bi.compile()
    n = compiled.node_count
    unit = lam.denominator * compiled.scale  # no rescale at ``lam``
    if kind == "zero":
        return StartHint(np.zeros(n, dtype=np.int64), unit)
    if kind == "potentials":
        return true_potentials(bi, lam_star)
    if kind == "random":
        peak = 10 ** rng.randint(0, 15)
        return StartHint(
            np.array([rng.randint(-peak, peak) for _ in range(n)],
                     dtype=np.int64),
            rng.randint(1, 1000))
    # The guard: peak(start) + (3n+4)·bound must stay under 2^62.
    bound = compiled.parametric_weight_bound(lam.numerator, lam.denominator)
    limit = (1 << 62) - (3 * n + 4) * bound
    peak = limit - 1 if kind == "under-guard" else limit
    values = np.array([rng.choice((-1, 1)) * rng.randint(0, peak)
                       for _ in range(n)], dtype=np.int64)
    values[rng.randrange(n)] = rng.choice((-1, 1)) * peak
    return StartHint(values, unit)


def positive(scaled, cycle, lam):
    cost, transit = scaled.cycle_ratio(cycle)
    return lam.denominator * cost - lam.numerator * transit > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), kind=st.sampled_from(STARTS))
def test_a_seeded_probe_finds_a_cycle_exactly_when_a_zero_start_does(
        seed, kind):
    bi, lam_star = constraint_graph(seed)
    scaled = ScaledGraph(bi)
    rng = random.Random(seed)
    probes = (lam_star, lam_star - Fraction(1, 2), lam_star * Fraction(7, 8),
              lam_star + Fraction(1, 3))
    for lam in probes:
        start = make_start(kind, bi, lam_star, lam, rng)
        zero = find_positive_cycle(scaled, lam.numerator, lam.denominator)
        before = sweeps()
        seeded = find_positive_cycle(
            scaled, lam.numerator, lam.denominator, start)
        after = sweeps()
        assert (seeded is None) == (zero is None)
        assert (seeded is None) == (lam >= lam_star)
        if seeded is not None:
            assert positive(scaled, seeded, lam)
        if kind == "over-guard":
            # past the guard the sweeps run from zero, without overflow
            assert after[0] == before[0] and after[1] > before[1]
        elif kind == "under-guard":
            assert after[0] > before[0] and after[1] == before[1]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(("potentials", "random")))
def test_every_engine_returns_the_zero_start_ratio(seed, kind):
    bi, lam_star = constraint_graph(seed)
    start = make_start(kind, bi, lam_star, lam_star, random.Random(seed))
    for name in ENGINES:
        solve = get_engine(name).solve
        assert solve(bi, start=start).ratio == lam_star
        lower = lam_star - 1
        assert solve(bi, lower_bound=lower, start=start).ratio == lam_star
        assert solve_mcrp(bi, name, start=start).ratio == lam_star


def test_each_component_gets_its_own_slice_of_the_start(monkeypatch):
    bi, lam_star = constraint_graph(7)
    assert len(decompose.strongly_connected_node_sets(bi)) > 1
    index = {label: node for node, label in enumerate(bi.labels)}
    values = np.arange(bi.node_count, dtype=np.int64) * 1000 - 7
    start = StartHint(values, 5)
    seen = []

    def check(sub, hint):
        if sub is bi:
            assert hint is start
        else:
            nodes = [index[label] for label in sub.labels]
            assert hint.unit == start.unit
            assert hint.potentials.tolist() == values[nodes].tolist()
        seen.append(sub.node_count)

    def engine(sub, *, lower_bound=None, start=None):
        check(sub, start)
        return max_cycle_ratio(sub, lower_bound=lower_bound, start=start)

    probe = decompose.find_positive_cycle

    def union_probe(scaled, lam_num, lam_den, start=None):
        check(scaled.graph, start)
        return probe(scaled, lam_num, lam_den, start)

    monkeypatch.setattr(decompose, "find_positive_cycle", union_probe)
    seeded = decompose.max_cycle_ratio_sccs(bi, engine=engine, start=start)
    assert len(seen) > 1
    assert seeded.ratio == lam_star


def test_an_engine_without_the_keyword_serves_unseeded_solves():
    bi, lam_star = constraint_graph(3)

    def legacy(sub, *, lower_bound=None):
        return max_cycle_ratio(sub, lower_bound=lower_bound)

    assert decompose.max_cycle_ratio_sccs(bi, engine=legacy).ratio == \
        lam_star


def test_the_rescale_divides_by_the_gcd_first():
    """``b·D / unit`` is reduced before it multiplies: the raw product
    would leave int64 where the reduced one does not."""
    bi, _lam_star = constraint_graph(1)
    compiled = bi.compile()
    values = np.array([3 << 40] * compiled.node_count, dtype=np.int64)
    target = (1 << 30) * compiled.scale * 3
    hint = StartHint(values, (1 << 30) * compiled.scale * 2)
    assert int(values.max()) * target >= 1 << 62  # the raw product
    rescaled = hint.at((1 << 30) * 3, compiled)
    assert rescaled.tolist() == (values * 3 // 2).tolist()
    assert hint.at(1 << 61, compiled) is None  # past the head-room
    assert StartHint(values[:-1], 1).at(1, compiled) is None  # wrong n


# ----------------------------------------------------------------------
# The session path: a failed replay hands its potentials on
# ----------------------------------------------------------------------
def floors_of(graph):
    return {b.name: minimal_buffer_capacity(b)
            for b in graph.buffers() if not b.is_self_loop()}


def spy_starts(monkeypatch):
    """The start every uncertified round hands its engine, in order."""
    starts = []
    real = kiter_mod._solve_round

    def spy(engine, instances):
        starts.extend(start for _, start in instances)
        return real(engine, instances)

    monkeypatch.setattr(kiter_mod, "_solve_round", spy)
    return starts


def test_a_failed_replay_hands_its_potentials_to_that_round(monkeypatch):
    from repro.model import sdf

    ring = [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)]
    graph = sdf({"A": 4, "B": 2}, ring, name="ring")
    K = throughput_kiter(graph).K
    prepared = prepare_min_period(graph, K)
    certificate = warm_certificate(
        prepared, solve_prepared_min_period(prepared))
    faster = sdf({"A": 1, "B": 2}, ring, name="ring")  # circuit-broken
    starts = spy_starts(monkeypatch)
    result = throughput_kiter(faster, initial_k=dict(K),
                              warm=WarmStart(certificate, seed=False))
    assert result.period == 3
    assert starts[0] is not None
    assert starts[0].potentials is certificate.potentials
    assert starts[0].unit == certificate.lam.denominator * certificate.scale
    assert all(start is None for start in starts[1:])
    # another K: the replay is skipped and hands nothing on
    starts.clear()
    other = {name: 2 * k for name, k in K.items()}
    throughput_kiter(faster, initial_k=other,
                     warm=WarmStart(certificate, seed=False))
    assert starts and all(start is None for start in starts)


def test_sizing_probes_run_seeded_and_match_cold_solves():
    graph = load_graph(DATA / "golden_synthetic2.json")
    floors = floors_of(graph)
    probes = [{b: scale * f for b, f in floors.items()}
              for scale in (20, 18, 16)]
    trial = dict(probes[-1])
    for buffer in sorted(floors)[:32]:  # 35 probes, as in dse-sizing
        trial = dict(trial, **{buffer: 8 * floors[buffer]})
        probes.append(trial)
    session = DseSession(bound_all_buffers(graph, probes[0]))
    for caps in probes:  # the first pass warms the session
        session.set_capacities(caps)
        session.solve()
    before = sweeps()
    uncertified = 0
    for caps in probes:
        session.set_capacities(caps)
        result = session.solve()
        uncertified += not result.rounds[0].warm_certified
        cold = CsdfGraph.from_dict(session.graph.to_dict())
        assert result.period == throughput_kiter(cold).period
    assert uncertified
    assert sweeps()[0] > before[0]
