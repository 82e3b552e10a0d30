"""Integration: every throughput engine agrees on random live CSDFGs.

This is the library's strongest correctness statement: on graphs small
enough for all engines,

    K-Iter == symbolic execution == full expansion (K = q)

exactly (Fractions), the 1-periodic method is an upper bound on the
period, and the certified K-periodic schedule replays without driving
any buffer negative.
"""

import pytest

from repro.analysis import is_live, repetition_vector
from repro.baselines import (
    throughput_expansion,
    throughput_periodic,
    throughput_symbolic,
)
from repro.kperiodic import throughput_kiter
from repro.kperiodic.kiter import throughput_via_full_expansion
from tests.conftest import make_random_live_graph


@pytest.mark.parametrize("seed", range(25))
def test_exact_engines_agree(seed):
    g = make_random_live_graph(seed, tasks=4 + seed % 4)
    assert is_live(g)

    kiter = throughput_kiter(g)
    expansion = throughput_via_full_expansion(g)
    assert kiter.period == expansion.omega, "K-Iter vs full expansion"

    symbolic = throughput_symbolic(g, max_states=500_000)
    assert symbolic.period == kiter.period, "K-Iter vs symbolic"


@pytest.mark.parametrize("seed", range(25))
def test_periodic_is_a_relaxation(seed):
    g = make_random_live_graph(seed, tasks=4 + seed % 4)
    exact = throughput_kiter(g).period
    periodic = throughput_periodic(g)
    if periodic.feasible and exact > 0:
        assert periodic.period >= exact


@pytest.mark.parametrize("seed", range(12))
def test_certified_schedule_replays(seed):
    g = make_random_live_graph(seed, tasks=4)
    r = throughput_kiter(g, build_schedule=True)
    if r.schedule is not None:
        r.schedule.verify(g, iterations=3)


@pytest.mark.parametrize("seed", range(12))
def test_mcrp_engine_choice_is_irrelevant(seed, reference_engines):
    g = make_random_live_graph(seed + 100, tasks=5)
    base = throughput_kiter(g, engine="ratio-iteration").period
    for engine in ("hybrid", "karp", "howard", "lawler"):
        assert throughput_kiter(g, engine=engine).period == base, engine


@pytest.mark.parametrize("seed", range(15))
def test_sdf_expansion_agrees(seed):
    from repro.generators.random_sdf import random_connected_sdf

    g = random_connected_sdf(seed + 900, tasks=5, max_q=5,
                             duration_range=(1, 8))
    assert throughput_expansion(g).period == throughput_kiter(g).period


def test_kiter_rounds_bounded_by_q_divisor_chain():
    """K only moves up the divisor lattice of q, so rounds stay tiny."""
    for seed in range(10):
        g = make_random_live_graph(seed, tasks=6)
        q = repetition_vector(g)
        r = throughput_kiter(g)
        assert r.iteration_count <= 2 * len(q) + 4
        for t, k in r.K.items():
            assert q[t] % k == 0
