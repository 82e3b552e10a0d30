"""Warm starts: what a previous solve hands the next one.

A K-Iter run given a previous solve's :class:`WarmStart` replays its
certificate on the first round, and a fixed-K solve can be seeded with a
``λ*`` estimate on top of the utilization bound (``min_period_for_k``; a
DSE session hands a previous solve's ``λ̂`` both ways). The contract
under test:

* exactness is untouched — a warm K-Iter run certifies the same period,
  K and round count as a cold run from the same K, and a seed that
  overshoots only costs restart probes;
* warm starts never *increase* the engine probe count, and they
  genuinely engage: a replayed certificate needs no probe at all, and
  re-solving a fixed K with its own ``λ*`` as the seed certifies in
  fewer-or-equal probes.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis.consistency import repetition_vector
from repro.io import load_graph
from repro.kperiodic import throughput_kiter
from repro.kperiodic.kiter import WarmStart
from repro.kperiodic.solver import min_period_for_k
from tests.conftest import golden_corpus_cases, make_random_live_graph

DATA = Path(__file__).parent / "data"
CASES = golden_corpus_cases()


def solved_then_rerun(graph):
    """A cold solve with its certificate, then a cold and a warm rerun
    from its certified K."""
    first = throughput_kiter(graph, warm=WarmStart())
    cold = throughput_kiter(graph, initial_k=dict(first.K))
    warm = throughput_kiter(graph, initial_k=dict(first.K),
                            warm=WarmStart(first.certificate, seed=True))
    return first, cold, warm


@pytest.mark.parametrize("filename,period", CASES,
                         ids=[c[0] for c in CASES])
def test_warm_start_exact_and_never_more_probes_golden(filename, period):
    first, cold, warm = solved_then_rerun(load_graph(DATA / filename))
    assert first.period == warm.period == cold.period == period
    assert warm.K == cold.K
    assert warm.iteration_count == cold.iteration_count
    assert warm.engine_iteration_count <= cold.engine_iteration_count


@pytest.mark.parametrize("seed", range(0, 40))
def test_warm_start_exact_on_random_graphs(seed):
    first, cold, warm = solved_then_rerun(make_random_live_graph(seed))
    assert first.period == warm.period == cold.period
    assert warm.K == cold.K
    assert warm.engine_iteration_count <= cold.engine_iteration_count


def test_warm_start_reduces_probes_on_multiround_instance():
    # The replay genuinely engages: this instance needs several K-Iter
    # rounds cold, and its final certificate, replayed, certifies the
    # rerun with no engine probe (deterministic: the generator is seeded).
    first, cold, warm = solved_then_rerun(make_random_live_graph(49))
    assert first.iteration_count > 1
    assert warm.period == cold.period == first.period
    assert warm.engine_iteration_count == 0
    assert warm.engine_iteration_count < cold.engine_iteration_count


def test_min_period_warm_start_with_own_lambda_certifies_fast():
    graph = load_graph(DATA / CASES[1][0]) if CASES else None
    if graph is None:
        pytest.skip("golden corpus not present")
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    base = min_period_for_k(graph, K, build_schedule=False)
    reseeded = min_period_for_k(
        graph, K, build_schedule=False, warm_start=base.omega_expanded
    )
    assert reseeded.omega == base.omega
    assert reseeded.engine_iterations <= base.engine_iterations


@pytest.mark.parametrize(
    "engine", ["ratio-iteration", "karp", "howard"])
def test_min_period_warm_start_overshoot_is_sound(engine, reference_engines):
    graph = make_random_live_graph(7)
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    base = min_period_for_k(graph, K, engine=engine, build_schedule=False)
    for seed in (base.omega_expanded + 1000, Fraction(1, 7)):
        r = min_period_for_k(
            graph, K, engine=engine, build_schedule=False, warm_start=seed
        )
        assert r.omega == base.omega
        assert {t for t, _ in r.critical_nodes} == r.critical_tasks
