"""Property-based tests (hypothesis) on the core data structures.

Each property is an invariant of the model or the solvers:

* Theorem 2 soundness: the earliest K-periodic schedule produced from
  the constraint graph replays over the token semantics without a
  negative buffer;
* consistency scaling invariance and balance;
* K-expansion algebra (Theorem 3's bookkeeping);
* MCRP engine agreement on arbitrary bi-valued graphs;
* throughput monotonicity in buffer capacity;
* rounding-operator algebra (the ``⌈·⌉^γ``/``⌊·⌋^γ`` pair).
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import is_live, repetition_vector
from repro.baselines import throughput_symbolic
from repro.exceptions import DeadlockError
from repro.kperiodic import expand_graph, min_period_for_k, throughput_kiter
from oracles import max_cycle_ratio_howard, max_cycle_ratio_lawler
from repro.mcrp import BiValuedGraph, all_engines
from repro.model import Buffer, CsdfGraph, Task
from repro.utils.rational import ceil_to_multiple, floor_to_multiple
from tests.conftest import make_random_live_graph

LIMITED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# rounding operators
# ----------------------------------------------------------------------
@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_floor_ceil_to_multiple_algebra(alpha, gamma):
    lo = floor_to_multiple(alpha, gamma)
    hi = ceil_to_multiple(alpha, gamma)
    assert lo % gamma == 0 and hi % gamma == 0
    assert lo <= alpha <= hi
    assert hi - lo in (0, gamma)
    assert (hi == lo) == (alpha % gamma == 0)


# ----------------------------------------------------------------------
# consistency
# ----------------------------------------------------------------------
@st.composite
def consistent_two_task_graph(draw):
    i_b = draw(st.integers(1, 40))
    o_b = draw(st.integers(1, 40))
    m0 = draw(st.integers(0, 100))
    d_a = draw(st.integers(0, 9))
    d_b = draw(st.integers(0, 9))
    g = CsdfGraph("prop")
    g.add_task(Task("A", (d_a,)))
    g.add_task(Task("B", (d_b,)))
    g.add_buffer(Buffer("ab", "A", "B", (i_b,), (o_b,), m0))
    return g


@LIMITED
@given(consistent_two_task_graph(), st.integers(2, 7))
def test_repetition_scaling_invariance(graph, factor):
    q1 = repetition_vector(graph)
    scaled = CsdfGraph("scaled")
    for t in graph.tasks():
        scaled.add_task(t)
    for b in graph.buffers():
        scaled.add_buffer(
            Buffer(b.name, b.source, b.target,
                   tuple(r * factor for r in b.production),
                   tuple(r * factor for r in b.consumption),
                   b.initial_tokens)
        )
    assert repetition_vector(scaled) == q1


@LIMITED
@given(consistent_two_task_graph())
def test_repetition_balance(graph):
    q = repetition_vector(graph)
    for b in graph.buffers():
        assert q[b.source] * b.total_production == \
            q[b.target] * b.total_consumption
    assert gcd(q["A"], q["B"]) == 1


# ----------------------------------------------------------------------
# K-expansion algebra
# ----------------------------------------------------------------------
@LIMITED
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6),
       st.data())
def test_expansion_preserves_consistency_and_marking(seed, ka, kb, data):
    g = make_random_live_graph(seed % 50, tasks=3)
    K = {t.name: data.draw(st.integers(1, 4)) for t in g.tasks()}
    expanded = expand_graph(g, K)
    q = repetition_vector(g)
    q_expanded = repetition_vector(expanded)
    for b in g.buffers():
        eb = expanded.buffer(b.name)
        assert eb.initial_tokens == b.initial_tokens
        assert eb.total_production == K[b.source] * b.total_production
    # minimal q of G̃ is proportional to q_t/K_t
    names = g.task_names()
    ratios = {
        t: Fraction(q[t], K[t]) / Fraction(q_expanded[t])
        for t in names
    }
    assert len(set(ratios.values())) == 1


# ----------------------------------------------------------------------
# Theorem 2 soundness via schedule replay
# ----------------------------------------------------------------------
@LIMITED
@given(st.integers(0, 10**6), st.data())
def test_min_period_schedule_is_token_sound(seed, data):
    g = make_random_live_graph(seed % 200, tasks=4)
    q = repetition_vector(g)
    K = {t: data.draw(st.sampled_from(sorted(_divisors(q[t]))))
         for t in q}
    try:
        result = min_period_for_k(g, K)
    except DeadlockError:
        return  # small-K infeasibility: nothing to replay
    if result.schedule is not None:
        result.schedule.verify(g, iterations=3)


def _divisors(n: int):
    return {d for d in range(1, n + 1) if n % d == 0}


# ----------------------------------------------------------------------
# MCRP engines agree on arbitrary graphs
# ----------------------------------------------------------------------
@LIMITED
@given(st.integers(0, 10**9))
def test_mcrp_engines_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    g = BiValuedGraph(n)
    for _ in range(rng.randint(0, 3 * n)):
        g.add_arc(
            rng.randrange(n), rng.randrange(n),
            rng.randint(0, 10),
            Fraction(rng.randint(-2, 6), rng.randint(1, 3)),
        )
    outcomes = []
    engines = [max_cycle_ratio_howard, max_cycle_ratio_lawler,
               *(info.solve for info in all_engines())]
    for engine in engines:
        try:
            outcomes.append(engine(g).ratio)
        except DeadlockError:
            outcomes.append("deadlock")
    assert outcomes == [outcomes[0]] * len(engines)


# ----------------------------------------------------------------------
# ASAP simulation never goes negative & throughput equivalence
# ----------------------------------------------------------------------
@LIMITED
@given(st.integers(0, 10**6))
def test_symbolic_equals_kiter(seed):
    g = make_random_live_graph(seed % 300, tasks=4)
    exact = throughput_kiter(g).period
    assert throughput_symbolic(g, max_states=300_000).period == exact


# ----------------------------------------------------------------------
# capacity monotonicity
# ----------------------------------------------------------------------
@LIMITED
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_throughput_monotone_in_capacity(seed, step):
    from repro.buffers import throughput_storage_curve

    g = make_random_live_graph(seed % 100, tasks=3)
    curve = throughput_storage_curve(g, [1, 1 + step, 1 + 2 * step])
    values = [
        (Fraction(-1) if th is None else th) for _scale, th in curve
    ]
    assert values == sorted(values)
