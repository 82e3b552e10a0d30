"""The warm certificate: a DSE probe whose λ* did not move skips the engine.

A :class:`~repro.kperiodic.solver.WarmCertificate` holds a solved round's
critical circuit and its longest-path potentials at λ̂.
:func:`~repro.kperiodic.solver.certify_warm` replays it on an edited
graph: the circuit must still have ratio exactly λ̂ (λ* ≥ λ̂), and a
relaxation at λ̂ from the potentials must go quiet (λ* ≤ λ̂). The suite
pins that no certificate — stale, corrupted or hostile — ever changes
an answer, that sessions stay bit-identical to cold solves under random
edit sequences, and that steady sizing probes really make no engine call.
"""

import dataclasses
import pickle
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.consistency import repetition_vector
from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.dse import DseSession
from repro.exceptions import DeadlockError
from repro.io import load_graph
from repro.kperiodic import solver as solver_mod
from repro.kperiodic.kiter import WarmStart, throughput_kiter
from repro.kperiodic.solver import (
    certify_warm,
    prepare_min_period,
    solve_prepared_min_period,
    warm_certificate,
)
from repro.model import sdf
from repro.model.graph import CsdfGraph
from repro.obs.trace import (
    collect_events,
    configure_tracing,
    trace_path,
    tracing_enabled,
)

DATA = Path(__file__).parent / "data"
#: Small bounded golden graphs: cheap cold solves, every one live.
BOUNDED = ("golden_figure2.json", "golden_rand101.json",
           "golden_rand505.json", "golden_modem.json")


def floors_of(graph):
    return {b.name: minimal_buffer_capacity(b)
            for b in graph.buffers() if not b.is_self_loop()}


def bounded_golden(name, scale=4):
    graph = load_graph(DATA / name)
    caps = {b: scale * f for b, f in floors_of(graph).items()}
    return graph, bound_all_buffers(graph, caps)


def cold_period(graph):
    try:
        return throughput_kiter(CsdfGraph.from_dict(graph.to_dict())).period
    except DeadlockError:
        return None


def session_period(session):
    try:
        return session.solve().period
    except DeadlockError:
        return None


@contextmanager
def vectorized(enabled):
    """Route every relaxation through numpy (or through the queue)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "_MIN_VECTOR_NODES",
                      1 if enabled else 10 ** 9)
        yield


# ----------------------------------------------------------------------
# Hypothesis: sessions under random edits equal cold solves
# ----------------------------------------------------------------------
EDIT_STEP = st.one_of(
    st.tuples(st.just("cap"), st.integers(0, 20), st.integers(1, 6)),
    st.tuples(st.just("tokens"), st.integers(0, 20), st.integers(0, 3)),
    st.tuples(st.just("dur"), st.integers(0, 20),
              st.integers(1, 3), st.integers(1, 2)),
    st.tuples(st.just("rates"), st.integers(0, 20)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("pickle")),
)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BOUNDED), numpy_route=st.booleans(),
       steps=st.lists(EDIT_STEP, min_size=1, max_size=8))
# A pickled session used to forget which buffers it had edited, so a
# reset after a post-unpickle solve served that solve's stale blocks.
@example(name="golden_figure2.json", numpy_route=False,
         steps=[("tokens", 0, 1), ("pickle",), ("reset",)])
def test_random_edit_sequences_match_cold_solves(name, numpy_route, steps):
    base, bounded = bounded_golden(name)
    data = sorted(floors_of(base))
    tasks = sorted(base.task_names())
    with vectorized(numpy_route):
        session = DseSession(bounded)
        assert session_period(session) == cold_period(bounded)
        for step in steps:
            kind = step[0]
            if kind == "reset":
                session.reset()
            elif kind == "pickle":
                session = pickle.loads(pickle.dumps(session))
            elif kind == "cap":
                buffer = data[step[1] % len(data)]
                marking = session.graph.buffer(buffer).initial_tokens
                floor = minimal_buffer_capacity(base.buffer(buffer))
                session.set_capacity(buffer, max(floor * step[2], marking))
            elif kind == "tokens":
                buffer = data[step[1] % len(data)]
                space = session.graph.buffer(f"__space_{buffer}")
                marking = session.graph.buffer(buffer).initial_tokens
                # move tokens between the buffer and its space twin:
                # capacity stays put, the marking does not
                shift = min(step[2], space.initial_tokens)
                session.set_initial_tokens(buffer, marking + shift)
            elif kind == "dur":
                session.scale_task(tasks[step[1] % len(tasks)],
                                   step[2], step[3])
            else:
                buffer = data[step[1] % len(data)]
                current = session.graph.buffer(buffer)
                session.set_rates(
                    buffer,
                    production=[2 * r for r in current.production],
                    consumption=[2 * r for r in current.consumption],
                    initial_tokens=2 * current.initial_tokens,
                )
            assert session_period(session) == cold_period(session.graph)


@pytest.mark.parametrize("numpy_route", [True, False])
@pytest.mark.parametrize("name", BOUNDED)
def test_unchanged_probes_are_certified(name, numpy_route):
    """Edits off the critical circuit leave λ* and the circuit alone:
    every such re-solve is certified by replay, on both relaxations."""
    base, bounded = bounded_golden(name)
    with vectorized(numpy_route):
        session = DseSession(bounded)
        first = session.solve()
        critical = first.critical_tasks
        calm = [b for b in sorted(floors_of(base))
                if base.buffer(b).source not in critical
                and base.buffer(b).target not in critical]
        for buffer in calm:
            floor = minimal_buffer_capacity(base.buffer(buffer))
            session.set_capacity(buffer, 5 * floor)
            assert session.solve().period == first.period
        solved = session.stats()
        assert solved["certified"] == len(calm)
        assert solved["certified"] == session.certified


# ----------------------------------------------------------------------
# Adversarial certificates never change an answer
# ----------------------------------------------------------------------
def solved_round(graph, K=None):
    """A prepared round at ``K`` (the graph's final K by default), its
    engine result and its honest certificate."""
    q = repetition_vector(graph)
    if K is None:
        K = throughput_kiter(graph).K
    prepared = prepare_min_period(graph, K, repetition=q)
    result = solve_prepared_min_period(prepared)
    return prepared, result, warm_certificate(prepared, result)


def with_warm(graph, certificate, seed):
    return throughput_kiter(graph, initial_k=dict(certificate.K),
                            warm=WarmStart(certificate, seed=seed))


@pytest.fixture(params=[True, False], ids=["numpy", "queue"])
def route(request):
    with vectorized(request.param):
        yield request.param


@pytest.fixture(params=["golden_rand505.json", "golden_modem.json"])
def golden_round(request, route):
    _base, bounded = bounded_golden(request.param)
    return (bounded, *solved_round(bounded))


def test_honest_certificate_certifies_without_engine(golden_round):
    graph, prepared, result, certificate = golden_round
    check = certify_warm(prepared, certificate)
    assert check.outcome == "certified"
    assert check.sweeps <= 1
    assert check.result.ratio == result.omega_expanded
    assert check.result.iterations == 0
    out = with_warm(graph, certificate, seed=True)
    assert out.period == cold_period(graph)
    assert out.rounds[0].warm_certified
    assert out.certificate is not None


@pytest.mark.parametrize("corruption", [
    "random", "huge", "relabeled", "missing", "empty", "above", "below",
    "other-k", "repeated",
])
@pytest.mark.parametrize("seed", [True, False])
def test_adversarial_certificate_never_changes_lambda(
    golden_round, route, corruption, seed
):
    graph, prepared, result, honest = golden_round
    rng = np.random.default_rng(7)
    n = len(honest.potentials)
    lam = honest.lam
    circuit = honest.circuit
    if corruption == "random":
        bad = dataclasses.replace(
            honest, potentials=rng.integers(-10 ** 6, 10 ** 6, n))
    elif corruption == "huge":
        bad = dataclasses.replace(
            honest, potentials=np.full(n, (1 << 62) - 1, dtype=np.int64))
    elif corruption == "relabeled":
        shifted = tuple((task, phase + 1) for task, phase in circuit)
        bad = dataclasses.replace(honest, circuit=shifted)
    elif corruption == "missing":
        bad = dataclasses.replace(honest, circuit=(("no-such-task", 1),))
    elif corruption == "empty":
        bad = dataclasses.replace(honest, circuit=())
    elif corruption == "above":
        # feasible potentials exist at any λ̂ ≥ λ*: only the circuit
        # ratio check stands between them and a wrong answer
        above = lam + 1
        bad = dataclasses.replace(
            honest, lam=above,
            potentials=np.array(solver_mod._integer_potentials(
                prepared.bi_graph.compile(), above.numerator,
                above.denominator), dtype=np.int64))
    elif corruption == "below":
        bad = dataclasses.replace(honest, lam=lam - Fraction(1, 3))
    elif corruption == "other-k":
        bad = dataclasses.replace(
            honest, K={t: k + 1 for t, k in honest.K.items()})
    else:
        bad = dataclasses.replace(honest, circuit=circuit + circuit[:1])
    check = certify_warm(prepared, bad)
    if check.outcome == "certified":
        # only a certificate that is still a valid proof may pass
        assert check.result.ratio == result.omega_expanded
    else:
        assert check.result is None
    if corruption in ("above", "below", "relabeled", "missing", "empty",
                      "repeated"):
        assert check.outcome == "circuit-broken"
    if corruption == "other-k" or (corruption == "huge" and route):
        # the int64 guard; the queue relaxation has none to trip
        assert check.outcome == "skipped"
    try:
        out = with_warm(graph, bad, seed)
    except DeadlockError:
        out = None
    assert (out and out.period) == cold_period(graph)


def test_quiet_check_rejects_a_risen_lambda(route):
    """The old circuit keeps its ratio, but another cycle now beats it:
    only the relaxation can tell, and it must refuse."""
    graph = sdf({"A": 2, "B": 2, "C": 1, "D": 1},
                [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1),
                 ("C", "D", 1, 1, 0), ("D", "C", 1, 1, 1)],
                name="two_rings")
    prepared, result, certificate = solved_round(graph)
    assert result.critical_tasks == {"A", "B"}
    slower = sdf({"A": 2, "B": 2, "C": 5, "D": 1},
                 [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1),
                  ("C", "D", 1, 1, 0), ("D", "C", 1, 1, 1)],
                 name="two_rings")
    edited, _result, _cert = solved_round(slower, certificate.K)
    check = certify_warm(edited, certificate)
    assert check.outcome == "not-quiet"
    assert with_warm(slower, certificate, seed=True).period == \
        cold_period(slower) == 6


def test_circuit_check_rejects_a_fallen_lambda(route):
    """λ* dropped: the stored potentials stay feasible at the old λ̂, so
    only the exact circuit ratio can refuse the certificate."""
    graph = sdf({"A": 4, "B": 2},
                [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)], name="ring")
    prepared, result, certificate = solved_round(graph)
    faster = sdf({"A": 1, "B": 2},
                 [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)], name="ring")
    edited, _result, _cert = solved_round(faster, certificate.K)
    check = certify_warm(edited, certificate)
    assert check.outcome == "circuit-broken"
    assert with_warm(faster, certificate, seed=False).period == \
        cold_period(faster) == 3


def test_rescaled_potentials_survive_a_scale_change(golden_round):
    graph, prepared, result, honest = golden_round
    # the same potentials stated at twice the compiled scale D
    doubled = dataclasses.replace(
        honest, scale=2 * honest.scale, potentials=2 * honest.potentials)
    check = certify_warm(prepared, doubled)
    assert check.outcome == "certified"
    assert check.result.ratio == result.omega_expanded


def test_certify_span_reports_outcome_and_sweeps(golden_round, tmp_path):
    graph, _prepared, _result, certificate = golden_round
    prior = trace_path() if tracing_enabled() else None
    collect_events(clear=True)
    configure_tracing(str(tmp_path / "trace.jsonl"))
    try:
        with_warm(graph, certificate, seed=True)
        spans = collect_events(clear=True)
    finally:
        configure_tracing(prior)
    (certify,) = [s for s in spans if s["name"] == "dse.certify"]
    assert certify["attrs"]["outcome"] == "certified"
    assert certify["attrs"]["sweeps"] <= 1


# ----------------------------------------------------------------------
# Steady sizing probes make no engine call
# ----------------------------------------------------------------------
def test_steady_sizing_probes_skip_the_engine(monkeypatch):
    graph = load_graph(DATA / "golden_synthetic2.json")
    floors = floors_of(graph)
    probes = [{b: scale * f for b, f in floors.items()}
              for scale in (20, 18, 16)]
    trial = dict(probes[-1])
    for buffer in sorted(floors)[:32]:  # 35 probes, as in dse-sizing
        trial = dict(trial, **{buffer: 8 * floors[buffer]})
        probes.append(trial)
    session = DseSession(bound_all_buffers(graph, probes[0]))
    periods = []
    for caps in probes:  # the first pass warms the session
        session.set_capacities(caps)
        periods.append(session.solve().period)

    calls = []
    real = solver_mod.solve_mcrp

    def spy(*args, **kwargs):
        calls.append(args[0].node_count)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_mcrp", spy)
    engine_probes = 0
    for caps, expected in zip(probes, periods):
        before = len(calls)
        session.set_capacities(caps)
        result = session.solve()
        assert result.period == expected
        if result.rounds[0].warm_certified:
            assert len(calls) == before, "a certified probe ran the engine"
        else:
            engine_probes += 1
    assert len(probes) - engine_probes >= 0.8 * len(probes)
    assert len(calls) == engine_probes
