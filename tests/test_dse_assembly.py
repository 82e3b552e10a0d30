"""Incremental assembly: a patched compile is a cold compile.

A ``DseSession`` compile at an unchanged K starts from the arcs its
block cache assembled last time and re-derives only the buffers edited
since. The contract is absolute: after any edit sequence, the compiled
constraint graph is byte-identical to ``compile_expansion`` on a fresh
cache at the same K (``scale``, the four int64 arc arrays and the
labels, in the same arc order), every solve matches a session that
re-resolves every block (λ*, K, rounds, critical tasks, and the block
cache's hit/miss/eviction counts), and λ* matches a cold solve.

The parallel-arc merge runs only over the arcs of buffers that share a
task pair; it must return what the merge over every arc returns, in
the same order.
"""

import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_graph_dicts
from repro.analysis.consistency import repetition_vector
from repro.analysis.constraint_graph import (
    build_constraint_graph,
    int64_lcm,
    merge_parallel_candidates,
)
from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.dse import DseSession
from repro.exceptions import DeadlockError, ModelError
from repro.io import load_graph
from repro.kperiodic.expansion import (
    ExpansionBlockCache,
    compile_expansion,
    expand_graph,
    expanded_repetition_vector,
)
from repro.kperiodic.kiter import throughput_kiter
from repro.model.graph import CsdfGraph
from repro.obs.metrics import REGISTRY
from repro.utils.rational import lcm_list

np = pytest.importorskip("numpy")

DATA = Path(__file__).parent / "data"
#: Small bounded golden graphs: cheap cold solves, every one live.
BOUNDED = ("golden_figure2.json", "golden_rand101.json",
           "golden_rand505.json", "golden_modem.json")


def floors_of(graph):
    return {b.name: minimal_buffer_capacity(b)
            for b in graph.buffers() if not b.is_self_loop()}


class FullCache(ExpansionBlockCache):
    """A block cache that never starts from its last assembly: every
    compile looks every block up, as a cold compile does."""

    def assembly_for(self, plan, K, repetition):
        return None


def reference_session(graph, max_cells):
    session = DseSession(graph, max_cells=max_cells)
    session._cache = FullCache(max_cells)
    return session


def outcome(session):
    try:
        result = session.solve()
    except DeadlockError:
        return None
    return (result.period, dict(result.K), result.iteration_count,
            sorted(result.critical_tasks), result.engine_iteration_count)


def cold_period(graph):
    try:
        return throughput_kiter(CsdfGraph.from_dict(graph.to_dict())).period
    except DeadlockError:
        return None


def counts(session):
    cache = session._cache
    return cache.hits, cache.misses, cache.evictions


def compiled_arrays(built):
    """Everything a compiled graph is made of, as comparable values."""
    if built is None:
        return None
    bi_graph, _space = built
    compiled = bi_graph.compile()
    return (
        compiled.node_count,
        compiled.scale,
        [(array.dtype.str, array.tobytes()) for array in (
            compiled.np_src, compiled.np_dst, compiled.np_cost,
            compiled.np_transit)] if compiled.arc_count else [],
        list(bi_graph.labels),
    )


def assert_matches_cold_compile(session, K):
    """The session's compiled graph at ``K`` equals a fresh compile."""
    graph = session.graph
    q_tilde = expanded_repetition_vector(repetition_vector(graph), K)
    fresh = compile_expansion(graph, K, q_tilde, cache=ExpansionBlockCache())
    built = session._cache._compiled.get(tuple(sorted(K.items())))
    assert compiled_arrays(built) == compiled_arrays(fresh)


EDIT_STEP = st.one_of(
    st.tuples(st.just("cap"), st.integers(0, 20), st.integers(1, 6)),
    st.tuples(st.just("caps"), st.integers(1, 6)),
    st.tuples(st.just("starve"), st.integers(0, 20)),
    st.tuples(st.just("tokens"), st.integers(0, 20), st.integers(0, 3)),
    st.tuples(st.just("scale"), st.integers(0, 20),
              st.integers(1, 3), st.integers(1, 2)),
    st.tuples(st.just("dur"), st.integers(0, 20), st.integers(1, 5)),
    st.tuples(st.just("rates"), st.integers(0, 20)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("pickle")),
)


def apply_step(session, base, step):
    data = sorted(floors_of(base))
    tasks = sorted(base.task_names())
    kind = step[0]
    graph = session.graph
    if kind == "reset":
        session.reset()
    elif kind == "cap":
        buffer = data[step[1] % len(data)]
        marking = graph.buffer(buffer).initial_tokens
        floor = minimal_buffer_capacity(base.buffer(buffer))
        session.set_capacity(buffer, max(floor * step[2], marking))
    elif kind == "caps":
        session.set_capacities({
            buffer: max(floor * step[1], graph.buffer(buffer).initial_tokens)
            for buffer, floor in floors_of(base).items()
        })
    elif kind == "starve":  # no free space at all: usually a deadlock
        buffer = data[step[1] % len(data)]
        session.set_capacity(buffer, graph.buffer(buffer).initial_tokens)
    elif kind == "tokens":
        buffer = data[step[1] % len(data)]
        space = graph.buffer(f"__space_{buffer}")
        marking = graph.buffer(buffer).initial_tokens
        session.set_initial_tokens(
            buffer, marking + min(step[2], space.initial_tokens))
    elif kind == "scale":
        session.scale_task(tasks[step[1] % len(tasks)], step[2], step[3])
    elif kind == "dur":
        task = tasks[step[1] % len(tasks)]
        session.set_durations(
            task, [d + step[2] for d in graph.task(task).durations])
    else:
        buffer = data[step[1] % len(data)]
        current = graph.buffer(buffer)
        session.set_rates(
            buffer,
            production=[2 * r for r in current.production],
            consumption=[2 * r for r in current.consumption],
            initial_tokens=2 * current.initial_tokens,
        )


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BOUNDED),
       max_cells=st.sampled_from([16_000_000, 150]),
       steps=st.lists(EDIT_STEP, min_size=1, max_size=8))
@example(name="golden_rand505.json", max_cells=16_000_000,
         steps=[("cap", 0, 1), ("cap", 3, 2), ("caps", 2), ("pickle",),
                ("cap", 1, 1), ("reset",), ("cap", 2, 3)])
@example(name="golden_modem.json", max_cells=150,
         steps=[("starve", 0), ("cap", 0, 4), ("rates", 1), ("cap", 2, 1)])
def test_patched_compile_is_a_cold_compile(name, max_cells, steps):
    base = load_graph(DATA / name)
    bounded = bound_all_buffers(
        base, {b: 4 * f for b, f in floors_of(base).items()})
    session = DseSession(bounded, max_cells=max_cells)
    reference = reference_session(bounded, max_cells)
    for step in [None, *steps]:
        if step == ("pickle",):
            session = pickle.loads(pickle.dumps(session))
            reference = pickle.loads(pickle.dumps(reference))
            reference._cache = FullCache(max_cells)
        elif step is not None:
            apply_step(session, base, step)
            apply_step(reference, base, step)
        got = outcome(session)
        assert got == outcome(reference)
        assert counts(session) == counts(reference)
        assert (got and got[0]) == cold_period(session.graph)
        if got is not None:
            assert_matches_cold_compile(session, got[1])


def test_an_edit_re_derives_only_its_own_buffers():
    base = load_graph(DATA / "golden_rand505.json")
    floors = floors_of(base)
    session = DseSession(bound_all_buffers(
        base, {b: 4 * f for b, f in floors.items()}))
    K = session.solve().K
    first, second = sorted(floors)[:2]
    session.set_capacity(first, 3 * floors[first])
    assert session.solve().K == K  # and the cache keeps its assembly
    cache = session._cache
    assert cache._assemblies
    hits, misses = cache.hits, cache.misses
    session.set_capacity(second, 3 * floors[second])
    assert session.solve().K == K
    # One buffer's blocks are looked up again; every other slot of the
    # plan is a hit counted in bulk.
    assert cache.misses - misses == 1
    slots = len(cache._serialized[1].names)
    assert cache.hits - hits == slots - 1
    assert_matches_cold_compile(session, K)


def test_stale_assemblies_and_their_edit_log_are_dropped():
    base = load_graph(DATA / "golden_rand505.json")
    floors = floors_of(base)
    session = DseSession(bound_all_buffers(
        base, {b: 4 * f for b, f in floors.items()}))
    buffer = sorted(floors)[0]
    session.solve()
    cache = session._cache
    assert not cache._assemblies  # no edit yet: the memo serves repeats
    session.set_capacity(buffer, 5 * floors[buffer])
    session.solve()
    assert cache._assemblies
    slots = len(cache._serialized[1].names)
    for step in range(2 * slots + 2):  # edits, and no compile at all
        session.set_capacity(buffer, (3 + step % 2) * floors[buffer])
        assert len(cache._edited) <= slots + 1
    # Every assembly saw more edits than it has slots: each is dropped,
    # and the next compile starts cold, to the same graph.
    assert not cache._assemblies and not cache._edited
    result = session.solve()
    assert_matches_cold_compile(session, result.K)


# ----------------------------------------------------------------------
# A no-op capacity batch is a no-op
# ----------------------------------------------------------------------
def test_unchanged_capacity_batch_is_a_no_op():
    base = load_graph(DATA / "golden_rand505.json")
    capacities = {b: 4 * f for b, f in floors_of(base).items()}
    session = DseSession(bound_all_buffers(base, capacities))
    session.solve()
    session.set_capacities({b: c - 1 for b, c in capacities.items()})
    session.solve()
    edits = dict(session.edits)
    memo = dict(session._cache._compiled)
    total = sum(REGISTRY.samples("repro_session_edits_total").values())
    session.set_capacities({b: c - 1 for b, c in capacities.items()})
    assert session.edits == edits
    assert sum(REGISTRY.samples("repro_session_edits_total").values()) \
        == total
    assert session._cache._compiled == memo
    compiled_hits = session._cache.compiled_hits
    session.solve()
    assert session._cache.compiled_hits == compiled_hits + 1


def test_capacity_batch_validates_only_what_it_changes():
    base = load_graph(DATA / "golden_rand505.json")
    capacities = {b: 4 * f for b, f in floors_of(base).items()}
    session = DseSession(bound_all_buffers(base, capacities))
    with pytest.raises(ModelError, match="unknown buffer"):
        session.set_capacities({"no_such_buffer": 3})
    buffer = sorted(capacities)[0]
    marking = session.graph.buffer(buffer).initial_tokens
    with pytest.raises(ModelError, match="below its initial marking"):
        session.set_capacities({buffer: marking - 1})
    session.set_capacities({buffer: capacities[buffer] + 1})
    space = session.graph.buffer(f"__space_{buffer}")
    assert marking + space.initial_tokens == capacities[buffer] + 1


# ----------------------------------------------------------------------
# The shared-pair-only merge is the full merge
# ----------------------------------------------------------------------
@st.composite
def candidate_arcs(draw):
    """Arcs of several buffers over a few tasks; a buffer's phase pairs
    are unique, so only buffers sharing a task pair can be parallel."""
    tasks = draw(st.integers(1, 4))
    phases = [draw(st.integers(1, 3)) for _ in range(tasks)]
    starts = np.concatenate(([0], np.cumsum(phases)))
    rows = []
    pairs = []
    for _ in range(draw(st.integers(1, 7))):
        source = draw(st.integers(0, tasks - 1))
        target = draw(st.integers(0, tasks - 1))
        cells = [(p, q) for p in range(phases[source])
                 for q in range(phases[target])]
        chosen = draw(st.lists(st.sampled_from(cells), unique=True,
                               min_size=1, max_size=len(cells)))
        den = draw(st.integers(1, 12))
        for p, q in chosen:
            src = int(starts[source]) + p
            rows.append((src, int(starts[target]) + q, 3 * src + 1,
                         draw(st.integers(-20, 20)), den))
            pairs.append((source, target))
    shared = [pairs.count(pair) > 1 for pair in pairs]
    arrays = [np.asarray(column, dtype=np.int64) for column in zip(*rows)]
    return arrays, int(starts[-1]), np.flatnonzero(shared)


def rationals(merged):
    srcs, dsts, costs, betas, denoms = merged
    return (srcs.tolist(), dsts.tolist(), costs.tolist(),
            [Fraction(int(b), int(d)) for b, d in zip(betas, denoms)])


@settings(max_examples=200, deadline=None)
@given(case=candidate_arcs())
def test_shared_pair_merge_is_the_full_merge(case):
    arrays, nodes, shared = case
    full = merge_parallel_candidates(*arrays, nodes)
    only = merge_parallel_candidates(*arrays, nodes, only=shared)
    assert rationals(only) == rationals(full)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(1, 1 << 40), min_size=1, max_size=12))
def test_int64_lcm_is_exact_or_refuses(values):
    exact = lcm_list(values)
    got = int64_lcm(np.asarray(values, dtype=np.int64))
    assert got == (exact if exact < 1 << 63 else None)


@pytest.mark.parametrize("index", range(len(corpus_graph_dicts())))
def test_corpus_compiles_match_the_legacy_build(index):
    """At each corpus graph's final K, the direct compile (merge over
    shared task pairs only) is the legacy build (merge over every arc,
    in Fractions)."""
    graph = CsdfGraph.from_dict(corpus_graph_dicts()[index])
    try:
        K = throughput_kiter(graph).K
    except DeadlockError:
        pytest.skip("deadlocked corpus graph")
    q_tilde = expanded_repetition_vector(repetition_vector(graph), K)
    got = compile_expansion(graph, K, q_tilde, cache=ExpansionBlockCache())
    assert got is not None
    legacy, _ = build_constraint_graph(
        expand_graph(graph, K), q_tilde)
    ref, direct = legacy.compile(), got[0].compile()
    assert (direct.scale, direct.src, direct.dst, direct.cost,
            direct.transit) == (ref.scale, ref.src, ref.dst, ref.cost,
                                ref.transit)
    assert list(got[0].labels) == list(legacy.labels)
