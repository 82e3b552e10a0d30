"""The one-SCC fast path of the decomposed MCRP solve.

Constraint graphs of bounded CSDF graphs are one strongly connected
component, so :func:`repro.mcrp.decompose.strongly_connected_node_sets`
first tries a numpy certificate (a forward and a backward BFS from
node 0) and :func:`repro.mcrp.decompose._subgraph` solves the certified
component in place. These tests hold the certificate to Tarjan's
answer, the in-place solve to the sliced copy it replaces, the solve
path to building no list form of an array-built graph, and the block
cache's per-buffer key index to the scan it replaces.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import REFERENCE_ENGINES

from repro.analysis.consistency import repetition_vector
from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.exceptions import DeadlockError
from repro.io import load_graph
from repro.kperiodic.expansion import (
    ArcBlock,
    ExpansionBlockCache,
    compile_expansion,
    expanded_repetition_vector,
)
from repro.mcrp import bellman, decompose
from repro.mcrp.compiled import CompiledGraph
from repro.mcrp.graph import BiValuedGraph, FrozenBiValuedGraph
from repro.mcrp.registry import all_engines

np = pytest.importorskip("numpy")

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = [entry["file"] for entry in
          json.loads((DATA / "golden_index.json").read_text())]
THRESHOLD = decompose._MIN_CERTIFICATE_NODES
#: name → solve callable: the registered engines and the reference
#: solvers of ``oracles.py``.
SOLVERS = {info.name: info.solve for info in all_engines()}
SOLVERS.update({name: solve for name, (solve, _) in REFERENCE_ENGINES.items()})


# ----------------------------------------------------------------------
# The certificate against Tarjan
# ----------------------------------------------------------------------
@st.composite
def digraphs(draw):
    """Digraphs of one of four shapes, on both sides of the threshold."""
    n = draw(st.one_of(st.integers(1, THRESHOLD - 1),
                       st.integers(THRESHOLD, THRESHOLD + 80)))
    shape = draw(st.sampled_from(
        ["strong", "random", "self-loops", "isolated", "one-way"]))
    rng = draw(st.randoms(use_true_random=False))
    arcs = []
    if shape == "strong":
        order = list(range(n))
        rng.shuffle(order)
        arcs += list(zip(order, order[1:] + order[:1]))
    if shape in ("strong", "random"):
        arcs += [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randrange(2 * n + 1))]
    if shape == "self-loops":
        arcs += [(v, v) for v in range(n) if rng.random() < 0.5]
    if shape == "isolated" and n > 1:
        # a strongly connected core plus nodes no arc touches
        core = list(range(rng.randrange(1, n)))
        arcs += list(zip(core, core[1:] + core[:1]))
    if shape == "one-way":
        # rings chained by one-way arcs: node 0 reaches every node and
        # every node has an in-arc, yet only the backward BFS fails
        cuts = sorted(rng.sample(range(1, n), min(n - 1, 2)))
        bounds = [0] + cuts + [n]
        for lo, hi in zip(bounds, bounds[1:]):
            ring = list(range(lo, hi))
            arcs += list(zip(ring, ring[1:] + ring[:1]))
            arcs += [(rng.randrange(lo, hi), rng.randrange(lo, hi))
                     for _ in range(2 * (hi - lo))]
            if hi < n:
                arcs.append((rng.randrange(lo, hi), hi))
    array_built = draw(st.booleans())
    return n, arcs, array_built


def _build(n, arcs, array_built):
    if array_built and arcs:
        src, dst = zip(*arcs)
        ones = np.ones(len(arcs), dtype=np.int64)
        return FrozenBiValuedGraph(CompiledGraph.from_int64_arrays(
            node_count=n, labels=list(range(n)), src=src, dst=dst,
            scale=1, cost=ones, transit=ones))
    graph = BiValuedGraph(n)
    for s, d in arcs:
        graph.add_arc(s, d, 1, 1)
    return graph


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_certificate_matches_tarjan(case):
    graph = _build(*case)
    components = decompose.strongly_connected_node_sets(graph)
    tarjan = decompose._tarjan(graph.compile())
    assert {frozenset(c) for c in components} == {
        frozenset(c) for c in tarjan}
    assert sum(len(c) for c in components) == graph.node_count
    certified = components == [range(graph.node_count)]
    if certified:
        assert graph.node_count >= THRESHOLD
    elif graph.node_count >= THRESHOLD and len(tarjan) == 1:
        # only a search longer than the level cap goes uncertified
        n, arcs, _ = case
        assert max(_depth(n, arcs), _depth(n, [(d, s) for s, d in arcs])) > (
            decompose._MAX_CERTIFICATE_LEVELS)


def _depth(n, arcs):
    """BFS levels from node 0 until every node is reached."""
    out = [[] for _ in range(n)]
    for s, d in arcs:
        out[s].append(d)
    level = {0: 0}
    frontier = [0]
    while frontier:
        reached = []
        for v in frontier:
            for d in out[v]:
                if d not in level:
                    level[d] = level[v] + 1
                    reached.append(d)
        frontier = reached
    return max(level.values())


def test_certificate_handles_sinks_and_sources():
    n = 12
    ring = [(v, (v + 1) % n) for v in range(n - 1)]  # n-1 has no out-arc
    assert not decompose._strongly_connected(_build(n, ring, True).compile())
    back = ring + [(n - 1, 0)]
    assert decompose._strongly_connected(_build(n, back, True).compile())
    # two rings, every node with an in-arc: joined one way, node 0
    # reaches half the graph (forward BFS fails) or all of it while
    # the other half cannot reach back (backward BFS fails)
    half = n // 2
    two_rings = ([(v, (v + 1) % half) for v in range(half)]
                 + [(half + v, half + (v + 1) % (n - half))
                    for v in range(n - half)])
    for bridge in ((half, 0), (0, half)):
        assert not decompose._strongly_connected(
            _build(n, two_rings + [bridge], False).compile())
    assert decompose._strongly_connected(
        _build(n, two_rings + [(half, 0), (0, half)], False).compile())


def test_certificate_leaves_long_diameter_graphs_to_tarjan():
    n = decompose._MAX_CERTIFICATE_LEVELS + 2
    ring = _build(n, [(v, (v + 1) % n) for v in range(n)], True)
    assert not decompose._strongly_connected(ring.compile())
    (component,) = decompose.strongly_connected_node_sets(ring)
    assert sorted(component) == list(range(n))


# ----------------------------------------------------------------------
# The in-place solve against the sliced copy, on the golden corpus
# ----------------------------------------------------------------------
def _constraint_graphs():
    """One-SCC constraint graphs of the bounded golden graphs (K = 1)."""
    graphs = []
    for name in GOLDEN:
        graph = load_graph(DATA / name)
        caps = {b.name: 2 * minimal_buffer_capacity(b)
                for b in graph.buffers() if not b.is_self_loop()}
        bounded = bound_all_buffers(graph, caps)
        q = repetition_vector(bounded)
        K = {task: 1 for task in q}
        bi, _space = compile_expansion(
            bounded, K, expanded_repetition_vector(q, K))
        graphs.append((name, bi))
    return graphs


def _verified(graph, cycle_arcs, ratio):
    graph.check_cycle(cycle_arcs)
    cost, transit = graph.cycle_values(cycle_arcs)
    assert cost / transit == ratio


@pytest.mark.parametrize("engine", sorted(SOLVERS))
def test_in_place_solve_matches_the_sliced_copy(engine, monkeypatch):
    in_place = 0
    for name, bi in _constraint_graphs():
        outcomes = []
        for threshold in (THRESHOLD, 1 << 62):  # certificate on, then off
            monkeypatch.setattr(decompose, "_MIN_CERTIFICATE_NODES",
                                threshold)
            components = decompose.strongly_connected_node_sets(bi)
            in_place += components == [range(bi.node_count)]
            try:
                result = decompose.max_cycle_ratio_sccs(
                    bi, engine=SOLVERS[engine])
            except DeadlockError as exc:
                cycle = exc.cycle_nodes
                assert len(set(cycle)) == len(cycle)
                outcomes.append("deadlock")
                continue
            _verified(bi, result.cycle_arcs, result.ratio)
            assert result.cycle_nodes == [
                bi.arc_src[a] for a in result.cycle_arcs]
            outcomes.append(result.ratio)
        assert outcomes[0] == outcomes[1], name
    assert in_place >= 3  # the synthetic graphs take the in-place path


def test_whole_graph_component_is_the_graph_itself():
    name, bi = next(g for g in _constraint_graphs()
                    if g[0] == "golden_synthetic1.json")
    (component,) = decompose.strongly_connected_node_sets(bi)
    sub, node_map, arc_map = decompose._subgraph(bi, component)
    assert sub is bi
    assert node_map == range(bi.node_count)
    assert arc_map == range(bi.arc_count)
    # a Tarjan component in pop order is still copied and relabeled
    (popped,) = decompose._tarjan(bi.compile())
    copy, node_map, _ = decompose._subgraph(bi, popped)
    assert copy is not bi and list(node_map) == popped


# ----------------------------------------------------------------------
# No list forms on the numpy solve path
# ----------------------------------------------------------------------
@pytest.fixture
def stray_list_forms(monkeypatch):
    """List forms derived by a graph the pure-Python oracle never ran on.

    The exact queue-based oracle (graphs under 64 nodes, or where the
    Jacobi sweep declined) walks the lists by design; every other list
    form a compiled graph derives is work the numpy path did not need.
    """
    builds = []
    python_oracle = []
    derive = CompiledGraph.__getattr__
    queue_oracle = bellman._find_positive_weight_cycle_python

    def spy(self, name):
        value = derive(self, name)
        builds.append((name, self))
        return value

    def oracle(scaled, weights):
        python_oracle.append(scaled.compiled)
        return queue_oracle(scaled, weights)

    monkeypatch.setattr(CompiledGraph, "__getattr__", spy)
    monkeypatch.setattr(bellman, "_find_positive_weight_cycle_python", oracle)

    def stray():
        seen = {id(compiled) for compiled in python_oracle}
        return [(name, compiled.node_count) for name, compiled in builds
                if id(compiled) not in seen]

    stray.reset = builds.clear
    return stray


def test_dse_round_builds_no_list_form(stray_list_forms):
    from repro.dse import DseSession

    graph = load_graph(DATA / "golden_synthetic2.json")
    floors = {b.name: minimal_buffer_capacity(b)
              for b in graph.buffers() if not b.is_self_loop()}
    probes = [{name: scale * floor for name, floor in floors.items()}
              for scale in (20, 18, 16)]
    for name in sorted(floors)[:4]:
        probes.append(dict(probes[-1], **{name: 8 * floors[name]}))
    session = DseSession(bound_all_buffers(graph, probes[0]))
    session.solve()
    stray_list_forms.reset()  # the cold solve is not part of the round
    for caps in probes:
        session.set_capacities(caps)
        assert session.solve().period > 0
    assert stray_list_forms() == []


@pytest.mark.parametrize("engine", ["ratio-iteration", "hybrid"])
def test_golden_solves_build_no_list_form(engine, stray_list_forms):
    from repro.kperiodic.kiter import throughput_kiter

    for name in GOLDEN:
        throughput_kiter(load_graph(DATA / name), engine=engine)
    assert stray_list_forms() == []


# ----------------------------------------------------------------------
# The block cache's per-buffer key index
# ----------------------------------------------------------------------
_NAMES = ("a", "b", "c")
_KEYS = [(name, ks, kd) for name in _NAMES for ks in (1, 2) for kd in (1, 3)]

_ops = st.lists(st.one_of(
    st.tuples(st.just("record"),
              st.lists(st.sampled_from(_KEYS), max_size=4),
              st.lists(st.sampled_from(_KEYS), max_size=4),
              st.integers(1, 3)),
    st.tuples(st.just("budget"), st.integers(0, 40)),
    st.tuples(st.just("invalidate"), st.sampled_from(_NAMES)),
    st.tuples(st.just("clear"),),
), max_size=40)


def _record(cache, hit_keys, derive_keys, views):
    """A compile's record: new blocks share one base, ``views`` apart."""
    derive = [k for k in dict.fromkeys(derive_keys) if k not in cache._blocks]
    base = np.zeros((4, 2 * max(1, len(derive)) * views), dtype=np.int64)
    derived = [(key, ArcBlock(base[:, 2 * i:2 * i + 2]))
               for i, key in enumerate(derive)]
    cache.record([k for k in hit_keys if k in cache._blocks], derived)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_invalidation_index_tracks_the_cached_keys(ops):
    cache = ExpansionBlockCache(max_cells=40)
    for op in ops:
        if op[0] == "record":
            _record(cache, op[1], op[2], op[3])
        elif op[0] == "budget":
            cache.max_cells = op[1]
            cache._evict()
        elif op[0] == "invalidate":
            scanned = sum(1 for key in cache._blocks if key[0] == op[1])
            assert cache.invalidate_buffer(op[1]) == scanned
        else:
            cache.clear()
        expected = {}
        for key in cache._blocks:
            expected.setdefault(key[0], set()).add(key)
        assert cache._keys_of == expected
        assert cache.stats()["cells"] == sum(
            {id(b.base): b.base.size
             for b in cache._blocks.values()}.values())
    assert len(cache) == len(cache._blocks)
