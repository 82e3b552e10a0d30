"""SCC decomposition for the MCRP: solve per component, prune by champion.

Cycles live inside strongly connected components, so

    λ*(G) = max over SCCs C of λ*(C)

and the critical circuit of the argmax component certifies the global
value. Decomposition pays twice:

* the positive-cycle oracle stops wasting relaxations pumping distances
  through the acyclic regions between components;
* once some component certified a champion ratio λ̂, every further
  component is first *probed* with one oracle call at λ̂ — no positive
  cycle there means it cannot beat the champion (and any deadlock
  circuit, which stays positive at every λ ≥ 0 when λ̂ > 0, would have
  shown up in the probe) — so the full engine only runs where it
  matters.

The probe-skip is sound only for λ̂ > 0: at λ̂ = 0 a zero-cost
negative-transit deadlock cycle is invisible, so such components are
always solved fully.

The common case has nothing to decompose: a bounded-buffer constraint
graph is one SCC. Two numpy breadth-first searches certify that, and
the engine then solves the graph itself — no Tarjan sweep, no copy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

try:  # numpy accelerates the certificate and slicing; optional
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.exceptions import DeadlockError
from repro.mcrp.bellman import ScaledGraph, find_positive_cycle
from repro.mcrp.graph import BiValuedGraph, CycleResult, FrozenBiValuedGraph
from repro.mcrp.ratio_iteration import max_cycle_ratio

#: Below this arc count the numpy subgraph slice costs more in array
#: round-trips than the plain Python copy it replaces.
_MIN_SLICE_ARCS = 256
#: From this node count on (the oracle's own numpy threshold) a
#: strong-connectivity certificate runs before Tarjan: one forward and
#: one backward breadth-first search over the numpy arc arrays.
_MIN_CERTIFICATE_NODES = 64
#: Levels one search may take before the certificate gives up and
#: Tarjan answers: a level is one O(m) numpy sweep, so a graph of long
#: diameter must not pay more than Tarjan's one Python pass would.
#: Constraint graphs of bounded CSDF graphs need under ten.
_MAX_CERTIFICATE_LEVELS = 64


def strongly_connected_node_sets(graph: BiValuedGraph) -> List[Sequence[int]]:
    """SCCs of ``graph`` as node sequences, largest first.

    Constraint graphs of bounded CSDF graphs are mostly one SCC (the
    buffer back-arcs close every cycle), so from
    ``_MIN_CERTIFICATE_NODES`` nodes on a numpy certificate is tried
    first: when node 0 reaches every node and every node reaches node
    0, the whole graph is the one component, returned as
    ``range(n)`` — the identity component :func:`_subgraph` solves in
    place. Otherwise — or without numpy — Tarjan's sweep lists each
    component in its pop order.
    """
    compiled = graph.compile()
    n = compiled.node_count
    if n >= _MIN_CERTIFICATE_NODES and _strongly_connected(compiled):
        return [range(n)]
    return _tarjan(compiled)


def _strongly_connected(compiled) -> bool:
    """Whether node 0 reaches every node and is reached from every node.

    Forward search over the arcs ``np_src → np_dst``, then — only if
    that reached every node — backward over ``np_dst → np_src``. An
    array-built graph already holds both arrays; a list-built one gets
    them from :meth:`~repro.mcrp.compiled.CompiledGraph.ensure_numpy`,
    which the numpy oracle needs on it anyway.
    """
    if _np is None or (
        compiled.np_src is None and not compiled.ensure_numpy()
    ):
        return False
    src, dst, n = compiled.np_src, compiled.np_dst, compiled.node_count
    return _reaches_all(src, dst, n) and _reaches_all(dst, src, n)


def _reaches_all(tails, heads, n: int) -> bool:
    """Whether node 0 reaches every node along the arcs ``tails → heads``.

    One vectorized sweep per BFS level: mark the head of every arc
    whose tail is marked. Stops when every node is marked, when a level
    marks nothing new, or after ``_MAX_CERTIFICATE_LEVELS`` levels
    (then ``False``: not certified, Tarjan decides).
    """
    seen = _np.zeros(n, dtype=bool)
    seen[0] = True
    reached = 1
    for _ in range(_MAX_CERTIFICATE_LEVELS):
        seen[heads[seen[tails]]] = True
        now = int(_np.count_nonzero(seen))
        if now == n:
            return True
        if now == reached:
            return False
        reached = now
    return False


def _tarjan(compiled) -> List[List[int]]:
    """Tarjan SCCs over the compiled CSR arrays (iterative), largest first.

    Children are read from ``indptr`` plus the destination of every
    CSR position, taken from the int64 mirrors when they exist: the
    sweep builds no list form of an array-built graph.
    """
    n = compiled.node_count
    indptr = compiled.indptr
    child_at = _csr_destinations(compiled)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [0]
    for root in range(n):
        if index[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, indptr[root])]
        while work:
            node, pos = work[-1]
            if pos == indptr[node]:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            end = indptr[node + 1]
            advanced = False
            while pos < end:
                child = child_at[pos]
                pos += 1
                if index[child] == -1:
                    work[-1] = (node, pos)
                    work.append((child, indptr[child]))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    components.sort(key=len, reverse=True)
    return components


def _csr_destinations(compiled) -> List[int]:
    """``dst[csr_arcs[p]]`` for every CSR position ``p``."""
    if compiled.np_dst is not None:
        csr = _np.frombuffer(compiled.csr_arcs, dtype=_np.int64)
        return compiled.np_dst[csr].tolist()
    dst = compiled.dst
    return [dst[arc] for arc in compiled.csr_arcs]


def _subgraph(
    graph: BiValuedGraph, nodes: Sequence[int]
) -> Tuple[BiValuedGraph, Sequence[int], Sequence[int]]:
    """Induced subgraph + (local→global node map, local→global arc map).

    The identity component ``range(n)`` is the graph itself: it is
    solved in place, with identity maps and no copy. Any other node
    sequence — a Tarjan component lists its nodes in pop order, even
    one spanning the whole graph — is copied, relabeled in that order.
    """
    compiled = graph.compile()
    if nodes == range(compiled.node_count):
        return graph, nodes, range(compiled.arc_count)
    sliced = _subgraph_compiled(compiled, graph, nodes)
    if sliced is not None:
        return sliced
    indptr = compiled.indptr
    child_at = _csr_destinations(compiled)
    local_of = {g: l for l, g in enumerate(nodes)}
    sub = BiValuedGraph(len(nodes), labels=[graph.labels[g] for g in nodes])
    arc_map: List[int] = []
    srcs: List[int] = []
    dsts: List[int] = []
    for g_node in nodes:
        src_local = local_of[g_node]
        for pos in range(indptr[g_node], indptr[g_node + 1]):
            dst_local = local_of.get(child_at[pos])
            if dst_local is not None:
                srcs.append(src_local)
                dsts.append(dst_local)
                arc_map.append(compiled.csr_arcs[pos])
    if compiled.np_cost is not None:
        # read the int64 mirrors: an array-built graph keeps no lists
        scale = compiled.scale
        costs = [Fraction(c, scale)
                 for c in compiled.np_cost[arc_map].tolist()]
        transits = [Fraction(t, scale)
                    for t in compiled.np_transit[arc_map].tolist()]
    else:
        costs = [graph.arc_cost[arc] for arc in arc_map]
        transits = [graph.arc_transit[arc] for arc in arc_map]
    sub.extend_arcs(srcs, dsts, costs, transits)
    return sub, nodes, arc_map


def _subgraph_compiled(compiled, graph, nodes):
    """Fraction-free subgraph slice over the compiled int64 mirrors.

    Slices the parent's scaled integer arrays directly into a
    :meth:`~repro.mcrp.compiled.CompiledGraph.from_int64_arrays`-built
    compiled form wrapped in a
    :class:`~repro.mcrp.graph.FrozenBiValuedGraph` — no per-arc
    ``Fraction`` round trip, which on one-big-SCC constraint graphs
    (the typical shape: serialization loops connect every task's
    phases) used to re-materialize nearly every arc. The parent's scale
    is kept (possibly non-minimal for the component — cycle ratios are
    invariant under common scaling). Arc order matches the Python
    path: concatenated CSR out-slices in ``nodes`` order. Returns
    ``None`` when numpy/the int64 mirrors are unavailable or the graph
    is too small to pay for the array round-trips.
    """
    if (
        _np is None
        or compiled.arc_count < _MIN_SLICE_ARCS
        or not compiled.ensure_numpy()
        or compiled.np_cost is None
    ):
        return None
    node_arr = _np.asarray(nodes, dtype=_np.int64)
    local = _np.full(compiled.node_count, -1, dtype=_np.int64)
    local[node_arr] = _np.arange(node_arr.shape[0], dtype=_np.int64)
    indptr = compiled.np_indptr
    csr = compiled.np_csr_arcs
    candidates = _np.concatenate(
        [csr[indptr[g]:indptr[g + 1]] for g in nodes]
    ) if nodes else _np.empty(0, dtype=_np.int64)
    arcs = candidates[local[compiled.np_dst[candidates]] >= 0]
    sub_compiled = compiled.from_int64_arrays(
        node_count=node_arr.shape[0],
        labels=[graph.labels[g] for g in nodes],
        src=local[compiled.np_src[arcs]],
        dst=local[compiled.np_dst[arcs]],
        scale=compiled.scale,
        cost=compiled.np_cost[arcs],
        transit=compiled.np_transit[arcs],
    )
    return FrozenBiValuedGraph(sub_compiled), list(nodes), arcs.tolist()


def max_cycle_ratio_sccs(
    graph: BiValuedGraph,
    *,
    engine: Callable[..., CycleResult] = max_cycle_ratio,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """λ* by per-SCC solving with champion pruning.

    Same contract as :func:`repro.mcrp.max_cycle_ratio`; node/arc ids of
    the returned circuit refer to the *input* graph. ``engine`` is an
    engine's solve callable. ``lower_bound`` (certified) seeds the
    champion used for probe pruning and warm-starts each component's
    engine call.
    """
    components = strongly_connected_node_sets(graph)
    if components and len(components[-1]) == 1:  # cyclic iff self-arc
        looped = _self_arc_nodes(graph.compile())
        components = [c for c in components if len(c) > 1 or c[0] in looped]
    if not components:
        return CycleResult(ratio=None)

    best: Optional[CycleResult] = None
    champion: Optional[Fraction] = lower_bound
    iterations = 0

    def solve_component(nodes: List[int]) -> None:
        nonlocal best, champion, iterations
        sub, node_map, arc_map = _subgraph(graph, nodes)
        try:
            result = engine(sub, lower_bound=champion)
        except DeadlockError as exc:
            if exc.cycle_nodes is not None:
                exc.cycle_nodes = [node_map[v] for v in exc.cycle_nodes]
            raise
        iterations += result.iterations
        if result.ratio is None:
            return
        if best is None or result.ratio > best.ratio:
            best = CycleResult(
                ratio=result.ratio,
                cycle_arcs=[arc_map[a] for a in result.cycle_arcs],
                cycle_nodes=[node_map[v] for v in result.cycle_nodes],
            )
            champion = result.ratio

    # The largest component usually holds the answer: solve it directly.
    solve_component(components[0])
    remaining = components[1:]
    component_of: Dict[int, int] = {}
    if remaining:
        for idx, nodes in enumerate(components):
            for v in nodes:
                component_of[v] = idx

    while remaining:
        if champion is None or champion <= 0:
            # no pruning possible (rare: zero/absent champion)
            solve_component(remaining.pop(0))
            continue
        # One probe over the *union* of all remaining components: no
        # positive cycle at the champion means none can beat it (and no
        # deadlock hides there either, since deadlock cycles stay
        # positive at every λ > 0).
        union_nodes = [v for nodes in remaining for v in nodes]
        sub, node_map, _arc_map = _subgraph(graph, union_nodes)
        scaled = ScaledGraph(sub)
        probe = find_positive_cycle(
            scaled, champion.numerator, champion.denominator
        )
        iterations += 1
        if probe is None:
            break
        (probe_src,) = scaled.compiled.arc_sources(probe[:1])
        hit = component_of[node_map[probe_src]]
        remaining = [
            nodes for nodes in remaining
            if component_of[nodes[0]] != hit
        ]
        solve_component(components[hit])

    if best is None:
        # components existed but none yielded a ratio above the seed —
        # only possible when a lower_bound seed pruned everything; the
        # seed is certified, yet we owe the caller a circuit: re-solve
        # the largest component without pruning.
        sub, node_map, arc_map = _subgraph(graph, components[0])
        result = engine(sub)
        if result.ratio is None:  # pragma: no cover - component has cycles
            return CycleResult(ratio=None, iterations=iterations)
        return CycleResult(
            ratio=result.ratio,
            cycle_arcs=[arc_map[a] for a in result.cycle_arcs],
            cycle_nodes=[node_map[v] for v in result.cycle_nodes],
            iterations=iterations + result.iterations,
        )
    final = best
    final.iterations = iterations
    return final


def _self_arc_nodes(compiled) -> Set[int]:
    if compiled.np_src is not None:
        src = compiled.np_src
        return set(src[src == compiled.np_dst].tolist())
    return {s for s, d in zip(compiled.src, compiled.dst) if s == d}
