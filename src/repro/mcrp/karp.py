"""Karp's algorithm: exact maximum cycle mean, and ratio engines on top.

Karp's theorem, for arc weights ``w`` over a graph with a virtual source
connected to all nodes at cost 0:

    ``μ* = max_v min_{0 ≤ k < n} (D_n(v) − D_k(v)) / (n − k)``

with ``D_k(v)`` the maximum ``w``-value of a ``k``-arc walk ending at
``v`` (``−∞`` when none exists). The implementation is exact
(integer/Fraction arithmetic), recovers a critical cycle from the
``D_n`` predecessor walk, and runs in Θ(nm).

Two table implementations share the contract:

* a **numpy-vectorized table** (:func:`_best_mean_cycle_numpy`) over the
  compiled core's destination-sorted arc arrays — one
  ``maximum.reduceat`` per table row, int64 throughout, engaged whenever
  the weights provably fit the 64-bit fast path. The Karp *selection*
  (the max–min over table entries) stays exact by comparing the
  candidate means ``num/den`` with integer cross-multiplication, never
  floats, so the vectorized table returns bit-identical ``Fraction``
  results;
* the **pure-Python reference table** (:func:`_best_mean_cycle_python`),
  which also serves as the arbitrary-precision fallback when the scaled
  weights overflow the int64 gate (or numpy is absent).

Three consumers share the core:

* :func:`max_cycle_mean` — the classical maximum cycle *mean* (unit
  transit times), used by the HSDF expansion baseline; it runs the
  table on the compiled integer-scaled costs, so it vectorizes too;
* the ``karp`` registry engine :func:`max_cycle_ratio_karp` — the
  general bi-valued MCRP solved by ascending ratio iteration whose
  positive-cycle oracle is a Karp table over the parametric weights
  ``b·L − a·H`` (the maximum cycle mean is positive iff some cycle is
  positive, and the recovered critical-mean cycle *is* such a cycle);
* :func:`_karp_python_oracle` — the same oracle pinned to the
  pure-Python table; ``max_cycle_ratio(graph,
  oracle=_karp_python_oracle)`` is the reference row the vectorization
  claim is benchmarked against (`benchmarks/bench_mcrp_engines.py`).

Examples
--------
>>> from repro.mcrp.graph import BiValuedGraph
>>> g = BiValuedGraph(3)
>>> _ = g.add_arc(0, 1, 4, 1)
>>> _ = g.add_arc(1, 0, 2, 1)   # cycle 0↔1: mean (4+2)/2 = 3
>>> _ = g.add_arc(2, 2, 1, 1)   # self-loop at 2: mean 1
>>> max_cycle_mean(g).ratio
Fraction(3, 1)
>>> max_cycle_ratio_karp(g).ratio     # ratio = mean here (unit transits)
Fraction(3, 1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

try:  # optional vectorized table
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in CI
    _np = None

from repro.exceptions import SolverError
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.registry import register_engine

#: Below this node count the numpy table's array set-up costs more than
#: the pure-Python loop it replaces.
_MIN_VECTOR_NODES = 64
#: Hard cap on the vectorized table footprint (D + predecessor tables,
#: int64): beyond it the pure-Python table runs instead of thrashing.
_MAX_TABLE_BYTES = 512 * 1024 * 1024
#: −∞ sentinel of the int64 table; real D values stay within ±2^61 by
#: the weight gate, so the sentinel is unambiguous and ``NEG + w`` can
#: never wrap around int64.
_NEG = -(1 << 62)
_NEG_HALF = -(1 << 61)


def max_cycle_mean(graph: BiValuedGraph) -> CycleResult:
    """Maximum mean-cost cycle of ``graph`` (transit values are ignored).

    Returns ``ratio=None`` for acyclic graphs. The certificate cycle's
    *mean* equals the returned ratio (``Σ L / cycle length``).

    The table runs on the compiled integer-scaled costs (vectorized
    when the int64 gate passes), and the mean is mapped back through
    the compile scale, so fractional costs stay exact.
    """
    n = graph.node_count
    if n == 0 or graph.arc_count == 0:
        return CycleResult(ratio=None)
    compiled = graph.compile()
    mean, cycle_arcs = _best_mean_cycle(
        compiled, compiled.cost, compiled.max_abs_cost
    )
    if mean is None:
        return CycleResult(ratio=None)
    return CycleResult(
        ratio=mean / compiled.scale,
        cycle_arcs=cycle_arcs,
        cycle_nodes=[graph.arc_src[a] for a in cycle_arcs],
        iterations=n,
    )


def _vector_gate(compiled, weight_bound: int) -> bool:
    """True when the int64 numpy table is provably safe and worthwhile.

    ``weight_bound`` is an upper bound on ``|w|`` per arc. The gate
    guarantees (a) every table entry — a ≤n-arc walk sum — and the
    sentinel arithmetic stay inside int64, and (b) the exact selection's
    cross products ``|D_n − D_k| · (n − k) ≤ 2·n²·max|w|`` do too.
    """
    n = compiled.node_count
    if _np is None or n < _MIN_VECTOR_NODES or compiled.arc_count == 0:
        return False
    if (n + 1) * n * 16 > _MAX_TABLE_BYTES:
        return False
    bound = max(1, weight_bound)
    return 2 * n * n * bound < (1 << 62) and compiled.ensure_numpy()


def _best_mean_cycle(
    compiled,
    weights: Sequence[int],
    weight_bound: int,
) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """Karp table over integer arc ``weights``, dispatching on the gate.

    Returns ``(best mean, critical cycle arcs)`` or ``(None, None)``
    when the graph is acyclic. Both table implementations are exact;
    the dispatch can only affect speed.
    """
    if _vector_gate(compiled, weight_bound):
        return _best_mean_cycle_numpy(compiled, weights)
    return _best_mean_cycle_python(compiled, weights)


# ----------------------------------------------------------------------
# pure-Python reference table
# ----------------------------------------------------------------------
def _best_mean_cycle_python(
    compiled,
    weights: Sequence,
) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """The reference Θ(nm) Karp table (arbitrary-precision integers)."""
    n = compiled.node_count
    out_arcs = compiled.out_arcs
    arc_dst = compiled.dst
    NEG = None  # sentinel for -infinity

    # D[k][v]: best k-arc walk value ending at v; pred[k][v]: arc used.
    prev: List = [0] * n
    table: List[List] = [prev]
    preds: List[List[Optional[int]]] = [[None] * n]
    for _ in range(n):
        cur: List = [NEG] * n
        pred_row: List[Optional[int]] = [None] * n
        for u in range(n):
            du = prev[u]
            if du is NEG:
                continue
            for arc in out_arcs[u]:
                v = arc_dst[arc]
                cand = du + weights[arc]
                if cur[v] is NEG or cand > cur[v]:
                    cur[v] = cand
                    pred_row[v] = arc
        table.append(cur)
        preds.append(pred_row)
        prev = cur

    best_mean: Optional[Fraction] = None
    best_node: Optional[int] = None
    d_n = table[n]
    for v in range(n):
        if d_n[v] is NEG:
            continue
        worst: Optional[Fraction] = None
        for k in range(n):
            if table[k][v] is NEG:
                continue
            mean = Fraction(d_n[v] - table[k][v], n - k)
            if worst is None or mean < worst:
                worst = mean
        if worst is not None and (best_mean is None or worst > best_mean):
            best_mean = worst
            best_node = v
    if best_mean is None:
        return None, None
    cycle = _recover_cycle(
        n, preds, compiled.src, compiled.dst, weights, best_node, best_mean
    )
    return best_mean, cycle


# ----------------------------------------------------------------------
# vectorized table
# ----------------------------------------------------------------------
def _best_mean_cycle_numpy(
    compiled,
    weights: Sequence[int],
) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """The Karp table as n ``maximum.reduceat`` sweeps over int64 arrays.

    Each row update reduces the candidate values ``D_{k-1}(src) + w``
    over the destination-sorted arc segments the compiled core
    precomputes; unreachable entries carry the ``_NEG`` sentinel. The
    max–min selection compares candidate means exactly by integer
    cross-multiplication (denominators ``n − k`` are positive), so the
    result is the same ``Fraction`` the reference table returns —
    the caller's gate has already proven every product fits int64.
    """
    n = compiled.node_count
    m = compiled.arc_count
    w = _np.asarray(weights, dtype=_np.int64)
    w_s = w[compiled.dst_order]
    src_s = compiled.src_sorted
    arc_ids = compiled.arc_ids_sorted
    dst_unique = compiled.dst_unique
    seg_starts = compiled.seg_starts
    seg_sizes = compiled.seg_sizes
    positions = _np.arange(m, dtype=_np.int64)

    table = _np.full((n + 1, n), _NEG, dtype=_np.int64)
    preds = _np.full((n + 1, n), -1, dtype=_np.int64)
    table[0] = 0
    prev = table[0]
    for k in range(1, n + 1):
        du = prev[src_s]
        cand = _np.where(du <= _NEG_HALF, _NEG, du + w_s)
        seg_best = _np.maximum.reduceat(cand, seg_starts)
        valid = seg_best > _NEG_HALF
        if not valid.any():
            break  # every walk died out: all later rows stay -inf
        touched = dst_unique[valid]
        row = table[k]
        row[touched] = seg_best[valid]
        # predecessor: the first arc achieving each segment's max
        best_rep = _np.repeat(seg_best, seg_sizes)
        hit = _np.where(cand == best_rep, positions, m)
        first = _np.minimum.reduceat(hit, seg_starts)
        preds[k][touched] = arc_ids[first[valid]]
        prev = row

    d_n = table[n]
    alive = d_n > _NEG_HALF
    if not alive.any():
        return None, None

    # Per node v: min over k of (D_n(v) − D_k(v)) / (n − k), exactly.
    # Row k = 0 is finite everywhere, so every alive v has a candidate.
    worst_num = d_n.copy()
    worst_den = _np.full(n, n, dtype=_np.int64)
    for k in range(1, n):
        row = table[k]
        finite = row > _NEG_HALF
        if not finite.any():
            break  # rows only ever lose reachability as k grows
        num = _np.where(finite, d_n - row, 0)
        den = n - k
        better = finite & (num * worst_den < worst_num * den)
        worst_num = _np.where(better, num, worst_num)
        worst_den = _np.where(better, den, worst_den)

    # max over v (exact cross-multiplied comparison, plain ints)
    best_node = -1
    best_num, best_den = 0, 1
    for v in _np.nonzero(alive)[0]:
        num, den = int(worst_num[v]), int(worst_den[v])
        if best_node < 0 or num * best_den > best_num * den:
            best_num, best_den, best_node = num, den, int(v)
    best_mean = Fraction(best_num, best_den)
    cycle = _recover_cycle(
        n, preds, compiled.src, compiled.dst, weights, best_node, best_mean
    )
    return best_mean, cycle


def _recover_cycle(
    n: int,
    preds,
    arc_src: Sequence[int],
    arc_dst: Sequence[int],
    weights: Sequence,
    end_node: int,
    target_mean: Fraction,
) -> List[int]:
    """Extract a cycle of mean ``target_mean`` from the critical n-arc walk.

    The walk has n arcs over n nodes, so it contains cycles; Karp's
    argument guarantees *some* cycle on it is critical. Non-critical
    cycles found along the way are contracted out of the walk and the scan
    continues on the shortened walk. ``preds`` is indexed ``preds[k][v]``
    and may be the reference table (``None`` = no arc) or the numpy
    table (``-1`` = no arc).
    """
    walk_arcs: List[int] = []
    node = end_node
    for k in range(n, 0, -1):
        raw = preds[k][node]
        arc = -1 if raw is None else int(raw)
        assert arc >= 0
        walk_arcs.append(arc)
        node = arc_src[arc]
    walk_arcs.reverse()  # forward order, starting from the walk's origin

    # stack of (node, incoming arc) pairs; position index per node.
    position = {node: 0}
    stack_nodes: List[int] = [node]
    stack_arcs: List[Optional[int]] = [None]
    for arc in walk_arcs:
        cursor = arc_dst[arc]
        if cursor in position:
            start = position[cursor]
            segment = [a for a in stack_arcs[start + 1:] if a is not None]
            segment.append(arc)
            total = sum(weights[a] for a in segment)
            if Fraction(total, len(segment)) == target_mean:
                return segment
            # Contract the non-critical cycle and keep scanning.
            for dropped in stack_nodes[start + 1:]:
                del position[dropped]
            del stack_nodes[start + 1:]
            del stack_arcs[start + 1:]
        else:
            position[cursor] = len(stack_nodes)
            stack_nodes.append(cursor)
            stack_arcs.append(arc)
    raise SolverError(  # pragma: no cover - contradicts Karp's theorem
        "critical walk contained no cycle of critical mean"
    )


# ----------------------------------------------------------------------
def _karp_oracle(scaled, lam_num: int, lam_den: int) -> Optional[List[int]]:
    """Positive-cycle oracle backed by the dispatching Karp table.

    A cycle with positive parametric weight exists iff the maximum cycle
    mean of those weights is positive, and the recovered critical-mean
    cycle realizes it.
    """
    compiled = scaled.compiled
    weights = compiled.parametric_weights(lam_num, lam_den)
    mean, cycle = _best_mean_cycle(
        compiled, weights,
        compiled.parametric_weight_bound(lam_num, lam_den),
    )
    if mean is None or mean <= 0:
        return None
    return cycle


def _karp_python_oracle(
    scaled, lam_num: int, lam_den: int
) -> Optional[List[int]]:
    """The same oracle pinned to the pure-Python reference table."""
    compiled = scaled.compiled
    weights = compiled.parametric_weights(lam_num, lam_den)
    mean, cycle = _best_mean_cycle_python(compiled, weights)
    if mean is None or mean <= 0:
        return None
    return cycle


@register_engine(
    "karp",
    summary="ascending iteration on a vectorized Karp-table oracle "
            "(Θ(nm) per probe as one reduceat sweep per table row; "
            "cycle-mean core shared with the HSDF baseline)",
)
def max_cycle_ratio_karp(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
    start=None,
) -> CycleResult:
    """Exact maximum cycle ratio with Karp tables as the oracle.

    Same contract as :func:`repro.mcrp.max_cycle_ratio` — exact ``λ*``,
    critical-circuit certificate, ``DeadlockError`` on infeasible
    cycles. The table is numpy-vectorized when the scaled weights fit
    the int64 gate (and falls back to the arbitrary-precision reference
    otherwise), but each probe still materializes a Θ(n²) table, so the
    benchmark drivers keep it off instances where the linear-memory
    engines win. A ``start`` hint is accepted and ignored: a Karp table
    has no start vector.
    """
    from repro.mcrp.ratio_iteration import max_cycle_ratio

    return max_cycle_ratio(graph, lower_bound=lower_bound,
                           oracle=_karp_oracle)
