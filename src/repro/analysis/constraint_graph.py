"""Build the bi-valued MCRP graph from Theorem 2's constraints.

Nodes are the first executions ``⟨t_p, 1⟩`` of every phase of every task;
each useful constraint contributes an arc ``⟨t_p,1⟩ → ⟨t'_{p'},1⟩`` valued

    ``(L, H) = (d(t_p), −β_b(p,p') / (q_t·i_b))``.

The minimum feasible period is the maximum cycle ratio of this graph
(paper §3.3), and a critical circuit certifies it.

Parallel arcs between the same node pair (several useful pairs of the same
buffer, or several buffers between the same tasks) all share the same cost
``L = d(t_p)``; only the largest ``Ω``-coefficient binds, so we merge them
keeping the arc with minimal ``H``. This typically shrinks K-expanded
constraint graphs dramatically (see the A3 ablation bench). The merge is
one vectorized ``np.lexsort`` + ``minimum.reduceat`` pass
(:func:`merge_parallel_candidates`, shared with the direct K-expansion
pipeline in :mod:`repro.kperiodic.expansion`); the historical dict-based
merge survives as the no-numpy/overflow fallback and produces the exact
same graph — first-occurrence arc order, minimal ``H`` per node pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

try:  # numpy backs the vectorized merge; optional
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.analysis.consistency import repetition_vector
from repro.analysis.precedence import (
    segmented_useful_pair_arrays,
    useful_pair_arrays,
)
from repro.mcrp.graph import BiValuedGraph
from repro.model.graph import CsdfGraph
from repro.utils.rational import lcm_list

NodeKey = Tuple[str, int]  # (task name, 1-based phase)

#: Stay well inside int64 for the rescaled β comparisons of the merge.
_MERGE_INT64_GUARD = 1 << 62


def merge_parallel_candidates(
    srcs, dsts, costs, betas, denoms, node_count, *, only=None
):
    """Vectorized min-``H`` dedupe of candidate arcs, first-occurrence order.

    Inputs are parallel int64 arrays describing candidate arcs whose
    transit is the exact rational ``H = −β/den`` (``den > 0`` per arc —
    the Theorem 2 denominator ``q_t·i_b`` of the emitting buffer).
    Among candidates sharing ``(src, dst)`` only the minimal ``H`` (the
    binding constraint) survives; the survivors keep the order in which
    their node pair first appeared in the input, and the kept cost is
    the group's shared ``L = d(t_p)`` (all candidates of a node pair
    come from the same producer phase).

    The exact cross-denominator comparison rescales every β to the lcm
    of the distinct denominators (one ``np.lexsort`` groups the pairs,
    one ``minimum.reduceat`` picks each group's minimum rescaled ``H``).
    Returns ``(srcs, dsts, costs, betas, denoms)`` — the output β/den
    pairs represent the same rationals, each kept minimum in lowest
    terms — or ``None`` when the rescaled values could overflow int64
    (the caller then falls back to the exact dict merge).

    ``only`` (an index array, ascending) restricts the pass to those
    arcs: the caller vouches that no other arc shares its node pair with
    any arc — as for the arcs of buffers joining no task pair another
    buffer joins — so the others pass through unchanged, in place. The
    result is the same arcs, in the same order, with the same
    rationals, as the pass over every arc; only the lcm, and so the
    int64 gate, spans fewer denominators.
    """
    if only is None:
        merged = _merge_groups(srcs, dsts, betas, denoms, node_count)
        if merged is None:
            return None
        firsts, min_betas, min_denoms = merged
        return (
            srcs[firsts], dsts[firsts], costs[firsts], min_betas, min_denoms
        )
    merged = _merge_groups(
        srcs[only], dsts[only], betas[only], denoms[only], node_count
    )
    if merged is None:
        return None
    firsts, min_betas, min_denoms = merged
    survivors = only[firsts]
    keep = _np.ones(srcs.shape[0], dtype=bool)
    keep[only] = False
    keep[survivors] = True
    betas = betas.copy()
    denoms = denoms.copy()
    betas[survivors] = min_betas
    denoms[survivors] = min_denoms
    return srcs[keep], dsts[keep], costs[keep], betas[keep], denoms[keep]


def int64_lcm(values) -> Optional[int]:
    """The lcm of an array of positive int64 values, ``None`` past int64.

    A few values take the exact Python-int lcm: numpy's per-call cost
    would dominate. Otherwise one sort finds the distinct values and
    ``np.lcm`` reduces them in int64. Every partial lcm divides the true
    one, so nothing overflows when the true lcm fits; when it does not,
    no positive common multiple fits either, so an overflowed result
    fails the closing divisibility check.
    """
    if values.shape[0] <= 64:
        total = lcm_list(set(values.tolist()))
        return total if total < 1 << 63 else None
    ordered = _np.sort(values)
    distinct = ordered[_np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    total = _np.lcm.reduce(distinct)
    if total <= 0 or (total % distinct).any():
        return None
    return int(total)


def _merge_groups(srcs, dsts, betas, denoms, node_count):
    """``(firsts, β, den)`` of the merge, or ``None`` past int64.

    ``firsts`` are the ascending input indices of each node pair's first
    occurrence; ``β / den``, in lowest terms, is that pair's minimal
    ``H``, negated.
    """
    m = int(srcs.shape[0])
    if m == 0:
        return _np.empty(0, dtype=_np.int64), betas[:0], denoms[:0]
    common = int64_lcm(denoms)
    if common is None or common >= _MERGE_INT64_GUARD:
        return None
    factors = common // denoms  # int64: common < 2**62, denoms ≥ 1
    max_beta = int(_np.abs(betas).max())
    max_factor = int(factors.max())
    if max_beta and max_beta * max_factor >= _MERGE_INT64_GUARD:
        return None
    # H·common = −β·(common/den): minimize H ⇔ minimize the rescaled value.
    scaled_h = -(betas * factors)
    key = srcs * _np.int64(node_count) + dsts
    order = _np.lexsort((key,))  # stable: ties keep input order
    key_sorted = key[order]
    group_starts = _np.flatnonzero(
        _np.concatenate(([True], key_sorted[1:] != key_sorted[:-1]))
    )
    min_h = _np.minimum.reduceat(scaled_h[order], group_starts)
    # Stable sort ⇒ the first element of each group slice carries the
    # smallest original index: that is the node pair's first occurrence.
    firsts = order[group_starts]
    emit = _np.argsort(firsts, kind="stable")
    min_betas = -min_h[emit]
    g = _np.gcd(min_betas, common)
    return firsts[emit], min_betas // g, common // g


def build_constraint_graph(
    graph: CsdfGraph,
    repetition: Optional[Dict[str, int]] = None,
    *,
    serialize: bool = True,
    merge_parallel: bool = True,
) -> Tuple[BiValuedGraph, Dict[NodeKey, int]]:
    """The bi-valued graph of Theorem 2 for ``graph``.

    Parameters
    ----------
    graph:
        A consistent CSDFG (typically the K-expansion ``G̃``).
    repetition:
        Its repetition vector; computed when omitted.
    serialize:
        Add the implicit all-ones self-loop buffers that forbid
        auto-concurrency before generating constraints (the paper's
        schedules assume serialized tasks — Figure 5 contains the
        corresponding ``A1→A2`` arcs).
    merge_parallel:
        Keep only the dominant arc between each node pair.

    Returns
    -------
    (bi-valued graph, node index) where the node index maps
    ``(task, phase)`` to the dense node id.
    """
    work = graph.with_serialization_loops() if serialize else graph
    if repetition is None:
        repetition = repetition_vector(work)

    node_index: Dict[NodeKey, int] = {}
    labels = []
    base_of: Dict[str, int] = {}
    for t in work.tasks():
        base_of[t.name] = len(labels)
        for p in range(1, t.phase_count + 1):
            node_index[(t.name, p)] = len(labels)
            labels.append((t.name, p))
    bi_graph = BiValuedGraph(len(labels), labels=labels)

    # Parallel-arc merging is only possible between buffers that share the
    # same task pair (phase pairs are unique within one buffer), so the
    # merge only engages when such a group exists and everything else
    # keeps its per-buffer emission order.
    pair_count: Dict[Tuple[str, str], int] = {}
    for b in work.buffers():
        key = (b.source, b.target)
        pair_count[key] = pair_count.get(key, 0) + 1
    shared_pairs = any(count > 1 for count in pair_count.values())

    built = False
    if _np is not None:
        built = _build_arcs_vectorized(
            work, repetition, bi_graph, base_of,
            merge=merge_parallel and shared_pairs,
        )
    if not built:
        _build_arcs_streaming(
            work, repetition, bi_graph, base_of, pair_count, merge_parallel
        )
    # Arc construction edits arc arrays in bulk, so drop any stale
    # compilation before emitting the frozen arc-array form. Every
    # downstream consumer (oracle probes, SCC sweep, engines, potentials)
    # shares this single compilation via the graph's cache.
    bi_graph.invalidate()
    bi_graph.compile()
    return bi_graph, node_index


def _build_arcs_vectorized(
    work: CsdfGraph,
    repetition: Dict[str, int],
    bi_graph: BiValuedGraph,
    base_of: Dict[str, int],
    *,
    merge: bool,
) -> bool:
    """Gather every buffer's candidate arcs as int64 arrays, merge, emit.

    Returns False when the exact merge cannot run in int64 (the caller
    then uses the streaming dict merge). The emitted graph is identical
    to the streaming path's: per-buffer row-major candidate order,
    first-occurrence order among merged node pairs.
    """
    buffers = list(work.buffers())
    if not buffers:
        return True
    p0s, pp0s, betas, bounds = segmented_useful_pair_arrays(
        [(b, 1, 1) for b in buffers]
    )
    counts = _np.diff(bounds)
    srcs = p0s + _np.repeat(
        _np.asarray([base_of[b.source] for b in buffers], dtype=_np.int64),
        counts)
    dsts = pp0s + _np.repeat(
        _np.asarray([base_of[b.target] for b in buffers], dtype=_np.int64),
        counts)
    costs = _np.concatenate([
        _np.asarray(work.task(b.source).durations, dtype=_np.int64)[
            p0s[lo:hi]]
        for b, lo, hi in zip(buffers, bounds[:-1], bounds[1:])
    ])
    denoms = _np.repeat(_np.asarray(
        [repetition[b.source] * b.total_production for b in buffers],
        dtype=_np.int64), counts)
    if merge:
        merged = merge_parallel_candidates(
            srcs, dsts, costs, betas, denoms, bi_graph.node_count
        )
        if merged is None:
            return False
        srcs, dsts, costs, betas, denoms = merged
    bi_graph.extend_arcs(
        srcs.tolist(),
        dsts.tolist(),
        [Fraction(c) for c in costs.tolist()],
        [
            Fraction(-beta, den)
            for beta, den in zip(betas.tolist(), denoms.tolist())
        ],
    )
    return True


def _build_arcs_streaming(
    work: CsdfGraph,
    repetition: Dict[str, int],
    bi_graph: BiValuedGraph,
    base_of: Dict[str, int],
    pair_count: Dict[Tuple[str, str], int],
    merge_parallel: bool,
) -> None:
    """The historical per-buffer emission with the dict-based merge.

    Kept as the no-numpy / int64-overflow fallback and as the reference
    the vectorized merge is pinned against.
    """
    best: Dict[Tuple[int, int], int] = {}
    for b in work.buffers():
        denom = repetition[b.source] * b.total_production
        src_base = base_of[b.source]
        dst_base = base_of[b.target]
        durations = work.task(b.source).durations
        p0s, pp0s, betas = useful_pair_arrays(b)
        shared_pair = merge_parallel and pair_count[(b.source, b.target)] > 1
        if not shared_pair:
            srcs = [src_base + int(p0) for p0 in p0s]
            dsts = [dst_base + int(pp0) for pp0 in pp0s]
            costs = [Fraction(durations[int(p0)]) for p0 in p0s]
            transits = [Fraction(-int(beta), denom) for beta in betas]
            bi_graph.extend_arcs(srcs, dsts, costs, transits)
            continue
        for p0, pp0, beta in zip(p0s, pp0s, betas):
            src = src_base + int(p0)
            dst = dst_base + int(pp0)
            height = Fraction(-int(beta), denom)
            existing = best.get((src, dst))
            if existing is None:
                best[(src, dst)] = bi_graph.add_arc(
                    src, dst, durations[int(p0)], height
                )
            elif height < bi_graph.arc_transit[existing]:
                # Same L (= d(t_p)); smaller H is the tighter constraint.
                bi_graph.arc_transit[existing] = height
