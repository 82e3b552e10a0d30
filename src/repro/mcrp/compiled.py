"""Frozen arc-array (CSR) form of a bi-valued graph: the solver core.

Every MCRP engine ultimately loops over arcs, so the hot-path data
layout matters more than the algorithm's constant factor. A
:class:`CompiledGraph` freezes a :class:`~repro.mcrp.graph.BiValuedGraph`
into struct-of-arrays form, computed **once** and shared by every
oracle call, engine, SCC sweep and longest-path pass on that graph:

* ``src``/``dst`` — dense arc endpoint lists plus ``indptr``/``csr_arcs``
  (CSR by source: the out-arcs of ``v`` are
  ``csr_arcs[indptr[v]:indptr[v+1]]``);
* ``cost``/``transit`` — the exact ``(L, H)`` values scaled to integers
  by the lcm ``scale`` of all denominators (cycle ratios are invariant
  under common scaling; Python ints make overflow impossible);
* an **integer fast path**: when the scaled values fit ``int64``,
  numpy mirrors ``np_cost``/``np_transit`` let the positive-cycle
  oracle form the parametric weights ``b·L − a·H`` vectorized;
* the destination-sorted segment structure the numpy Jacobi relaxation
  needs (previously re-``argsort``-ed on every oracle call).

Compilation is cached on the source graph (see
:meth:`BiValuedGraph.compile`) and invalidated by mutation, so the
typical solve pipeline — build constraint graph, probe, decompose,
iterate — compiles exactly once per graph.
"""

from __future__ import annotations

from array import array
from typing import Hashable, List, Optional, Sequence, Tuple

try:  # optional vectorized fast paths
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in CI
    _np = None

_INT64_MAX = (1 << 63) - 1

#: List attribute → the numpy mirror a from_int64_arrays graph derives
#: it from on first read.
_LIST_MIRRORS = {
    "src": "np_src", "dst": "np_dst", "cost": "np_cost",
    "transit": "np_transit",
}


class CompiledGraph:
    """Immutable arc-array view of a bi-valued graph.

    Instances are produced by :func:`compile_graph` (usually via
    ``BiValuedGraph.compile()``); treat every attribute as read-only.

    Examples
    --------
    >>> from fractions import Fraction
    >>> from repro.mcrp.graph import BiValuedGraph
    >>> g = BiValuedGraph(2)
    >>> _ = g.add_arc(0, 1, 3, Fraction(1, 2))
    >>> _ = g.add_arc(1, 0, 1, Fraction(1, 2))
    >>> c = g.compile()
    >>> c.scale, c.cost, c.transit
    (2, [6, 2], [1, 1])
    >>> c.integral
    False
    >>> list(c.out_arcs_of(0))
    [0]
    """

    __slots__ = (
        "node_count", "arc_count", "labels",
        "src", "dst", "indptr", "csr_arcs", "out_arcs",
        "scale", "cost", "transit", "integral", "has_negative_cost",
        "max_abs_cost", "max_abs_transit",
        "_numpy_built",
        "np_src", "np_dst", "np_cost", "np_transit",
        "np_indptr", "np_csr_arcs",
        "dst_order", "src_sorted", "arc_ids_sorted",
        "dst_unique", "seg_starts", "seg_sizes",
    )

    def __init__(
        self,
        node_count: int,
        labels: Sequence[Hashable],
        src: List[int],
        dst: List[int],
        scale: int,
        cost: List[int],
        transit: List[int],
        out_arcs: Sequence[Sequence[int]],
    ):
        self.node_count = node_count
        self.arc_count = len(src)
        self.labels = labels
        self.src = src
        self.dst = dst
        self.scale = scale
        self.cost = cost
        self.transit = transit
        self.integral = scale == 1
        self.has_negative_cost = any(c < 0 for c in cost)
        self.max_abs_cost = max((abs(c) for c in cost), default=0)
        self.max_abs_transit = max((abs(t) for t in transit), default=0)

        # CSR by source + plain adjacency lists (the pure-python inner
        # loops index lists faster than typed arrays); the caller hands
        # us the adjacency it already maintains — freeze, don't rebuild.
        self.out_arcs: Tuple[List[int], ...] = tuple(
            list(arcs) for arcs in out_arcs
        )
        indptr = array("q", [0] * (node_count + 1))
        csr = array("q", [0] * self.arc_count)
        pos = 0
        for v, arcs in enumerate(self.out_arcs):
            indptr[v + 1] = indptr[v] + len(arcs)
            for arc in arcs:
                csr[pos] = arc
                pos += 1
        self.indptr = indptr
        self.csr_arcs = csr

        # numpy mirrors are built lazily (ensure_numpy): the vectorized
        # consumers only engage above ~64 nodes, and plenty of compiled
        # graphs (early K-Iter rounds, converters) never get there.
        self._numpy_built = False
        self.np_src = self.np_dst = self.np_cost = self.np_transit = None
        self.np_indptr = self.np_csr_arcs = None
        self.dst_order = self.src_sorted = self.arc_ids_sorted = None
        self.dst_unique = self.seg_starts = self.seg_sizes = None

    def __getattr__(self, name):
        # Reached only for an unset slot: the list forms of a graph
        # built by from_int64_arrays, derived on first read — the numpy
        # kernels work on the mirrors and the CSR arrays alone.
        if name == "out_arcs":
            order = self.csr_arcs.tolist()
            bounds = self.indptr.tolist()
            value = tuple(order[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        elif name in _LIST_MIRRORS:
            value = getattr(self, _LIST_MIRRORS[name]).tolist()
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    # ------------------------------------------------------------------
    def ensure_numpy(self) -> bool:
        """Build (once) the numpy mirrors and sorted segment structures.

        Returns False when numpy is unavailable or the graph has no
        arcs; ``np_cost``/``np_transit`` additionally stay ``None`` when
        the scaled weights overflow ``int64`` (the integer fast path is
        then soundly disabled while the topology mirrors remain).
        """
        if self._numpy_built:
            return self.np_src is not None
        self._numpy_built = True
        if _np is None or not self.arc_count:
            return False
        if self.np_src is None:  # list-built: from_int64_arrays presets
            self.np_src = _np.array(self.src, dtype=_np.int64)
            self.np_dst = _np.array(self.dst, dtype=_np.int64)
            if (
                self.max_abs_cost < _INT64_MAX
                and self.max_abs_transit < _INT64_MAX
            ):
                self.np_cost = _np.array(self.cost, dtype=_np.int64)
                self.np_transit = _np.array(self.transit, dtype=_np.int64)
        self.np_indptr = _np.frombuffer(self.indptr, dtype=_np.int64).copy()
        self.np_csr_arcs = _np.frombuffer(
            self.csr_arcs, dtype=_np.int64
        ).copy()
        order = _stable_order(self.np_dst, self.node_count)
        self.dst_order = order
        self.src_sorted = self.np_src[order]
        self.arc_ids_sorted = _np.arange(
            self.arc_count, dtype=_np.int64
        )[order]
        dst_sorted = self.np_dst[order]
        self.dst_unique, self.seg_starts = _np.unique(
            dst_sorted, return_index=True
        )
        self.seg_sizes = _np.diff(
            _np.append(self.seg_starts, self.arc_count)
        )
        return True

    # ------------------------------------------------------------------
    def cycle_sums(self, arcs: Sequence[int]) -> Tuple[int, int]:
        """Exact ``(Σ cost, Σ transit)`` over ``arcs``, scaled integers.

        Read from the int64 mirrors when they exist (summed as Python
        ints, so the sum cannot overflow), from the lists otherwise: an
        array-built graph derives no list form for it.
        """
        if self.np_cost is not None:
            return (sum(self.np_cost[arcs].tolist()),
                    sum(self.np_transit[arcs].tolist()))
        cost, transit = self.cost, self.transit
        return sum(cost[a] for a in arcs), sum(transit[a] for a in arcs)

    def arc_sources(self, arcs: Sequence[int]) -> List[int]:
        """Source node of every arc of ``arcs`` (mirror-first, as above)."""
        if self.np_src is not None:
            return self.np_src[arcs].tolist()
        src = self.src
        return [src[a] for a in arcs]

    def out_arcs_of(self, node: int) -> List[int]:
        """Arc indices leaving ``node`` (CSR slice)."""
        return self.out_arcs[node]

    def parametric_weights(self, lam_num: int, lam_den: int) -> List[int]:
        """Exact integer weights ``lam_den·L' − lam_num·H'`` per arc.

        A cycle is positive under these weights iff its ratio exceeds
        ``lam_num/lam_den`` (the common factor ``lam_den·scale`` is
        positive and cancels).
        """
        cost, transit = self.cost, self.transit
        return [
            lam_den * cost[i] - lam_num * transit[i]
            for i in range(self.arc_count)
        ]

    def parametric_weight_bound(self, lam_num: int, lam_den: int) -> int:
        """Upper bound on ``|parametric_weights(...)|`` without forming them."""
        return (
            lam_den * self.max_abs_cost
            + abs(lam_num) * self.max_abs_transit
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledGraph(nodes={self.node_count}, arcs={self.arc_count}, "
            f"scale={self.scale}, integral={self.integral})"
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_int64_arrays(
        cls,
        node_count: int,
        labels: Sequence[Hashable],
        src,
        dst,
        scale: int,
        cost,
        transit,
    ) -> "CompiledGraph":
        """Assemble a compiled graph directly from int64 numpy arc arrays.

        The arithmetic constructor of the direct K-expansion pipeline
        (and the SCC subgraph slicer): ``cost``/``transit`` are already
        the integer-scaled values for the given ``scale``, so no
        ``Fraction`` is ever created and the per-arc Python loop of
        ``__init__`` is replaced by vectorized CSR construction (stable
        argsort by source — per-node arc order is ascending arc index,
        exactly what incremental ``add_arc`` would have produced).

        ``labels`` may be any sequence (including a lazy view); it is
        stored as given, not copied, and so are the int64 arrays, which
        become the numpy mirrors (``np_src``, ``np_cost``, ...). The
        list forms (``src``, ``cost``, ``out_arcs``, ...) are derived
        from them on first read.
        """
        if _np is None:  # pragma: no cover - callers gate on numpy
            raise RuntimeError("from_int64_arrays requires numpy")
        src = _np.ascontiguousarray(src, dtype=_np.int64)
        dst = _np.ascontiguousarray(dst, dtype=_np.int64)
        cost = _np.ascontiguousarray(cost, dtype=_np.int64)
        transit = _np.ascontiguousarray(transit, dtype=_np.int64)
        m = int(src.shape[0])

        self = cls.__new__(cls)
        self.node_count = node_count
        self.arc_count = m
        self.labels = labels
        self.scale = scale
        self.integral = scale == 1
        self.has_negative_cost = bool(m) and bool((cost < 0).any())
        self.max_abs_cost = int(_np.abs(cost).max()) if m else 0
        self.max_abs_transit = int(_np.abs(transit).max()) if m else 0
        self.np_src = self.np_dst = self.np_cost = self.np_transit = None
        if m:
            # The numpy mirrors are the arrays themselves; the list
            # forms are derived on first read (see __getattr__).
            self.np_src, self.np_dst = src, dst
            self.np_cost, self.np_transit = cost, transit
        else:
            self.src, self.dst, self.cost, self.transit = [], [], [], []

        order = _stable_order(src, node_count)
        counts = _np.bincount(src, minlength=node_count) if m else (
            _np.zeros(node_count, dtype=_np.int64)
        )
        indptr_np = _np.zeros(node_count + 1, dtype=_np.int64)
        _np.cumsum(counts, out=indptr_np[1:])
        indptr = array("q")
        indptr.frombytes(indptr_np.tobytes())
        csr = array("q")
        csr.frombytes(order.astype(_np.int64, copy=False).tobytes())
        self.indptr = indptr
        self.csr_arcs = csr
        # ``out_arcs`` stays unset until first read (see __getattr__):
        # the numpy kernels walk the CSR arrays and never need it.

        self._numpy_built = False
        self.np_indptr = self.np_csr_arcs = None
        self.dst_order = self.src_sorted = self.arc_ids_sorted = None
        self.dst_unique = self.seg_starts = self.seg_sizes = None
        return self


def _stable_order(nodes, node_count: int):
    """``np.argsort(nodes, kind="stable")`` for node ids below
    ``node_count``.

    Ids that fit 16 bits are sorted as ``uint16``, for which numpy's
    stable sort is a linear radix sort — several times faster than the
    int64 merge sort on a compile's few thousand arcs, same order.
    """
    if node_count <= 1 << 16:
        nodes = nodes.astype(_np.uint16)
    return _np.argsort(nodes, kind="stable")


def compile_graph(graph) -> CompiledGraph:
    """Freeze ``graph`` (a :class:`BiValuedGraph`) into arc arrays.

    Prefer ``graph.compile()``, which caches the result until the graph
    is mutated.
    """
    from repro.utils.rational import lcm_list

    denominators = [c.denominator for c in graph.arc_cost]
    denominators += [h.denominator for h in graph.arc_transit]
    scale = lcm_list(denominators) if denominators else 1
    cost = [int(c * scale) for c in graph.arc_cost]
    transit = [int(h * scale) for h in graph.arc_transit]
    return CompiledGraph(
        node_count=graph.node_count,
        labels=list(graph.labels),
        src=list(graph.arc_src),
        dst=list(graph.arc_dst),
        scale=scale,
        cost=cost,
        transit=transit,
        out_arcs=graph._out,
    )
