"""The bi-valued digraph the MCRP engines operate on.

Nodes are dense integers ``0..n-1``; each arc carries an integer (or
Fraction) cost ``L`` and an exact Fraction transit ``H``. Arc storage is
struct-of-arrays for cache-friendly traversal in the inner solver loops.

The graph also keeps an optional ``labels`` list so solver results can be
mapped back to the CSDF world (labels are ``(task, phase)`` pairs for
constraint graphs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple


class BiValuedGraph:
    """A directed multigraph with ``(L, H)``-valued arcs.

    Examples
    --------
    >>> g = BiValuedGraph(2)
    >>> _ = g.add_arc(0, 1, 3, Fraction(1, 2))
    >>> _ = g.add_arc(1, 0, 1, Fraction(1, 2))
    >>> g.arc_count
    2
    """

    def __init__(self, node_count: int = 0, labels: Optional[Sequence[Hashable]] = None):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = node_count
        self.labels: List[Hashable] = (
            list(labels) if labels is not None else list(range(node_count))
        )
        if labels is not None and len(self.labels) != node_count:
            raise ValueError("labels length must equal node_count")
        self.arc_src: List[int] = []
        self.arc_dst: List[int] = []
        self.arc_cost: List[Fraction] = []    # L(e)
        self.arc_transit: List[Fraction] = []  # H(e)
        self._out: List[List[int]] = [[] for _ in range(node_count)]
        self._compiled = None

    # ------------------------------------------------------------------
    def add_node(self, label: Hashable = None) -> int:
        idx = self.node_count
        self.node_count += 1
        self.labels.append(label if label is not None else idx)
        self._out.append([])
        self._compiled = None
        return idx

    def add_arc(self, src: int, dst: int, cost, transit) -> int:
        """Add an arc; returns its index."""
        if not (0 <= src < self.node_count and 0 <= dst < self.node_count):
            raise ValueError(f"arc ({src},{dst}) out of range")
        idx = len(self.arc_src)
        self.arc_src.append(src)
        self.arc_dst.append(dst)
        self.arc_cost.append(Fraction(cost))
        self.arc_transit.append(Fraction(transit))
        self._out[src].append(idx)
        self._compiled = None
        return idx

    def extend_arcs(self, srcs, dsts, costs, transits) -> None:
        """Bulk arc insertion (endpoint validation is the caller's job).

        Used by the constraint-graph builder where arcs come out of the
        vectorized Theorem 2 sweep by the hundred thousand.
        """
        base = len(self.arc_src)
        self.arc_src.extend(srcs)
        self.arc_dst.extend(dsts)
        self.arc_cost.extend(costs)
        self.arc_transit.extend(transits)
        out = self._out
        for i, s in enumerate(self.arc_src[base:], start=base):
            out[s].append(i)
        self._compiled = None

    @property
    def arc_count(self) -> int:
        return len(self.arc_src)

    # ------------------------------------------------------------------
    def compile(self):
        """Frozen arc-array (CSR) form of this graph, cached until mutation.

        Returns a :class:`repro.mcrp.compiled.CompiledGraph`. Every
        solver-facing consumer (positive-cycle oracle, SCC sweep,
        longest-path potentials) works off this one
        shared compilation, so repeated solves on the same graph pay the
        array construction exactly once.

        Mutating the arc lists *directly* (bypassing
        :meth:`add_arc`/:meth:`extend_arcs`) leaves a stale cache; call
        :meth:`invalidate` afterwards in that case.
        """
        if self._compiled is None:
            from repro.mcrp.compiled import compile_graph

            self._compiled = compile_graph(self)
        return self._compiled

    def invalidate(self) -> None:
        """Drop the cached compilation (after in-place arc edits)."""
        self._compiled = None

    def out_arcs(self, node: int) -> List[int]:
        return self._out[node]

    def arcs(self) -> List[Tuple[int, int, Fraction, Fraction]]:
        """All arcs as ``(src, dst, L, H)`` tuples."""
        return [
            (self.arc_src[i], self.arc_dst[i], self.arc_cost[i], self.arc_transit[i])
            for i in range(self.arc_count)
        ]

    # ------------------------------------------------------------------
    def cycle_values(self, arc_indices: Sequence[int]) -> Tuple[Fraction, Fraction]:
        """``(Σ L, Σ H)`` along a sequence of arc indices."""
        total_cost = Fraction(0)
        total_transit = Fraction(0)
        for i in arc_indices:
            total_cost += self.arc_cost[i]
            total_transit += self.arc_transit[i]
        return total_cost, total_transit

    def check_cycle(self, arc_indices: Sequence[int]) -> None:
        """Validate that arc indices form a closed walk (raises otherwise)."""
        if not arc_indices:
            raise ValueError("empty arc sequence is not a cycle")
        for a, b in zip(arc_indices, arc_indices[1:]):
            if self.arc_dst[a] != self.arc_src[b]:
                raise ValueError("arc sequence is not a path")
        if self.arc_dst[arc_indices[-1]] != self.arc_src[arc_indices[0]]:
            raise ValueError("arc sequence does not close a cycle")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BiValuedGraph(nodes={self.node_count}, arcs={self.arc_count})"


class ScaledFractionView(Sequence):
    """Read-only ``Fraction`` view over integer-scaled values.

    ``view[i] == Fraction(values[i], scale)`` — the Fraction is built on
    access and never stored, so a :class:`FrozenBiValuedGraph` can expose
    the exact ``arc_cost``/``arc_transit`` interface without allocating
    one Fraction per arc up front (they materialize lazily, only for
    certification and back-mapping).

    Examples
    --------
    >>> v = ScaledFractionView([6, 2, 1], 2)
    >>> v[0], v[2], len(v)
    (Fraction(3, 1), Fraction(1, 2), 3)
    """

    __slots__ = ("_values", "_scale")

    def __init__(self, values: Sequence[int], scale: int):
        self._values = values
        self._scale = scale

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [Fraction(v, self._scale) for v in self._values[index]]
        return Fraction(self._values[index], self._scale)

    def __iter__(self):
        scale = self._scale
        for v in self._values:
            yield Fraction(v, scale)


class FrozenBiValuedGraph(BiValuedGraph):
    """A read-only :class:`BiValuedGraph` assembled around a compiled form.

    The direct K-expansion pipeline builds the
    :class:`~repro.mcrp.compiled.CompiledGraph` arithmetically (int64
    arrays, no per-arc Fractions) and wraps it in this class so every
    existing consumer — engines, SCC sweep, potentials, certification —
    sees the ordinary ``BiValuedGraph`` interface. ``arc_cost`` and
    ``arc_transit`` are :class:`ScaledFractionView`\\ s over the compiled
    integers; mutation is refused (the compiled arrays are the single
    source of truth), and :meth:`invalidate` is a no-op for the same
    reason.
    """

    def __init__(self, compiled):
        self.node_count = compiled.node_count
        self.labels = compiled.labels
        self._compiled = compiled

    # The arc views read the compiled lists, which a numpy-built
    # compiled graph derives on first read: a solve that stays in the
    # numpy kernels never builds them.
    arc_src = property(lambda self: self._compiled.src)
    arc_dst = property(lambda self: self._compiled.dst)
    _out = property(lambda self: self._compiled.out_arcs)

    @cached_property
    def arc_cost(self) -> ScaledFractionView:
        return ScaledFractionView(self._compiled.cost, self._compiled.scale)

    @cached_property
    def arc_transit(self) -> ScaledFractionView:
        return ScaledFractionView(
            self._compiled.transit, self._compiled.scale)

    @property
    def arc_count(self) -> int:
        return self._compiled.arc_count

    def add_node(self, label: Hashable = None) -> int:
        raise TypeError("FrozenBiValuedGraph is immutable")

    def add_arc(self, src: int, dst: int, cost, transit) -> int:
        raise TypeError("FrozenBiValuedGraph is immutable")

    def extend_arcs(self, srcs, dsts, costs, transits) -> None:
        raise TypeError("FrozenBiValuedGraph is immutable")

    def compile(self):
        return self._compiled

    def invalidate(self) -> None:
        """No-op: the compiled arrays *are* the graph."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrozenBiValuedGraph(nodes={self.node_count}, "
            f"arcs={self.arc_count})"
        )


@dataclass
class CycleResult:
    """Result of a max-cycle-ratio computation.

    Attributes
    ----------
    ratio:
        The exact maximum cycle ratio ``λ*`` (``None`` when the graph is
        acyclic, i.e. the constraint system imposes no period bound).
    cycle_arcs:
        Arc indices of a critical circuit achieving the ratio.
    cycle_nodes:
        Node indices along the circuit (same order as the arcs' sources).
    iterations:
        Engine iterations performed (for benchmarking/ablations).
    """

    ratio: Optional[Fraction]
    cycle_arcs: List[int] = field(default_factory=list)
    cycle_nodes: List[int] = field(default_factory=list)
    iterations: int = 0

    @property
    def is_acyclic(self) -> bool:
        return self.ratio is None

    def node_labels(self, graph: BiValuedGraph) -> List[Hashable]:
        return [graph.labels[n] for n in self.cycle_nodes]
