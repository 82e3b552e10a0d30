"""Positive-cycle detection for parametrized arc weights ``L − λ·H``.

This is the inner oracle of every ratio engine: for a candidate ratio λ,
the maximum cycle ratio exceeds λ iff the graph has a cycle of positive
weight under ``w(e) = L(e) − λ·H(e)``.

All arithmetic is **exact**: the compiled graph scales the
Fraction-valued ``(L, H)`` pairs to integers once by the lcm ``D`` of
their denominators, and a rational candidate ``λ = a/b`` turns the
weight test into the integer test ``b·L' − a·H' > 0``. Python's
arbitrary-precision ints make overflow impossible; when the compiled
core's integer fast path applies (scaled values fit ``int64``), the
parametric weights are formed vectorized in numpy instead of a Python
list comprehension.

The finder is a queue-based Bellman-Ford (SPFA) computing longest paths
from an implicit super-source (all distances start at 0): a node relaxed
more than ``n`` times certifies a positive cycle, which is extracted from
the predecessor chain.

The numpy Jacobi sweeps may start from any finite vector instead of
zero (a :class:`StartHint`, e.g. a K-periodic schedule of a nearby
graph): without a positive cycle they still reach a fixpoint within
``n`` sweeps, and every returned cycle is still verified exactly, so
the start changes the sweep count, never the answer's soundness.

The module also hosts :func:`_python_oracle`, the finder pinned to the
reference Python relaxation: ``max_cycle_ratio(graph,
oracle=_python_oracle)`` is the slow-but-transparent baseline every
fast path is validated against.
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import Any, List, NamedTuple, Optional, Tuple

try:  # optional numpy fast path for the Jacobi relaxation sweeps
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in CI
    _np = None

from repro.mcrp.graph import BiValuedGraph
from repro.obs.metrics import REGISTRY as _REGISTRY

# Pre-bound cells: one integer add per Jacobi oracle call.
_SWEEPS = _REGISTRY.counter("repro_mcrp_oracle_sweeps_total")
_SWEEPS_SEEDED = _SWEEPS.labels(start="seeded")
_SWEEPS_ZERO = _SWEEPS.labels(start="zero")

#: Head-room every int64 sum the Jacobi sweeps form must stay under.
_INT64_ROOM = 1 << 62


class ScaledGraph:
    """Integer-scaled view of a :class:`BiValuedGraph`.

    ``cost[i] = L_i·D`` and ``transit[i] = H_i·D`` where ``D`` is the lcm of
    all L/H denominators; cycle ratios are unchanged by the common scaling.
    Since the compiled-core refactor this is a thin adapter over
    ``graph.compile()`` — construction is O(1) after the first compile of
    the same graph. The list forms (``cost``, ``transit``, ``arc_src``,
    ``arc_dst``, ``out_arcs``) are read from the compiled graph only
    when a consumer asks: the pure-Python oracle does, the numpy Jacobi
    path never does, so a Jacobi solve of an array-built graph derives
    none of them.
    """

    def __init__(self, graph: BiValuedGraph):
        compiled = graph.compile()
        self.graph = graph
        self.compiled = compiled
        self.node_count = compiled.node_count
        self.scale = compiled.scale

    cost = property(lambda self: self.compiled.cost)
    transit = property(lambda self: self.compiled.transit)
    arc_src = property(lambda self: self.compiled.src)
    arc_dst = property(lambda self: self.compiled.dst)
    out_arcs = property(lambda self: self.compiled.out_arcs)

    def cycle_ratio(self, arc_indices: List[int]) -> Tuple[int, int]:
        """``(Σ cost, Σ transit)`` of a cycle, in scaled integers.

        The exact ratio is ``Fraction(Σ cost, Σ transit)`` — the scale
        cancels.
        """
        return self.compiled.cycle_sums(arc_indices)


class StartHint(NamedTuple):
    """Potentials to start the exact oracle's Jacobi sweeps from.

    ``potentials`` is an int64 array with one entry per node, in units
    of ``1/unit``: the longest paths of a certificate at ``λ̂ = â/b̂``
    on a graph of compiled scale ``D̂`` have ``unit = b̂·D̂``. Any finite
    vector is a sound start, so a hint from a nearby graph (an edited
    design point of the same node space) only changes how many sweeps
    a probe takes.
    """

    potentials: Any
    unit: int

    def at(self, lam_den: int, compiled) -> Optional[Any]:
        """The potentials in units of ``1/(lam_den·scale)`` of
        ``compiled``, or ``None`` when they are for another node count
        or the rescale could leave int64's head-room.

        The factor ``lam_den·scale / unit`` is reduced by its gcd
        before it multiplies, so the product stays as small as the
        rescale allows; a factor that does not divide evenly rounds
        down, which is as sound as any other start.
        """
        values = self.potentials
        if len(values) != compiled.node_count:
            return None
        target = lam_den * compiled.scale
        common = gcd(target, self.unit)
        up, down = target // common, self.unit // common
        if up == down:
            return values
        peak = int(_np.abs(values).max()) if len(values) else 0
        if peak == 0:
            return values
        if peak * up >= _INT64_ROOM or down >= _INT64_ROOM:
            return None
        return values * up // down

    def restrict(self, nodes) -> "StartHint":
        """The hint of the subgraph induced by ``nodes`` (its node order)."""
        return StartHint(self.potentials[_np.asarray(nodes)], self.unit)


def find_positive_cycle(
    scaled: ScaledGraph,
    lam_num: int,
    lam_den: int,
    start: Optional[StartHint] = None,
) -> Optional[List[int]]:
    """A cycle with ``Σ(L − λH) > 0`` at ``λ = lam_num/lam_den``, or None.

    Returns the cycle as a list of arc indices (an elementary cycle).
    ``lam_den`` must be positive. ``start`` seeds the Jacobi sweeps
    (rescaled to this probe's units; the zero start when it does not
    fit), whichever numpy path runs them.
    """
    if lam_den <= 0:
        raise ValueError("lam_den must be positive")
    compiled = scaled.compiled
    vector = None
    if start is not None and compiled.ensure_numpy():
        vector = start.at(lam_den, compiled)
    # Integer fast path: form the parametric weights vectorized and go
    # straight to the Jacobi sweep when the weight magnitudes provably
    # keep every ≤(3n+2)-arc walk sum inside int64. λ's own numerator
    # and denominator must fit int64 *independently* of the weight
    # bound: an all-zero cost (or transit) column zeroes its term of
    # the bound while the numpy scalar conversion still sees the raw
    # huge integer.
    jacobi_declined = False
    if (
        compiled.node_count >= 64
        and -_INT64_ROOM < lam_num < _INT64_ROOM
        and lam_den < _INT64_ROOM
        and compiled.ensure_numpy()
        and compiled.np_cost is not None
    ):
        bound = compiled.parametric_weight_bound(lam_num, lam_den)
        if bound < _INT64_ROOM // (3 * compiled.node_count + 4):
            w_np = lam_den * compiled.np_cost - lam_num * compiled.np_transit
            outcome = _find_cycle_numpy(scaled, w_np, vector, bound)
            if outcome is not _FALLBACK:
                return outcome
            jacobi_declined = True
    weights = compiled.parametric_weights(lam_num, lam_den)
    if jacobi_declined:
        # the Jacobi sweep already ran on these exact weights and could
        # not settle; go straight to the queue-based engine
        return _find_positive_weight_cycle_python(scaled, weights)
    # The precomputed bound is cancellation-free (b·maxL + |a|·maxH), so
    # near-critical weights can still be small when it overflows: let
    # the dispatching finder re-measure the actual weights and keep its
    # numpy shot where they fit.
    return find_positive_weight_cycle(scaled, weights, vector)


def find_positive_weight_cycle(
    scaled: ScaledGraph,
    weights: List[int],
    start=None,
) -> Optional[List[int]]:
    """An elementary cycle of positive total ``weights``-value, or None.

    Dispatches to a vectorized Jacobi sweep when numpy is available, the
    instance is big enough to profit, and every possible path sum fits
    int64; otherwise (or if the fast path cannot certify within its pass
    budget) falls back to the exact queue-based relaxation below. Both
    halves only ever return *verified* positive cycles, so the dispatch
    cannot affect correctness. ``start`` (an int64 array in the units
    of ``weights``) seeds the Jacobi sweep.
    """
    if _np is not None and scaled.node_count >= 64:
        outcome = _find_cycle_numpy(scaled, weights, start)
        if outcome is not _FALLBACK:
            return outcome
    return _find_positive_weight_cycle_python(scaled, weights)


_FALLBACK = object()


def _find_cycle_numpy(scaled: ScaledGraph, weights, start=None, bound=None):
    """Jacobi longest-path sweeps in numpy (int64).

    ``dist_k`` after k sweeps is the best value of ``start[u]`` plus a
    ≤k-arc walk from ``u`` (the all-zero vector when ``start`` is
    ``None``). Without a positive cycle the best walks are simple paths,
    so a sweep within the first ``n + 1`` improves nothing, and a quiet
    sweep leaves every arc satisfied, which proves there is no positive
    cycle whatever the start. Extraction walks the predecessor pointers
    (predecessor-graph cycles have weight ≥ 0 from any start; strict
    positivity is verified, and the positive cycle pumps itself into
    the pointers within a bounded number of extra sweeps — after the
    budget, fall back to the exact queue engine).

    ``weights`` may be a Python list (bounds are then checked here) or a
    ready int64 array whose magnitudes the caller bounded by ``bound``
    with ``(3n+4)·bound`` inside the head-room. Every dist value is
    ``start[u]`` plus a ≤(3n+3)-arc walk sum, so a start whose peak
    does not fit on top of that walk bound is dropped for the zero
    start. The destination-sorted segment structure comes precomputed
    from the compiled core. Each call adds the sweeps it ran to
    ``repro_mcrp_oracle_sweeps_total``, labelled by its start.
    """
    compiled = scaled.compiled
    n = compiled.node_count
    m = compiled.arc_count
    if m == 0:
        return None
    if not compiled.ensure_numpy():  # pragma: no cover - numpy gated above
        return _FALLBACK
    if isinstance(weights, list):
        bound = max(1, max(abs(w) for w in weights))
        if bound >= _INT64_ROOM // (3 * n + 4):
            return _FALLBACK
        w = _np.array(weights, dtype=_np.int64)
    else:
        w = weights
    if start is not None and (
        int(_np.abs(start).max()) + (3 * n + 4) * bound >= _INT64_ROOM
    ):
        start = None
    src_s = compiled.src_sorted
    w_s = w[compiled.dst_order]
    arc_ids = compiled.arc_ids_sorted
    dst_unique = compiled.dst_unique
    seg_starts = compiled.seg_starts
    seg_sizes = compiled.seg_sizes

    dist = (_np.zeros(n, dtype=_np.int64) if start is None
            else _np.array(start, dtype=_np.int64))
    pred = _np.full(n, -1, dtype=_np.int64)
    positions = _np.arange(m, dtype=_np.int64)
    last_improved: Optional[_np.ndarray] = None

    max_sweeps = 3 * n + 2
    outcome, sweeps = _FALLBACK, max_sweeps
    for sweep in range(max_sweeps):
        cand = dist[src_s] + w_s
        seg_best = _np.maximum.reduceat(cand, seg_starts)
        improved = seg_best > dist[dst_unique]
        if not improved.any():
            outcome, sweeps = None, sweep + 1
            break
        # record predecessors (first arc achieving the segment max)
        best_rep = _np.repeat(seg_best, seg_sizes)
        hit_pos = _np.where(cand == best_rep, positions, m)
        first_hit = _np.minimum.reduceat(hit_pos, seg_starts)
        touched = dst_unique[improved]
        dist[touched] = seg_best[improved]
        pred[touched] = arc_ids[first_hit[improved]]
        last_improved = touched
        # Extraction may succeed long before the n-sweep existence proof
        # (the positive cycle pumps itself into the pointers early);
        # attempts are cheap (one pointer walk) and verified, so probe
        # periodically.
        if sweep & 15 == 15 or sweep >= n:
            cycle = _extract_pred_cycle_array(
                scaled, pred, int(last_improved[0]), w
            )
            if cycle is not None:
                outcome, sweeps = cycle, sweep + 1
                break
    (_SWEEPS_ZERO if start is None else _SWEEPS_SEEDED).inc(sweeps)
    # _FALLBACK: a positive cycle exists but the pointers never settled
    return outcome


def _extract_pred_cycle_array(
    scaled: ScaledGraph,
    pred,
    start: int,
    weights,
) -> Optional[List[int]]:
    """Predecessor-chain walk over the numpy pred array (verified)."""
    arc_src = scaled.compiled.np_src
    seen_at = {}
    chain_arcs: List[int] = []
    node = start
    while node not in seen_at:
        seen_at[node] = len(chain_arcs)
        arc = int(pred[node])
        if arc < 0:
            return None
        chain_arcs.append(arc)
        node = int(arc_src[arc])
    first = seen_at[node]
    cycle_arcs = chain_arcs[first:]
    cycle_arcs.reverse()
    if sum(weights[a] for a in cycle_arcs) <= 0:
        return None
    return cycle_arcs


def _find_positive_weight_cycle_python(
    scaled: ScaledGraph,
    weights: List[int],
) -> Optional[List[int]]:
    """Exact queue-based engine (reference implementation).

    Queue-based longest-path relaxation from an all-zero start. Soundness
    of the two halves:

    * *absence*: without a positive cycle the relaxation quiesces (each
      round raises distances toward the finite max-walk fixpoint), so an
      emptied queue proves there is none;
    * *presence*: a predecessor-graph cycle always has total weight ≥ 0
      (each arc satisfies ``dist[dst] ≤ dist[src] + w`` once ``src`` may
      have been re-relaxed), so any extracted cycle is *verified* before
      being returned; while a positive cycle pumps the distances its arcs
      become the latest predecessors of its nodes, so repeated extraction
      attempts (triggered by walk-length overflow ``plen > n`` or by a
      relaxation budget no positive-cycle-free run can exhaust) find it.

    Extraction attempts that surface a zero-weight predecessor cycle or a
    broken chain are simply dropped and the search continues — they prove
    nothing either way.
    """
    n = scaled.node_count
    if n == 0:
        return None
    dist = [0] * n
    pred_arc: List[Optional[int]] = [None] * n
    plen = [0] * n  # arcs in the walk realizing dist[v]
    in_queue = [True] * n
    queue = deque(range(n))
    arc_dst = scaled.arc_dst
    out_arcs = scaled.out_arcs

    relaxations = 0
    # Without a positive cycle, queue-based BF performs at most ~n·m
    # relaxations; exceeding this certifies a positive cycle exists and
    # switches the loop into extraction mode unconditionally.
    m = max(1, len(weights))
    budget = 2 * n * m + 64
    attempts = 0
    max_attempts = 10 * n + 1000

    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        pu = plen[u]
        for arc in out_arcs[u]:
            w = weights[arc]
            v = arc_dst[arc]
            candidate = du + w
            if candidate > dist[v]:
                dist[v] = candidate
                pred_arc[v] = arc
                plen[v] = pu + 1
                relaxations += 1
                if plen[v] > n or relaxations > budget:
                    cycle = _extract_pred_cycle(scaled, pred_arc, v, weights)
                    if cycle is not None:
                        return cycle
                    plen[v] = 0
                    attempts += 1
                    if attempts > max_attempts:  # pragma: no cover
                        raise RuntimeError(
                            "positive cycle certified but not extracted; "
                            "please report this graph"
                        )
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
    return None


def _extract_pred_cycle(
    scaled: ScaledGraph,
    pred_arc: List[Optional[int]],
    start: int,
    weights: List[int],
) -> Optional[List[int]]:
    """A *strictly positive* cycle from the predecessor graph, or None.

    Walks the chain from ``start``; a repeat closes a candidate cycle,
    whose weight is verified (predecessor cycles are ≥ 0 but can be 0).
    """
    arc_src = scaled.arc_src
    seen_at = {}
    chain_nodes: List[int] = []
    chain_arcs: List[int] = []
    node = start
    while node not in seen_at:
        seen_at[node] = len(chain_nodes)
        chain_nodes.append(node)
        arc = pred_arc[node]
        if arc is None:
            return None  # chain reached an un-relaxed node: no cycle here
        chain_arcs.append(arc)
        node = arc_src[arc]
    first = seen_at[node]
    cycle_arcs = chain_arcs[first:]
    cycle_arcs.reverse()  # forward (source -> dest) order
    if sum(weights[a] for a in cycle_arcs) <= 0:
        return None
    return cycle_arcs


def certify_zero_ratio(scaled: ScaledGraph) -> Optional[List[int]]:
    """Certificate handling for a converged ratio ``λ* ≤ 0`` (costs ≥ 0).

    Precondition: the graph has no positive cycle at λ = 0, i.e. every
    cycle has zero total cost. Then exactly one of three cases holds:

    * some cycle has positive transit → it is critical with ratio 0
      (returned);
    * some cycle has negative transit → no positive period satisfies the
      constraints (:class:`~repro.exceptions.DeadlockError`);
    * every cycle is vacuous (``L = 0, H = 0``) or the graph is acyclic →
      no binding period constraint (``None`` returned).
    """
    from repro.exceptions import DeadlockError, SolverError

    # Deadlock first: a zero-cost negative-transit cycle forbids every
    # positive period even when other cycles would certify ratio 0.
    negative = find_positive_weight_cycle(
        scaled, [-t for t in scaled.transit]
    )
    if negative is not None:
        raise DeadlockError(
            "zero-cost cycle with negative transit: "
            "no positive period exists (deadlock)",
            cycle_nodes=[scaled.arc_src[a] for a in negative],
        )
    positive = find_positive_weight_cycle(scaled, list(scaled.transit))
    if positive is not None:
        cost, transit = scaled.cycle_ratio(positive)
        if cost > 0:  # pragma: no cover - contradicts the precondition
            raise SolverError("positive-cost cycle survived the λ=0 pass")
        return positive
    return None


# ----------------------------------------------------------------------
def _python_oracle(
    scaled: ScaledGraph, lam_num: int, lam_den: int
) -> Optional[List[int]]:
    """Positive-cycle oracle pinned to the reference Python relaxation."""
    weights = scaled.compiled.parametric_weights(lam_num, lam_den)
    return _find_positive_weight_cycle_python(scaled, weights)
