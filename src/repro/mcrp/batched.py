"""Batched MCRP solving: one vectorized pass over a fleet of graphs.

The service workload (PR 2 pool, PR 5 distributed workers) is dominated
by *many small-to-medium constraint graphs per chunk*, where per-graph
numpy dispatch overhead eats the vectorization win of the compiled core.
This module stacks the int64 arc arrays ``(src, dst, cost, β)`` of an
entire chunk of compiled graphs into one segmented super-CSR
(:class:`BatchedCompiledGraph`) and runs the solver kernels over the
whole fleet at once:

* a **batched ratio-iteration probe** (`_jacobi_probe`): one
  ``maximum.reduceat`` Jacobi sweep advances the longest-path relaxation
  of *every* graph in the fleet simultaneously. Node IDs are offset per
  graph, so the stacked destination-sorted segment structure is exactly
  the concatenation of the per-graph structures — segment boundaries
  make cross-graph contamination structurally impossible. Per-graph
  convergence masks retire finished graphs from subsequent sweeps
  (a graph whose segments show no improvement has reached its private
  fixpoint: updates never cross graph boundaries, so quiescence is
  permanent).

Engines without a batched oracle (``karp`` among them: a stacked Karp
table lost to the per-graph kernel even for a fleet of one) hand each
graph to :func:`~repro.mcrp.registry.solve_mcrp`.

Exactness contract
------------------
The batch only ever *finds candidate cycles*. Every λ jump is the exact
``Fraction(Σ cost, Σ transit)`` of a verified cycle of one graph (the
per-graph compile scale cancels inside the ratio, which is why mixed
per-graph scales batch fine), every extracted cycle is re-verified with
arbitrary-precision integers before it is trusted, and every rare path —
int64 overflow mid-batch, no numpy, negative costs, a converged λ with
no certificate — delegates that one graph to the standard per-graph
pipeline (:func:`repro.mcrp.registry.solve_mcrp`). Results are therefore
bit-identical ``Fraction`` λ* to the per-graph path by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

try:  # the whole point of this module is the numpy fast path
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in CI
    _np = None

from repro.exceptions import DeadlockError, ReproError, SolverError
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.ratio_iteration import MAX_ITERATIONS
from repro.mcrp.registry import DEFAULT_ENGINE, get_engine, solve_mcrp
from repro.obs.metrics import REGISTRY as _REGISTRY

_KERNEL_ROUNDS = _REGISTRY.counter("repro_batched_kernel_rounds_total")
_DELEGATIONS = _REGISTRY.counter("repro_batched_delegations_total")

#: Engines the fleet kernel runs as the batched Jacobi probe. ``hybrid``
#: is among them: its float Howard prefilter is a per-graph scalar loop
#: that buys nothing at fleet scale and is skipped — λ* is unchanged,
#: both paths are exact.
BATCHED_ORACLES = frozenset({"ratio-iteration", "hybrid"})


@dataclass
class BatchedOutcome:
    """Per-graph result of a batched solve.

    Exactly one of ``result`` / ``error`` is set. ``batched`` is False
    when the graph was answered by the per-graph delegation path
    (ineligible engine, no numpy, int64 overflow, rare certification
    paths) — the answer is identical either way.
    """

    result: Optional[CycleResult] = None
    error: Optional[ReproError] = None
    batched: bool = True


class BatchedCompiledGraph:
    """A fleet of compiled graphs stacked into one segmented super-CSR.

    Layout (`G` graphs, arrays in per-graph destination-sorted order)::

        graph g owns global nodes  [node_offset[g], node_offset[g+1])
        graph g owns global arcs   [arc_offset[g],  arc_offset[g+1])

        src_sorted     | g0 arcs (dst-sorted) | g1 arcs | ... |  global src ids
        cost_sorted    |         "            |    "    | ... |  int64, per-graph scale
        transit_sorted |         "            |    "    | ... |  int64, per-graph scale
        orig_arc       |         "            |    "    | ... |  global original arc id
        dst_unique     | g0 segments | g1 segments | ... |      global dst ids
        seg_starts     |      "      |      "      | ... |      global sorted-arc pos
        seg_graph      |      "      |      "      | ... |      owning graph index

    Because node IDs are globally offset and blocks are contiguous, this
    *is* the destination-sorted segment structure of the disjoint union
    graph — no re-sort happens, stacking is pure concatenation. `scales`
    keeps each graph's integer compile scale: weights never mix across
    graphs, so heterogeneous scales are fine.
    """

    def __init__(self, compiled_graphs: Sequence) -> None:
        if _np is None:  # pragma: no cover - callers gate on numpy
            raise SolverError("BatchedCompiledGraph requires numpy")
        if not compiled_graphs:
            raise SolverError("cannot stack an empty fleet")
        self.graphs = list(compiled_graphs)
        node_offset = [0]
        arc_offset = [0]
        for c in self.graphs:
            node_offset.append(node_offset[-1] + c.node_count)
            arc_offset.append(arc_offset[-1] + c.arc_count)
        self.node_offset = node_offset
        self.arc_offset = arc_offset
        self.total_nodes = node_offset[-1]
        self.total_arcs = arc_offset[-1]
        self.scales: List[int] = [c.scale for c in self.graphs]

        self.src_sorted = _np.concatenate([
            c.src_sorted + noff
            for c, noff in zip(self.graphs, node_offset)
        ])
        self.cost_sorted = _np.concatenate([
            c.np_cost[c.dst_order] for c in self.graphs
        ])
        self.transit_sorted = _np.concatenate([
            c.np_transit[c.dst_order] for c in self.graphs
        ])
        self.orig_arc = _np.concatenate([
            c.arc_ids_sorted + aoff
            for c, aoff in zip(self.graphs, arc_offset)
        ])
        self.dst_unique = _np.concatenate([
            c.dst_unique + noff
            for c, noff in zip(self.graphs, node_offset)
        ])
        self.seg_starts = _np.concatenate([
            c.seg_starts + aoff
            for c, aoff in zip(self.graphs, arc_offset)
        ])
        self.seg_sizes = _np.concatenate([
            c.seg_sizes for c in self.graphs
        ])
        self.arc_counts = _np.array(
            [c.arc_count for c in self.graphs], dtype=_np.int64
        )
        self.seg_counts = _np.array(
            [len(c.dst_unique) for c in self.graphs], dtype=_np.int64
        )
        self.seg_graph = _np.repeat(
            _np.arange(len(self.graphs), dtype=_np.int64), self.seg_counts
        )

    def active_view(self, positions: Sequence[int]) -> "_ActiveView":
        """Compacted arrays covering only the graphs in ``positions``."""
        sel = _np.zeros(len(self.graphs), dtype=bool)
        sel[list(positions)] = True
        arc_keep = _np.repeat(sel, self.arc_counts)
        seg_keep = _np.repeat(sel, self.seg_counts)
        seg_sizes = self.seg_sizes[seg_keep]
        seg_starts = _np.zeros(len(seg_sizes), dtype=_np.int64)
        if len(seg_sizes) > 1:
            _np.cumsum(seg_sizes[:-1], out=seg_starts[1:])
        return _ActiveView(
            positions=list(positions),
            src=self.src_sorted[arc_keep],
            cost=self.cost_sorted[arc_keep],
            transit=self.transit_sorted[arc_keep],
            orig_arc=self.orig_arc[arc_keep],
            dst_unique=self.dst_unique[seg_keep],
            seg_sizes=seg_sizes,
            seg_starts=seg_starts,
            seg_graph=self.seg_graph[seg_keep],
            arc_counts=self.arc_counts[list(positions)],
        )


@dataclass
class _ActiveView:
    """Arrays of :class:`BatchedCompiledGraph` restricted to live graphs.

    Compaction preserves per-graph contiguity (arcs and segments are
    grouped by graph in stack order), so ``seg_starts`` is just the
    running sum of the surviving segment sizes.
    """

    positions: List[int]
    src: "object"
    cost: "object"
    transit: "object"
    orig_arc: "object"
    dst_unique: "object"
    seg_sizes: "object"
    seg_starts: "object"
    seg_graph: "object"
    arc_counts: "object"

    def weights(self, lam_num, lam_den) -> "object":
        """Stacked parametric weights ``b_g·L − a_g·H`` (int64).

        ``lam_num``/``lam_den`` are per-graph sequences aligned with
        ``positions``; the caller has already proven every product fits
        int64 (the per-graph overflow gates).
        """
        num = _np.repeat(
            _np.array(lam_num, dtype=_np.int64), self.arc_counts
        )
        den = _np.repeat(
            _np.array(lam_den, dtype=_np.int64), self.arc_counts
        )
        return den * self.cost - num * self.transit


# ----------------------------------------------------------------------
# batched ascending ratio iteration
# ----------------------------------------------------------------------
@dataclass
class _GraphState:
    lam: Fraction
    lower: Optional[Fraction]
    critical: Optional[List[int]] = None
    iterations: int = 0


def batching_available() -> bool:
    """True when numpy is importable, i.e. the batched kernels can engage."""
    return _np is not None


def batched_solve_mcrp(
    graphs: Sequence[BiValuedGraph],
    engine: str = DEFAULT_ENGINE,
    lower_bounds: Optional[Sequence[Optional[Fraction]]] = None,
) -> List[BatchedOutcome]:
    """Solve the MCRP for a whole fleet of graphs in one batched pass.

    Returns one :class:`BatchedOutcome` per input graph, in order.
    Graphs the batched kernel cannot take (engine without a batched
    oracle, numpy absent, per-graph int64 overflow — at stacking time or
    mid-batch as λ grows — negative costs, or the rare certification
    paths of the per-graph engine) are delegated to the standard
    :func:`~repro.mcrp.registry.solve_mcrp` pipeline, so the function is
    total: every graph gets the exact same answer the per-graph path
    would produce, and ``batched`` records which route answered.
    """
    info = get_engine(engine)
    outcomes: List[Optional[BatchedOutcome]] = [None] * len(graphs)
    if not graphs:
        return []
    delegations_cell = _DELEGATIONS.labels(engine=engine)

    def delegate(index: int, lower: Optional[Fraction]) -> None:
        delegations_cell.inc()
        try:
            result = solve_mcrp(graphs[index], info, lower_bound=lower)
        except ReproError as exc:
            outcomes[index] = BatchedOutcome(error=exc, batched=False)
        else:
            outcomes[index] = BatchedOutcome(result=result, batched=False)

    bounds = list(lower_bounds) if lower_bounds is not None else [None] * len(graphs)
    if len(bounds) != len(graphs):
        raise SolverError("lower_bounds must align with graphs")

    if _np is None or engine not in BATCHED_ORACLES:
        for i in range(len(graphs)):
            delegate(i, bounds[i])
        return [o for o in outcomes if o is not None]

    # ------------------------------------------------------------------
    # partition: stackable graphs vs per-graph delegations
    member_index: List[int] = []
    member_compiled = []
    for i, graph in enumerate(graphs):
        if graph.node_count == 0 or graph.arc_count == 0:
            outcomes[i] = BatchedOutcome(result=CycleResult(ratio=None))
            continue
        compiled = graph.compile()
        if (
            compiled.has_negative_cost
            or not compiled.ensure_numpy()
            or compiled.np_cost is None
        ):
            delegate(i, bounds[i])
            continue
        member_index.append(i)
        member_compiled.append(compiled)

    if member_compiled:
        stack = BatchedCompiledGraph(member_compiled)
        _iterate_stack(stack, member_index, bounds, outcomes, delegate,
                       rounds_cell=_KERNEL_ROUNDS.labels(engine=engine))
    for i, outcome in enumerate(outcomes):
        if outcome is None:  # pragma: no cover - defensive totality
            delegate(i, bounds[i])
    return [o for o in outcomes if o is not None]


def _iterate_stack(stack, member_index, bounds, outcomes, delegate,
                   rounds_cell=None) -> None:
    """Ascending λ iteration over the stacked fleet (exact per graph)."""
    states: Dict[int, _GraphState] = {}
    for pos, i in enumerate(member_index):
        lam = Fraction(0) if bounds[i] is None else Fraction(bounds[i])
        if lam < 0:
            lam = Fraction(0)
        states[pos] = _GraphState(lam=lam, lower=bounds[i])

    active: List[int] = sorted(states)
    while active:
        # per-graph int64 gates, re-checked every probe (λ only grows)
        probe_set: List[int] = []
        for pos in active:
            st = states[pos]
            compiled = stack.graphs[pos]
            num, den = st.lam.numerator, st.lam.denominator
            n = compiled.node_count
            ok = (
                -(1 << 62) < num < (1 << 62)
                and den < (1 << 62)
                and compiled.parametric_weight_bound(num, den)
                < (1 << 62) // (3 * n + 4)
                and st.iterations < MAX_ITERATIONS
            )
            if ok:
                probe_set.append(pos)
            else:
                # λ outgrew the int64 fast path mid-batch: finish this
                # graph per-graph. A jumped λ is a certified cycle
                # ratio, hence a valid lower bound; an unjumped λ is
                # the caller's own hint, whose overshoot handling the
                # per-graph engine already implements.
                i = member_index[pos]
                delegate(i, st.lam if st.critical is not None else st.lower)
        if not probe_set:
            break

        if rounds_cell is not None:
            rounds_cell.inc()
        cycles, quiet, punt = _jacobi_probe(stack, states, probe_set)

        next_active: List[int] = []
        for pos in probe_set:
            st = states[pos]
            st.iterations += 1
            i = member_index[pos]
            if pos in punt:
                # the kernel could not certify this graph (pointer churn
                # past the sweep budget, Karp gates): per-graph finish.
                delegate(i, st.lam if st.critical is not None else st.lower)
                continue
            if pos in quiet:
                if st.critical is None:
                    # Converged without ever jumping: either λ* ≤ 0
                    # (zero-ratio certification) or the seed was ≥ λ*
                    # (retry from just below, then from scratch). The
                    # per-graph engine owns both rare paths.
                    delegate(i, st.lower)
                    continue
                # Arc data is read from the numpy mirrors (every
                # stacked graph has them): the list forms of a
                # numpy-built compiled graph are never derived here.
                compiled = stack.graphs[pos]
                outcomes[i] = BatchedOutcome(result=CycleResult(
                    ratio=st.lam,
                    cycle_arcs=list(st.critical),
                    cycle_nodes=compiled.np_src[st.critical].tolist(),
                    iterations=st.iterations,
                ))
                continue
            cycle = cycles[pos]
            compiled = stack.graphs[pos]
            cost = sum(compiled.np_cost[cycle].tolist())
            transit = sum(compiled.np_transit[cycle].tolist())
            if transit <= 0:
                outcomes[i] = BatchedOutcome(error=DeadlockError(
                    "constraint cycle with positive cost and non-positive "
                    f"transit (L={cost}/{compiled.scale}, "
                    f"H={transit}/{compiled.scale}): "
                    "no feasible period exists (deadlock)",
                    cycle_nodes=compiled.np_src[cycle].tolist(),
                ))
                continue
            st.lam = Fraction(cost, transit)
            st.critical = cycle
            next_active.append(pos)
        active = next_active


def _jacobi_probe(
    stack: BatchedCompiledGraph,
    states: Dict[int, _GraphState],
    positions: List[int],
) -> Tuple[Dict[int, List[int]], Set[int], Set[int]]:
    """One fleet-wide positive-cycle probe at the per-graph current λ.

    Mirrors :func:`repro.mcrp.bellman._find_cycle_numpy` with the fleet
    twist: ``dist``/``pred`` live in the global node space, each sweep is
    one ``maximum.reduceat`` over the arcs of every still-searching
    graph, and a graph whose segments all go quiet is retired on the
    spot (its relaxation reached its fixpoint — no positive cycle).

    Returns ``(cycles, quiet, punt)``: verified positive cycles in local
    arc indices, graphs proven cycle-free at their λ, and graphs whose
    pointers never settled within the ``3n+2`` budget (the caller
    finishes those per-graph).
    """
    cycles: Dict[int, List[int]] = {}
    quiet: Set[int] = set()
    punt: Set[int] = set()

    current = list(positions)
    view = stack.active_view(current)
    lam = {pos: states[pos].lam for pos in current}
    w = view.weights(
        [lam[p].numerator for p in current],
        [lam[p].denominator for p in current],
    )
    dist = _np.zeros(stack.total_nodes, dtype=_np.int64)
    pred = _np.full(stack.total_nodes, -1, dtype=_np.int64)
    sweeps = {pos: 0 for pos in current}
    start_node: Dict[int, int] = {}

    while current:
        positions_arr = _np.arange(len(w), dtype=_np.int64)
        cand = dist[view.src] + w
        seg_best = _np.maximum.reduceat(cand, view.seg_starts)
        improved = seg_best > dist[view.dst_unique]

        retired: Set[int] = set()
        if improved.any():
            moving = set(view.seg_graph[improved].tolist())
            # predecessor recording: first arc achieving each segment max
            best_rep = _np.repeat(seg_best, view.seg_sizes)
            hit = _np.where(cand == best_rep, positions_arr, len(w))
            first_hit = _np.minimum.reduceat(hit, view.seg_starts)
            touched = view.dst_unique[improved]
            dist[touched] = seg_best[improved]
            pred[touched] = view.orig_arc[first_hit[improved]]
            sweep_first: Dict[int, int] = {}
            for g_pos, node in zip(view.seg_graph[improved].tolist(),
                                   touched.tolist()):
                sweep_first.setdefault(g_pos, node)
            start_node.update(sweep_first)
        else:
            moving = set()

        for pos in current:
            if pos not in moving:
                # No segment of this graph improved: its private Jacobi
                # fixpoint is reached (updates never cross graph
                # boundaries), hence no positive cycle at its λ.
                quiet.add(pos)
                retired.add(pos)
                continue
            sweeps[pos] += 1
            n = stack.graphs[pos].node_count
            sweep = sweeps[pos]
            if (sweep & 15 == 15 or sweep > n) and pos in start_node:
                cycle = _extract_cycle(stack, pos, pred,
                                       start_node[pos], states[pos].lam)
                if cycle is not None:
                    cycles[pos] = cycle
                    retired.add(pos)
                    continue
            if sweep >= 3 * n + 2:
                punt.add(pos)
                retired.add(pos)

        if retired:
            current = [pos for pos in current if pos not in retired]
            if not current:
                break
            view = stack.active_view(current)
            w = view.weights(
                [lam[p].numerator for p in current],
                [lam[p].denominator for p in current],
            )
    return cycles, quiet, punt


def _extract_cycle(
    stack: BatchedCompiledGraph,
    pos: int,
    pred,
    start: int,
    lam: Fraction,
) -> Optional[List[int]]:
    """Predecessor-chain walk within one graph's node block (verified).

    ``pred`` holds *global* original arc ids; the walk maps them back to
    the graph's local arc indices and re-verifies strict positivity of
    the candidate cycle with arbitrary-precision integers — an unproven
    pointer cycle is simply dropped (the sweeps continue).
    """
    compiled = stack.graphs[pos]
    aoff = stack.arc_offset[pos]
    noff = stack.node_offset[pos]
    src = compiled.np_src
    seen_at: Dict[int, int] = {}
    chain: List[int] = []
    node = start
    while node not in seen_at:
        seen_at[node] = len(chain)
        arc = int(pred[node])
        if arc < 0:
            return None
        local = arc - aoff
        chain.append(local)
        node = int(src[local]) + noff
    cycle = chain[seen_at[node]:]
    cycle.reverse()
    num, den = lam.numerator, lam.denominator
    total = sum(
        den * cost - num * transit for cost, transit in zip(
            compiled.np_cost[cycle].tolist(),
            compiled.np_transit[cycle].tolist())
    )
    if total <= 0:
        return None
    return cycle
