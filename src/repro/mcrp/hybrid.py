"""The two-stage ``hybrid`` engine: float prefilter, exact certify.

The production fast path of the compiled core:

1. **Prefilter** — float Howard policy iteration, fully vectorized over
   the compiled graph's numpy shadow weights (per-source policy
   improvement is one ``maximum.reduceat`` over the CSR-sorted arcs),
   locates a candidate critical circuit; the circuit's *exact* rational
   ratio ``λ̂`` is computed in scaled integers, so it is a certified
   lower bound on ``λ*`` by construction.
2. **Certify** — one exact positive-cycle probe at ``λ̂``. When the
   probe is empty, ``λ* = λ̂`` and the candidate circuit is critical:
   done after a *single* exact sweep (the common case — float Howard
   lands on the optimum). When the probe finds a positive cycle, its
   exact ratio re-seeds the ascending exact iteration, which refines to
   ``λ*`` with full certificates.

On graphs too small for the array set-up to pay (or without numpy) the
engine skips the prefilter and is plain exact ratio iteration — the
two-stage pipeline engages exactly where it wins.

Soundness of the single-probe shortcut: at ``λ̂ > 0``, any infeasible
(deadlock) cycle — positive cost with ``H ≤ 0``, or zero cost with
``H < 0`` — still has strictly positive parametric weight, so an empty
probe also proves feasibility. At ``λ̂ = 0`` that argument fails
(zero-cost negative-transit cycles are invisible), so the engine
delegates to the full exact pipeline, whose λ=0 certificate logic
handles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in CI
    _np = None

from repro.exceptions import DeadlockError, SolverError
from repro.mcrp.bellman import ScaledGraph, find_positive_cycle
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.ratio_iteration import max_cycle_ratio
from repro.mcrp.registry import register_engine

_EPS = 1e-9
#: Below this node count the prefilter's array set-up costs more than
#: the handful of pure-python oracle probes it would save.
_MIN_PREFILTER_NODES = 64
#: Cap on float policy-improvement steps (the prefilter also stops
#: once its candidate stalls).
_MAX_POLICY_ITERATIONS = 200


@register_engine(
    "hybrid",
    summary="vectorized float Howard prefilter + single-probe exact "
            "certification (compiled-core fast path)",
)
def max_cycle_ratio_hybrid(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """Exact maximum cycle ratio via the float-prefilter/exact-certify
    pipeline.

    Same contract as :func:`repro.mcrp.max_cycle_ratio`: exact ``λ*``,
    a critical-circuit certificate, ``ratio=None`` on acyclic graphs and
    :class:`~repro.exceptions.DeadlockError` on infeasible constraint
    cycles. ``lower_bound`` must be a certified lower bound; it is
    merged with the prefilter's own candidate.
    """
    if graph.node_count == 0 or graph.arc_count == 0:
        return CycleResult(ratio=None)
    compiled = graph.compile()
    if compiled.has_negative_cost:
        raise SolverError("hybrid engine requires non-negative arc costs")
    if (
        _np is None
        or compiled.node_count < _MIN_PREFILTER_NODES
        or not compiled.ensure_numpy()
    ):
        return max_cycle_ratio(graph, lower_bound=lower_bound)

    candidate, candidate_cycle = _vectorized_howard_candidate(compiled)
    if lower_bound is not None and (
        candidate is None or lower_bound > candidate
    ):
        # The caller's bound dominates the prefilter but carries no
        # circuit of this graph, so the shortcut does not apply.
        return max_cycle_ratio(graph, lower_bound=lower_bound)
    if candidate is None or candidate <= 0:
        # No usable policy cycle, or λ̂ = 0 where the single-probe
        # shortcut is unsound (see module docstring).
        return max_cycle_ratio(graph, lower_bound=candidate)

    scaled = ScaledGraph(graph)
    probe = find_positive_cycle(
        scaled, candidate.numerator, candidate.denominator
    )
    if probe is None:
        # Certified in one exact sweep: λ* = λ̂, candidate circuit is
        # critical (its weight at λ̂ is exactly 0).
        return CycleResult(
            ratio=candidate,
            cycle_arcs=list(candidate_cycle),
            cycle_nodes=compiled.arc_sources(candidate_cycle),
            iterations=1,
        )
    cost, transit = scaled.cycle_ratio(probe)
    if transit <= 0:
        raise DeadlockError(
            "constraint cycle with positive cost and non-positive "
            f"transit (L={cost}/{scaled.scale}, H={transit}/{scaled.scale}): "
            "no feasible period exists (deadlock)",
            cycle_nodes=compiled.arc_sources(probe),
        )
    # The prefilter undershot: ascend exactly from the probe's ratio
    # (a certified jump strictly above the candidate).
    result = max_cycle_ratio(graph, lower_bound=Fraction(cost, transit))
    result.iterations += 1
    return result


def _vectorized_howard_candidate(
    compiled,
) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """Float Howard over the compiled arrays: ``(exact ratio, cycle)``.

    Each policy-improvement step is one vectorized pass: per-arc values
    ``w(a) + v[dst(a)]`` are reduced per source over the CSR-sorted arc
    order (``maximum.reduceat``), so the Python-level cost per iteration
    is O(n) pointer chasing for the policy cycle and values, not O(m).
    The returned ratio is the exact rational value of a real cycle —
    float error can only make the *candidate selection* suboptimal,
    never the bound unsound.
    """
    n = compiled.node_count
    m = compiled.arc_count
    cost_f = compiled.np_cost_float
    transit_f = compiled.np_transit_float
    dst = compiled.np_dst
    csr = compiled.np_csr_arcs
    src_unique = compiled.src_unique
    seg_starts = compiled.src_seg_starts
    seg_sizes = compiled.src_seg_sizes
    positions = _np.arange(m, dtype=_np.int64)

    # Initial policy: per source, the arc of maximum cost.
    policy = _np.full(n, -1, dtype=_np.int64)
    cost_s = cost_f[csr]
    seg_best = _np.maximum.reduceat(cost_s, seg_starts)
    best_rep = _np.repeat(seg_best, seg_sizes)
    hit = _np.where(cost_s == best_rep, positions, m)
    first = _np.minimum.reduceat(hit, seg_starts)
    policy[src_unique] = csr[first]

    best_exact: Optional[Fraction] = None
    best_cycle: Optional[List[int]] = None
    stale = 0
    for _ in range(_MAX_POLICY_ITERATIONS):
        # Rate every cycle of the functional policy graph exactly and
        # take the best as the reference (multi-chain policies are the
        # norm on SCC-decomposed constraint graphs). The pointer chases
        # run over the policy's O(n) successor list gathered from the
        # arrays each iteration, never the graph's O(m) list forms.
        exact = None
        cycle = None
        node_cycle = None
        pol = policy.tolist()
        succ = _np.where(policy >= 0, dst[policy], -1).tolist()
        for cand_nodes in policy_cycles(succ):
            cand_cycle = [pol[v] for v in cand_nodes]
            num, den = compiled.cycle_sums(cand_cycle)
            if den <= 0:
                # Deadlock-shaped policy cycle: leave it to the exact
                # engine (do not steer the floats with it).
                continue
            ratio = Fraction(num, den)  # the common scale cancels
            if exact is None or ratio > exact:
                exact = ratio
                cycle = cand_cycle
                node_cycle = cand_nodes
        if exact is None:
            break
        if best_exact is None or exact > best_exact:
            best_exact = exact
            best_cycle = list(cycle)
            stale = 0
        else:
            # A prefilter needs a good candidate, not policy
            # convergence: bail once improvement stalls.
            stale += 1
            if stale >= 12:
                break
        lam = float(exact)
        weight = (cost_f[policy] - lam * transit_f[policy]).tolist()
        values = _np.array(
            policy_values(succ, node_cycle, weight), dtype=_np.float64)
        # Vectorized improvement: best per-source arc under the current
        # potentials, switched only on a strict (+EPS) gain.
        val_arc = cost_f - lam * transit_f + values[dst]
        val_s = val_arc[csr]
        seg_best = _np.maximum.reduceat(val_s, seg_starts)
        current = val_arc[policy[src_unique]]
        improving = seg_best > current + _EPS
        if not improving.any():
            break
        best_rep = _np.repeat(seg_best, seg_sizes)
        hit = _np.where(val_s == best_rep, positions, m)
        first = _np.minimum.reduceat(hit, seg_starts)
        switched = src_unique[improving]
        policy[switched] = csr[first[improving]]
    return best_exact, best_cycle


def policy_cycles(succ) -> List[List[int]]:
    """Every cycle of a functional policy graph (node lists).

    ``succ[v]`` is the head of ``v``'s policy arc, negative when ``v``
    has none. A functional graph has at most one cycle per weakly
    connected component; one chase per unvisited node finds them all in
    O(n).
    """
    n = len(succ)
    state = [0] * n  # 0 unvisited, 1 in current chain, 2 done
    cycles: List[List[int]] = []
    for root in range(n):
        chain: List[int] = []
        node = root
        while node >= 0 and state[node] == 0:
            state[node] = 1
            chain.append(node)
            node = succ[node]
        if node >= 0 and state[node] == 1:
            # Found a cycle: trim the chain prefix before `node`.
            cycles.append(chain[chain.index(node):])
        for v in chain:
            state[v] = 2
    return cycles


def policy_values(succ, cycle: List[int], weight) -> List[float]:
    """Float node potentials of a policy at the current ratio.

    ``succ`` is as for :func:`policy_cycles`, ``weight[v]`` the float
    weight ``L − λ·H`` of ``v``'s policy arc and ``cycle`` the reference
    cycle's nodes. Nodes on the reference cycle get value 0 at the cycle
    entry and are propagated along the cycle; every node whose policy
    path reaches the evaluated region is solved by reverse topological
    relaxation (floats only need to be good enough to steer the policy,
    exactness comes later).
    """
    n = len(succ)
    values = [0.0] * n
    known = [False] * n
    known[cycle[0]] = True
    acc = 0.0
    for v in cycle[:-1]:
        acc += weight[v]
        values[succ[v]] = acc
        known[succ[v]] = True
    # Propagate to the rest of the policy tree by chasing each node's
    # successor chain once (the policy graph is functional, so this is
    # O(n) total): unwind the visited chain when a known value — or a
    # foreign cycle, valued 0 as a neutral anchor — is reached.
    for start in range(n):
        if known[start] or succ[start] < 0:
            continue
        chain = []
        on_chain = set()
        v = start
        while not known[v] and succ[v] >= 0 and v not in on_chain:
            chain.append(v)
            on_chain.add(v)
            v = succ[v]
        if not known[v]:
            # dead end or a second policy cycle: anchor at 0.
            values[v] = 0.0
            known[v] = True
            if chain and chain[-1] == v:
                chain.pop()
        for u in reversed(chain):
            values[u] = weight[u] + values[succ[u]]
            known[u] = True
    return values
