"""Test-only MCRP reference implementations.

None is a built-in engine; they exist so the test suite can check the
registered ones against independent code:

* :func:`max_cycle_ratio_howard` — Howard policy iteration in floats,
  as a pure-Python loop (:func:`_howard_float_hint`), certified by the
  exact ascending iteration.
* :func:`max_cycle_ratio_lawler` — Lawler's binary search with exact
  rational bounds. Whenever the positive-cycle oracle fires at the
  midpoint, the found cycle's exact ratio tightens the lower bound (a
  jump, not just ``lo = mid``); the search stops when the interval is
  narrower than the minimal gap ``1/B²`` between distinct cycle ratios
  (``B`` bounds cycle transit numerators), then snaps to the certified
  lower bound. A disagreement with the ascending iteration on any input
  is a bug by construction.
* :func:`max_cycle_ratio_bellman` and :func:`max_cycle_ratio_karp_python`
  — the ascending iteration pinned to the pure-Python Bellman-Ford and
  Karp-table oracles (no vectorized fast paths).

:data:`REFERENCE_ENGINES` maps an engine name to each of the four; the
``reference_engines`` fixture (``conftest.py``) registers them for one
test, so the engine-reach tests drive them through every layer that
looks an engine up by name.

One non-MCRP reference rides along: :func:`repetition_vector_fraction`
is the repetition-vector propagation in ``Fraction`` arithmetic, the
reference the integer num/den propagation of
:func:`repro.analysis.consistency.repetition_vector` must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from repro.analysis.consistency import _verify_balance
from repro.exceptions import (
    DeadlockError,
    InconsistentGraphError,
    ModelError,
    SolverError,
)
from repro.mcrp.bellman import (
    ScaledGraph,
    _python_oracle,
    certify_zero_ratio,
    find_positive_cycle,
)
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.karp import _karp_python_oracle
from repro.mcrp.ratio_iteration import max_cycle_ratio
from repro.model.graph import CsdfGraph
from repro.utils.rational import normalize_fractions

_EPS = 1e-9


def max_cycle_ratio_howard(
    graph: BiValuedGraph,
    *,
    max_policy_iterations: int = 200,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """Exact maximum cycle ratio, accelerated by a float Howard phase.

    Semantics are identical to :func:`repro.mcrp.max_cycle_ratio` (the
    exact engine always has the last word); only performance differs.
    ``lower_bound`` must be a certified cycle ratio (or any sound lower
    bound); it is combined with Howard's own hint.
    """
    hint = _howard_float_hint(graph, max_policy_iterations)
    if lower_bound is not None and (hint is None or lower_bound > hint):
        hint = Fraction(lower_bound)
    result = max_cycle_ratio(graph, lower_bound=hint)
    return result


def _howard_float_hint(
    graph: BiValuedGraph,
    max_policy_iterations: int,
) -> Optional[Fraction]:
    """Best *exact* cycle ratio reachable by float policy iteration.

    Returns None when no usable policy cycle is found (e.g. acyclic
    graphs); any returned value is the exact ratio of a real cycle and is
    therefore a sound lower bound for the ascending exact engine.

    The floats are the compiled graph's exact scaled integers divided by
    its ``scale``.
    """
    n = graph.node_count
    if n == 0 or graph.arc_count == 0:
        return None
    compiled = graph.compile()
    inv = 1.0 / compiled.scale
    cost_f = [c * inv for c in compiled.cost]
    transit_f = [t * inv for t in compiled.transit]
    cost_i = compiled.cost
    transit_i = compiled.transit
    out_arcs = compiled.out_arcs
    arc_dst = compiled.dst

    # Initial policy: for each node with successors, arc of max cost.
    policy: List[Optional[int]] = [None] * n
    for v in range(n):
        if out_arcs[v]:
            policy[v] = max(out_arcs[v], key=lambda a: cost_f[a])

    best_exact: Optional[Fraction] = None
    lam = 0.0
    for _ in range(max_policy_iterations):
        cycle = _policy_cycle(graph, policy)
        if cycle is None:
            break
        num = sum(cost_i[a] for a in cycle)
        den = sum(transit_i[a] for a in cycle)
        if den <= 0:
            # Deadlock-shaped policy cycle: leave it to the exact engine.
            break
        exact = Fraction(num, den)  # the common scale cancels
        if best_exact is None or exact > best_exact:
            best_exact = exact
        lam = float(exact)
        values = _policy_values(graph, policy, cycle, lam, cost_f, transit_f)
        improved = False
        for v in range(n):
            best_arc = policy[v]
            if best_arc is None:
                continue
            best_val = (
                cost_f[best_arc]
                - lam * transit_f[best_arc]
                + values[arc_dst[best_arc]]
            )
            for a in out_arcs[v]:
                cand = cost_f[a] - lam * transit_f[a] + values[arc_dst[a]]
                if cand > best_val + _EPS:
                    best_val = cand
                    policy[v] = a
                    improved = True
        if not improved:
            break
    return best_exact


def _successors(
    graph: BiValuedGraph, policy: List[Optional[int]],
) -> List[int]:
    """Head of each node's policy arc, ``-1`` where it has none."""
    arc_dst = graph.compile().dst
    return [-1 if a is None else arc_dst[a] for a in policy]


def _policy_cycle(
    graph: BiValuedGraph,
    policy: List[Optional[int]],
) -> Optional[List[int]]:
    """Any cycle of the functional policy graph (arc indices), or None."""
    cycles = policy_cycles(_successors(graph, policy))
    return [policy[v] for v in cycles[0]] if cycles else None


def _policy_values(
    graph: BiValuedGraph,
    policy: List[Optional[int]],
    cycle: List[int],
    lam: float,
    cost_f: List[float],
    transit_f: List[float],
) -> List[float]:
    weight = [0.0 if a is None else cost_f[a] - lam * transit_f[a]
              for a in policy]
    arc_src = graph.compile().src
    return policy_values(
        _successors(graph, policy), [arc_src[a] for a in cycle], weight)


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


def max_cycle_ratio_lawler(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """Exact maximum cycle ratio by rational binary search.

    Same contract as :func:`repro.mcrp.max_cycle_ratio` (including
    :class:`DeadlockError` on infeasible constraint cycles). The search
    always starts from 0: ``lower_bound`` is accepted, as every engine
    takes one, and ignored.
    """
    if any(c < 0 for c in graph.arc_cost):
        raise SolverError("Lawler search requires non-negative arc costs")
    scaled = ScaledGraph(graph)
    if graph.node_count == 0 or graph.arc_count == 0:
        return CycleResult(ratio=None)

    transit_bound = sum(abs(t) for t in scaled.transit)
    cost_bound = sum(scaled.cost)
    if transit_bound == 0:
        # No cycle can have positive transit: any positive-cost cycle (or
        # in fact any cost at all on a cycle) is a deadlock; otherwise the
        # graph imposes no period bound.
        offender = find_positive_cycle(scaled, 0, 1)
        if offender is not None:
            raise DeadlockError(
                "constraint cycle with positive cost and zero transit: "
                "no feasible period exists (deadlock)",
                cycle_nodes=[graph.arc_src[a] for a in offender],
            )
        return CycleResult(ratio=None)

    lo = Fraction(0)
    lo_cycle = None
    hi = Fraction(cost_bound + 1, 1)  # strictly above any cycle ratio
    gap = Fraction(1, transit_bound * transit_bound)
    iterations = 0
    # Distinct cycle ratios differ by AT LEAST gap, so the interval
    # must shrink strictly BELOW gap before it can hold only one
    # candidate — exiting at hi - lo == gap can still leave two (e.g. a
    # single cost-1/transit-1 self-loop: lo=0, hi=1, gap=1 holds both
    # 0 and λ* = 1).
    while hi - lo >= gap:
        iterations += 1
        mid = (lo + hi) / 2
        cycle = find_positive_cycle(scaled, mid.numerator, mid.denominator)
        if cycle is None:
            hi = mid
            continue
        cost, transit = scaled.cycle_ratio(cycle)
        if transit <= 0:
            raise DeadlockError(
                "constraint cycle with positive cost and non-positive "
                "transit: no feasible period exists (deadlock)",
                cycle_nodes=[graph.arc_src[a] for a in cycle],
            )
        ratio = Fraction(cost, transit)
        if ratio <= lo:  # pragma: no cover - bisection safety
            raise SolverError("cycle ratio did not improve the lower bound")
        lo = ratio
        lo_cycle = cycle

    # λ* lies in [lo, hi), hi - lo < gap, and distinct ratios differ by
    # ≥ gap, so λ* = lo provided lo is a genuine cycle ratio; certify
    # there is nothing above.
    if find_positive_cycle(scaled, lo.numerator, lo.denominator) is not None:
        raise SolverError(  # pragma: no cover - contradicts gap argument
            "positive cycle above the converged lower bound"
        )
    if lo_cycle is None:
        if lo != 0:  # pragma: no cover - lo only moves via cycles
            raise SolverError("lower bound moved without a certificate")
        cert = certify_zero_ratio(scaled)
        if cert is None:
            return CycleResult(ratio=None, iterations=iterations)
        return CycleResult(
            ratio=Fraction(0),
            cycle_arcs=list(cert),
            cycle_nodes=[graph.arc_src[a] for a in cert],
            iterations=iterations,
        )
    return CycleResult(
        ratio=lo,
        cycle_arcs=list(lo_cycle),
        cycle_nodes=[graph.arc_src[a] for a in lo_cycle],
        iterations=iterations,
    )


def max_cycle_ratio_bellman(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """The ascending iteration on the pure-Python Bellman-Ford oracle."""
    return max_cycle_ratio(
        graph, lower_bound=lower_bound, oracle=_python_oracle)


def max_cycle_ratio_karp_python(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
) -> CycleResult:
    """The ascending iteration on the pure-Python Karp-table oracle."""
    return max_cycle_ratio(
        graph, lower_bound=lower_bound, oracle=_karp_python_oracle)


#: name → (solve, summary) of the reference implementations.
REFERENCE_ENGINES = {
    "bellman": (max_cycle_ratio_bellman,
                "ascending iteration, pure-Python Bellman-Ford oracle"),
    "howard": (max_cycle_ratio_howard,
               "float Howard loop, certified by the ascending iteration"),
    "karp-python": (max_cycle_ratio_karp_python,
                    "ascending iteration, pure-Python Karp-table oracle"),
    "lawler": (max_cycle_ratio_lawler,
               "Lawler's rational binary search"),
}


def fraction_rates(graph: CsdfGraph) -> Dict[str, Fraction]:
    """Per-task rates in ``Fraction`` arithmetic, each component's root at 1.

    The first task of each weakly-connected component (graph order) is
    the root; a DFS carries ``rate(v) = rate(u) · factor`` and raises
    :class:`InconsistentGraphError` on a conflicting non-tree buffer.
    """
    rates: Dict[str, Optional[Fraction]] = {t.name: None for t in graph.tasks()}
    adjacency: Dict[str, List[tuple]] = {t.name: [] for t in graph.tasks()}
    for b in graph.buffers():
        if b.is_self_loop():
            if b.total_production != b.total_consumption:
                raise InconsistentGraphError(
                    f"self-loop buffer {b.name!r} produces "
                    f"{b.total_production} but consumes {b.total_consumption} "
                    "per iteration"
                )
            continue
        ratio = Fraction(b.total_consumption, b.total_production)
        # q_src * i_b = q_dst * o_b  =>  q_src = q_dst * o_b / i_b.
        adjacency[b.source].append((b.target, Fraction(1, 1) / ratio))
        adjacency[b.target].append((b.source, ratio))
    for root in rates:
        if rates[root] is not None:
            continue
        rates[root] = Fraction(1)
        stack = [root]
        while stack:
            u = stack.pop()
            ru = rates[u]
            for v, factor in adjacency[u]:
                expected = ru * factor
                if rates[v] is None:
                    rates[v] = expected
                    stack.append(v)
                elif rates[v] != expected:
                    raise InconsistentGraphError(
                        f"rate conflict at task {v!r}: "
                        f"{rates[v]} vs {expected}"
                    )
    return rates  # type: ignore[return-value]


def repetition_vector_fraction(graph: CsdfGraph) -> Dict[str, int]:
    """The repetition vector from :func:`fraction_rates`, scaled globally."""
    if graph.task_count == 0:
        raise ModelError("repetition vector of an empty graph is undefined")
    rates = fraction_rates(graph)
    names = graph.task_names()
    q = dict(zip(names, normalize_fractions([rates[n] for n in names])))
    _verify_balance(graph, q)
    return q
