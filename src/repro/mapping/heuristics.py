"""Mapping heuristics: admissible orders and greedy load balancing.

The static order of a processor must be *admissible*: following it must
never block forever on missing tokens. Orders are derived from a greedy
execution of the untimed token game over the whole graph — the recorded
per-task iteration sequence is feasible by construction, and its
restriction to each processor stays feasible when every processor
follows its own restriction (the global order is one legal interleaving
of the per-processor orders). Liveness of the mapped graph is checked
anyway — defence against future heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.analysis.consistency import repetition_vector
from repro.analysis.liveness import is_live
from repro.exceptions import DeadlockError, ModelError
from repro.kperiodic.kiter import KIterResult, throughput_kiter
from repro.mapping.partition import Mapping
from repro.mapping.transform import apply_mapping
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph


def admissible_static_order(
    graph: CsdfGraph,
    repetition: Optional[Dict[str, int]] = None,
    *,
    granularity: str = "iteration",
) -> List[str]:
    """A PASS: one admissible global sequential order (task names).

    Greedy token game: repeatedly fire any task that can complete one
    unit — a full iteration (``granularity="iteration"``) or a single
    phase firing (``"phase"``) — until every task reaches its per-round
    quota. Monotonicity (point-to-point buffers) makes greedy complete:
    it succeeds iff *some* order exists.

    Every live graph admits a phase-granular order; iteration
    granularity can genuinely fail on graphs whose liveness needs
    cross-task phase interleaving (Figure 2!), reported as
    :class:`DeadlockError`.
    """
    if granularity == "phase":
        return _phase_granular_order(graph, repetition)
    if granularity != "iteration":
        raise ModelError(
            f"unknown granularity {granularity!r} "
            "(use 'iteration' or 'phase')"
        )
    if repetition is None:
        repetition = repetition_vector(graph)
    names = graph.task_names()
    index = {n: i for i, n in enumerate(names)}
    phi = {n: graph.task(n).phase_count for n in names}
    remaining = {n: repetition[n] for n in names}

    buffers = list(graph.buffers())
    tokens = [b.initial_tokens for b in buffers]
    consumes: Dict[str, List[Tuple[int, tuple]]] = {n: [] for n in names}
    produces: Dict[str, List[Tuple[int, tuple]]] = {n: [] for n in names}
    for b_idx, b in enumerate(buffers):
        produces[b.source].append((b_idx, b.production))
        consumes[b.target].append((b_idx, b.consumption))

    def can_iterate(t: str) -> bool:
        """One whole iteration, phase by phase, on a scratch marking."""
        scratch = dict()
        for p in range(phi[t]):
            for b_idx, rates in consumes[t]:
                level = scratch.get(b_idx, tokens[b_idx]) - rates[p]
                if level < 0:
                    return False
                scratch[b_idx] = level
            for b_idx, rates in produces[t]:
                scratch[b_idx] = scratch.get(b_idx, tokens[b_idx]) + rates[p]
        return True

    def fire_iteration(t: str) -> None:
        for p in range(phi[t]):
            for b_idx, rates in consumes[t]:
                tokens[b_idx] -= rates[p]
            for b_idx, rates in produces[t]:
                tokens[b_idx] += rates[p]

    order: List[str] = []
    total = sum(remaining.values())
    while len(order) < total:
        progressed = False
        for t in names:
            if remaining[t] and can_iterate(t):
                fire_iteration(t)
                remaining[t] -= 1
                order.append(t)
                progressed = True
        if not progressed:
            raise DeadlockError(
                f"graph {graph.name!r} admits no iteration-granular "
                "sequential order (deadlock or phase-interleaving-only "
                "liveness); try granularity='phase'"
            )
    return order


def _phase_granular_order(
    graph: CsdfGraph,
    repetition: Optional[Dict[str, int]] = None,
) -> List[str]:
    """One admissible global *phase-firing* order (q_t·ϕ(t) per task)."""
    if repetition is None:
        repetition = repetition_vector(graph)
    names = graph.task_names()
    phi = {n: graph.task(n).phase_count for n in names}
    cursor = {n: 0 for n in names}
    remaining = {n: repetition[n] * phi[n] for n in names}

    buffers = list(graph.buffers())
    tokens = [b.initial_tokens for b in buffers]
    consumes: Dict[str, List[Tuple[int, tuple]]] = {n: [] for n in names}
    produces: Dict[str, List[Tuple[int, tuple]]] = {n: [] for n in names}
    for b_idx, b in enumerate(buffers):
        produces[b.source].append((b_idx, b.production))
        consumes[b.target].append((b_idx, b.consumption))

    order: List[str] = []
    total = sum(remaining.values())
    while len(order) < total:
        progressed = False
        for t in names:
            while remaining[t]:
                p = cursor[t]
                if any(tokens[b] < rates[p] for b, rates in consumes[t]):
                    break
                for b, rates in consumes[t]:
                    tokens[b] -= rates[p]
                for b, rates in produces[t]:
                    tokens[b] += rates[p]
                cursor[t] = (p + 1) % phi[t]
                remaining[t] -= 1
                order.append(t)
                progressed = True
        if not progressed:
            raise DeadlockError(
                f"graph {graph.name!r} admits no sequential order: "
                "it deadlocks"
            )
    return order


def greedy_load_balance(
    graph: CsdfGraph,
    processor_count: int,
    *,
    repetition: Optional[Dict[str, int]] = None,
) -> Mapping:
    """Longest-processing-time-first assignment + derived static orders.

    Tasks are sorted by workload ``q_t·Σ_p d(t_p)`` and greedily placed
    on the least-loaded processor; per-processor orders are the
    restriction of one admissible global order.
    """
    if processor_count < 1:
        raise ModelError(f"need ≥ 1 processor, got {processor_count}")
    if repetition is None:
        repetition = repetition_vector(graph)
    workloads = {
        t.name: repetition[t.name] * t.iteration_duration
        for t in graph.tasks()
    }
    load = {f"cpu{i}": 0 for i in range(processor_count)}
    assignment: Dict[str, str] = {}
    for t in sorted(workloads, key=workloads.__getitem__, reverse=True):
        proc = min(load, key=load.__getitem__)
        assignment[t] = proc
        load[proc] += workloads[t]
    try:
        global_order = admissible_static_order(graph, repetition)
        granularity = "iteration"
    except DeadlockError:
        global_order = admissible_static_order(
            graph, repetition, granularity="phase"
        )
        granularity = "phase"
    orders = {
        proc: [t for t in global_order if assignment[t] == proc]
        for proc in load
    }
    # drop empty processors (fewer tasks than processors)
    used = {p for p in orders if orders[p]}
    return Mapping(
        assignment=assignment,
        orders={p: o for p, o in orders.items() if p in used},
        granularity=granularity,
    )


def throughput_under_mapping(
    graph: CsdfGraph,
    mapping: Mapping,
    *,
    engine: str = DEFAULT_ENGINE,
    time_budget: Optional[float] = None,
) -> Tuple[KIterResult, CsdfGraph]:
    """Exact throughput of ``graph`` executed under ``mapping``.

    Returns the K-Iter result on the transformed graph plus the graph
    itself (for inspection / scheduling). Raises
    :class:`DeadlockError` when the static orders are inadmissible.
    """
    mapped = apply_mapping(graph, mapping)
    if not is_live(mapped):
        raise DeadlockError(
            f"mapping of {graph.name!r} is inadmissible (static orders "
            "deadlock)"
        )
    result = throughput_kiter(
        mapped, engine=engine, time_budget=time_budget
    )
    return result, mapped
