"""Exact maximum cycle ratio by ascending ratio iteration.

The classical "cycle cancelling from below" scheme:

1. start from a lower bound ``λ_0`` (0 by default — valid because costs are
   non-negative in throughput constraint graphs);
2. search for a cycle of positive weight under ``w = L − λ_k·H``;
3. if one is found with transit ``H(c) > 0``, jump to ``λ_{k+1} = L(c)/H(c)``
   (a strict increase) and repeat; a positive cycle with ``H(c) ≤ 0`` stays
   positive for every larger λ, i.e. the constraint system is infeasible
   for every period — in CSDF terms, the graph **deadlocks**;
4. when no positive cycle remains, ``λ* = λ_k`` and the last jump cycle is
   critical (its weight at ``λ*`` is exactly 0).

Each jump moves to the exact ratio of a distinct elementary cycle, so the
iteration terminates; in practice a handful of jumps suffice (this is the
behaviour the paper's K-Iter exploits at the outer level as well).

All arithmetic is exact; see :mod:`repro.mcrp.bellman`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional

from repro.exceptions import DeadlockError, SolverError
from repro.mcrp.bellman import (
    ScaledGraph,
    certify_zero_ratio,
    find_positive_cycle,
)
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.registry import register_engine

#: A positive-cycle oracle: ``(scaled, lam_num, lam_den) -> cycle | None``.
Oracle = Callable[[ScaledGraph, int, int], Optional[List[int]]]

#: Safety valve on oracle probes per solve (each jump moves to a
#: distinct cycle ratio, so the iteration terminates long before).
MAX_ITERATIONS = 1_000_000


@register_engine(
    "ratio-iteration",
    summary="ascending exact cycle-ratio iteration (default engine; "
            "numpy Jacobi oracle when the int64 fast path applies)",
)
def max_cycle_ratio(
    graph: BiValuedGraph,
    *,
    lower_bound: Optional[Fraction] = None,
    oracle: Optional[Oracle] = None,
    _retried: bool = False,
) -> CycleResult:
    """Exact maximum cycle ratio ``λ*`` with a critical-circuit certificate.

    Parameters
    ----------
    graph:
        Bi-valued digraph with **non-negative costs** (checked). Transits
        may have any sign, but every cycle must have positive total
        transit; a violating cycle means the underlying schedule problem
        is infeasible and raises :class:`DeadlockError`.
    lower_bound:
        A known lower bound on ``λ*`` to start from (e.g. a previously
        certified cycle ratio). Must genuinely be a lower bound; it is
        validated by the convergence logic (an overshoot is detected and
        the search restarts from 0).
    oracle:
        Positive-cycle oracle to drive the iteration with (defaults to
        the dispatching :func:`repro.mcrp.bellman.find_positive_cycle`).
        The ``karp`` registry engine is this very iteration running the
        Karp-table oracle; ``repro.mcrp.bellman._python_oracle`` and
        ``repro.mcrp.karp._karp_python_oracle`` pin it to the
        pure-Python reference kernels.

    Returns
    -------
    CycleResult
        ``ratio is None`` iff the graph is acyclic.

    Raises
    ------
    DeadlockError
        If some cycle has positive cost but non-positive transit (no
        finite period satisfies the constraints).
    """
    if graph.node_count == 0 or graph.arc_count == 0:
        return CycleResult(ratio=None)
    scaled = ScaledGraph(graph)
    if scaled.compiled.has_negative_cost:
        raise SolverError("ratio iteration requires non-negative arc costs")
    if oracle is None:
        oracle = find_positive_cycle

    lam = Fraction(0) if lower_bound is None else Fraction(lower_bound)
    if lam < 0:
        lam = Fraction(0)
    critical: Optional[list] = None
    iterations = 0

    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:  # pragma: no cover - safety valve
            raise SolverError(
                f"ratio iteration did not converge in {MAX_ITERATIONS} steps"
            )
        cycle = oracle(scaled, lam.numerator, lam.denominator)
        if cycle is None:
            break
        cost, transit = scaled.cycle_ratio(cycle)
        if transit <= 0:
            raise DeadlockError(
                "constraint cycle with positive cost and non-positive "
                f"transit (L={cost}/{scaled.scale}, H={transit}/{scaled.scale}): "
                "no feasible period exists (deadlock)",
                cycle_nodes=scaled.compiled.arc_sources(cycle),
            )
        lam = Fraction(cost, transit)
        critical = cycle

    if critical is None:
        if lower_bound is not None and lam > 0:
            # Either the hint was exactly λ* (common when the caller's
            # bound is a real cycle's ratio) or it overshot. Try once
            # from just below the hint — the λ*-cycle is then strictly
            # positive and gets certified in one jump; a genuine
            # overshoot falls back to a clean restart.
            if not _retried:
                return max_cycle_ratio(
                    graph,
                    lower_bound=lam - Fraction(1, 2),
                    oracle=oracle,
                    _retried=True,
                )
            return max_cycle_ratio(graph, oracle=oracle)
        # λ* ≤ 0 with non-negative costs: every cycle has zero total cost.
        # certify_zero_ratio returns an H>0 cycle (ratio 0), None when the
        # graph imposes no period bound, or raises DeadlockError on a
        # zero-cost negative-transit cycle (invisible at λ = 0).
        cert = certify_zero_ratio(scaled)
        if cert is None:
            return CycleResult(ratio=None, iterations=iterations)
        critical = cert
        lam = Fraction(0)
    # When at least one jump happened, lam > 0 (a positive-weight cycle at
    # λ ≥ 0 with H > 0 has L > 0), and convergence at lam certifies there
    # is no cycle with H ≤ 0 either (it would still be positive at lam).

    return CycleResult(
        ratio=lam,
        cycle_arcs=list(critical),
        cycle_nodes=scaled.compiled.arc_sources(critical),
        iterations=iterations,
    )
