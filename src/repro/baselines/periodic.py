"""The 1-periodic (strictly periodic) baseline — paper reference [4].

A 1-periodic schedule fixes one start time and one period per task. It is
the ``K ≡ 1`` special case of K-periodic scheduling, so the minimum
period is a single MCRP solve on the unexpanded constraint graph —
polynomial, but only an *over-approximation* of the optimal period
(Table 2's ``periodic`` column shows optimality drops to 33%/2%/N-S on
buffer-constrained graphs).

``N/S`` (no solution): with buffer bounds a graph can be live and still
admit **no** 1-periodic schedule; this surfaces as a
:class:`~repro.exceptions.DeadlockError` from the MCRP even though the
graph itself does not deadlock. :func:`throughput_periodic` converts that
into ``feasible=False`` rather than an exception when the graph is live.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.exceptions import DeadlockError
from repro.kperiodic.schedule import KPeriodicSchedule
from repro.kperiodic.solver import min_period_for_k
from repro.mcrp.registry import DEFAULT_ENGINE


@dataclass
class PeriodicResult:
    """Outcome of the 1-periodic method.

    ``feasible=False`` is the paper's ``N/S``: no strictly periodic
    schedule exists (the graph may still be live and schedulable with
    K > 1).
    """

    feasible: bool
    period: Optional[Fraction] = None
    schedule: Optional[KPeriodicSchedule] = None

    @property
    def throughput(self) -> Optional[Fraction]:
        if not self.feasible or self.period is None or self.period == 0:
            return None
        return Fraction(1, 1) / self.period


def throughput_periodic(
    graph,
    *,
    engine: str = DEFAULT_ENGINE,
    build_schedule: bool = False,
) -> PeriodicResult:
    """Best throughput reachable by a strictly periodic schedule.

    Examples
    --------
    >>> from repro.model import sdf
    >>> g = sdf({"A": 1, "B": 1},
    ...         [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)])
    >>> throughput_periodic(g).period  # ≥ exact period by construction
    Fraction(4, 1)
    """
    K: Dict[str, int] = {t.name: 1 for t in graph.tasks()}
    try:
        result = min_period_for_k(
            graph, K, engine=engine, build_schedule=build_schedule
        )
    except DeadlockError:
        return PeriodicResult(feasible=False)
    return PeriodicResult(
        feasible=True,
        period=result.omega,
        schedule=result.schedule,
    )
