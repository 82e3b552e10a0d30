"""Mobility (slack) analysis of the K-periodic instance set.

For every instance ``⟨t_p, β⟩`` the window ``[ASAP, ALAP]`` is its
*mobility*: the exact interval of start times for which the remaining
system stays feasible at the certified period (difference-constraint
solution sets are lattices — componentwise min/max of solutions are
solutions — so each projection interval is attainable). ``slack =
ALAP − ASAP`` is the classic HLS mobility metric, computed here in
exact Fractions:

* ``slack ≥ 0`` everywhere (ALAP dominates ASAP by construction);
* ``slack = 0`` on every instance of the certified critical circuit
  (the throughput-limiting cycle leaves no freedom);
* resource-aware policies (list, force-directed) move instances only
  inside these windows, which is why they cannot perturb ``λ*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.scheduling.registry import ScheduleContext, schedule_context
from repro.mcrp.registry import DEFAULT_ENGINE


@dataclass(frozen=True)
class InstanceMobility:
    """Exact mobility window of one K-periodic task instance."""

    task: str
    phase: int
    beta: int
    node: int
    duration: int
    asap: Fraction
    alap: Fraction

    @property
    def slack(self) -> Fraction:
        return self.alap - self.asap

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.task, self.phase, self.beta)


@dataclass
class MobilityReport:
    """All instance windows of one certified (graph, K, λ*) solve."""

    K: Dict[str, int]
    omega: Fraction
    instances: List[InstanceMobility]
    critical_keys: FrozenSet[Tuple[str, int, int]]

    def by_key(self) -> Dict[Tuple[str, int, int], InstanceMobility]:
        return {m.key: m for m in self.instances}

    @property
    def max_slack(self) -> Fraction:
        return max((m.slack for m in self.instances), default=Fraction(0))

    def critical_instances(self) -> List[InstanceMobility]:
        """Instances on the certified critical circuit (all slack 0)."""
        return [m for m in self.instances if m.key in self.critical_keys]


def mobility_from_context(ctx: ScheduleContext) -> MobilityReport:
    """Window every instance using the context's cached potentials."""
    asap = ctx.asap_potentials()
    alap = ctx.alap_potentials()
    instances = [
        InstanceMobility(
            task=inst.task, phase=inst.phase, beta=inst.beta,
            node=inst.node, duration=inst.duration,
            asap=asap[inst.node], alap=alap[inst.node],
        )
        for inst in ctx.instances()
    ]
    critical_keys = set()
    phis = {t.name: t.phase_count for t in ctx.graph.tasks()}
    for task, expanded_phase in ctx.critical_labels:
        beta, p = divmod(expanded_phase - 1, phis[task])
        critical_keys.add((task, p + 1, beta + 1))
    return MobilityReport(
        K=dict(ctx.K),
        omega=ctx.omega,
        instances=instances,
        critical_keys=frozenset(critical_keys),
    )


def mobility_report(
    graph,
    *,
    K: Optional[Mapping[str, int]] = None,
    engine: str = DEFAULT_ENGINE,
) -> MobilityReport:
    """Certify λ* (K-Iter when ``K`` is omitted) and window every
    instance.

    Examples
    --------
    >>> from repro import sdf
    >>> from repro.scheduling import mobility_report
    >>> g = sdf({"A": 1, "B": 1},
    ...         [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
    >>> report = mobility_report(g)
    >>> all(m.slack >= 0 for m in report.instances)
    True
    >>> all(m.slack == 0 for m in report.critical_instances())
    True
    """
    return mobility_from_context(schedule_context(graph, K=K, engine=engine))
