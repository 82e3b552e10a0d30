"""The scheduling-policy registry: one surface for schedule construction.

The solver layer certifies a period; *policies* decide where each
K-periodic task instance starts inside the feasible polytope of that
period. Policies register themselves with :func:`register_policy` at
module import (mirroring :mod:`repro.mcrp.registry`); the CLI
(``repro schedule --policy``, ``repro policies``), the bench harness
(:func:`repro.bench.runner.run_schedule_policy`), the Gantt renderer
and the conformance suite all enumerate the same table. Each entry
carries capability metadata:

``resource_constrained``
    The policy honours a :class:`~repro.scheduling.list_scheduling.
    ResourceBinding`: at every instant, at most ``capacity`` bound
    instances execute per resource. Policies without the flag accept a
    binding argument but ignore it (they place by precedence only).
``refinement``
    The policy starts from the certified ASAP/ALAP windows and *moves*
    instances to improve a secondary objective (resource pressure)
    rather than deriving starts directly from potentials.

The family invariant — held by the cross-policy conformance suite — is
that **every** policy returns a :class:`~repro.kperiodic.schedule.
KPeriodicSchedule` at the *same* exact Fraction ``λ*``: policies explore
the solution polytope ``S_dst − S_src ≥ L(e) − λ*·H(e)`` of the
certified period, never a different period.

Adding a policy
---------------
Write a builder taking a :class:`ScheduleContext` and keyword options,
returning the start-time vector (one exact Fraction per constraint-graph
node), and decorate it::

    from repro.scheduling.registry import register_policy

    @register_policy("my-policy", summary="one-line description")
    def build_mine(ctx, *, binding=None, **options):
        ...
        return starts, stats

Import the defining module from :mod:`repro.scheduling` so registration
happens on package import, and the policy becomes selectable everywhere
(``build_schedule(graph, "my-policy")``, ``repro schedule --policy
my-policy``, the conformance suite's parametrization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import SchedulingError
from repro.kperiodic.schedule import KPeriodicSchedule
from repro.mcrp.graph import BiValuedGraph
from repro.mcrp.registry import DEFAULT_ENGINE


@dataclass(frozen=True)
class PolicyInfo:
    """Registry entry: the builder callable plus capability metadata.

    Examples
    --------
    >>> from repro.scheduling.registry import get_policy
    >>> info = get_policy("list")
    >>> info.name, info.resource_constrained, info.refinement
    ('list', True, False)
    >>> get_policy("asap").resource_constrained
    False
    """

    name: str
    build: Callable[..., Tuple[List[Fraction], Dict[str, object]]]
    resource_constrained: bool = False
    refinement: bool = False
    summary: str = ""


_REGISTRY: Dict[str, PolicyInfo] = {}


def register_policy(
    name: str,
    *,
    resource_constrained: bool = False,
    refinement: bool = False,
    summary: str = "",
):
    """Class-of-service decorator registering a scheduling policy by name."""

    def decorator(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate scheduling policy name {name!r}")
        _REGISTRY[name] = PolicyInfo(
            name=name,
            build=fn,
            resource_constrained=resource_constrained,
            refinement=refinement,
            summary=summary,
        )
        return fn

    return decorator


def _ensure_builtins() -> None:
    """Import the policy modules so their decorators have run."""
    import repro.scheduling  # noqa: F401  (package import registers everything)


def policy_names() -> List[str]:
    """Sorted names of every registered policy.

    Examples
    --------
    >>> from repro.scheduling.registry import policy_names
    >>> policy_names()
    ['alap', 'asap', 'force-directed', 'list']
    """
    _ensure_builtins()
    return sorted(_REGISTRY)


def all_policies() -> List[PolicyInfo]:
    """Every registry entry, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_policy(name: str) -> PolicyInfo:
    """Look up a policy; :class:`SchedulingError` names the choices on a miss."""
    _ensure_builtins()
    info = _REGISTRY.get(name)
    if info is None:
        raise SchedulingError(
            f"unknown scheduling policy {name!r}; "
            f"choose from {sorted(_REGISTRY)}"
        )
    return info


def reject_unknown_options(policy: str, options: Mapping[str, object]) -> None:
    """Builders call this on their ``**options`` catch-all: a typoed
    option must fail loudly, not silently fall back to defaults."""
    if options:
        raise SchedulingError(
            f"policy {policy!r} does not accept option(s) "
            f"{sorted(options)}"
        )


@dataclass(frozen=True)
class Instance:
    """One task instance ``⟨t_p, β⟩`` of the K-periodic pattern.

    ``node`` is its constraint-graph node; ``period`` is the task's
    ``µ_t = Ω·K_t/q_t`` (the instance repeats every ``µ_t`` time units).
    """

    task: str
    phase: int
    beta: int
    node: int
    duration: int
    period: Fraction

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.task, self.phase, self.beta)


@dataclass
class ScheduleContext:
    """Everything a policy needs, computed once per (graph, K, λ*).

    Built by :func:`schedule_context` from a certified fixed-K solve.
    The expensive derived quantities — ASAP potentials, reverse (tail)
    potentials, ALAP potentials, the instance list — are cached lazily
    so a test or bench run evaluating several policies on one graph pays
    each longest-path pass once.
    """

    graph: object
    K: Dict[str, int]
    repetition: Dict[str, int]
    lcm_k: int
    bi_graph: BiValuedGraph
    node_index: Dict[Tuple[str, int], int]
    omega: Fraction
    omega_expanded: Fraction
    critical_labels: List[Tuple[str, int]] = field(default_factory=list)
    _asap: Optional[List[Fraction]] = field(default=None, repr=False)
    _reverse: Optional[List[Fraction]] = field(default=None, repr=False)
    _alap: Optional[List[Fraction]] = field(default=None, repr=False)
    _instances: Optional[List[Instance]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def asap_potentials(self) -> List[Fraction]:
        """Earliest feasible starts (least non-negative solution)."""
        if self._asap is None:
            from repro.kperiodic.solver import longest_path_potentials

            self._asap = longest_path_potentials(
                self.bi_graph, self.omega_expanded
            )
        return self._asap

    def reverse_potentials(self) -> List[Fraction]:
        """Longest-walk value *leaving* each node at ``λ*`` (the node's
        downstream tail; the critical-path priority ranks by it)."""
        if self._reverse is None:
            from repro.scheduling.alap import reverse_longest_walks

            self._reverse = reverse_longest_walks(
                self.bi_graph, self.omega_expanded
            )
        return self._reverse

    def alap_potentials(self) -> List[Fraction]:
        """Latest starts with the critical circuit anchored at ASAP."""
        if self._alap is None:
            from repro.scheduling.alap import alap_potentials

            self._alap = alap_potentials(self)
        return self._alap

    def critical_node_ids(self) -> List[int]:
        """Constraint-graph nodes of the certified critical circuit."""
        return [self.node_index[label] for label in self.critical_labels]

    def instances(self) -> List[Instance]:
        """The K-periodic instance set, in node-index-stable order."""
        if self._instances is None:
            out: List[Instance] = []
            for t in self.graph.tasks():
                name = t.name
                k_t = self.K[name]
                phi = t.phase_count
                mu = self.omega * k_t / self.repetition[name]
                for expanded_phase in range(1, k_t * phi + 1):
                    beta, p = divmod(expanded_phase - 1, phi)
                    out.append(Instance(
                        task=name,
                        phase=p + 1,
                        beta=beta + 1,
                        node=self.node_index[(name, expanded_phase)],
                        duration=t.duration(p + 1),
                        period=mu,
                    ))
            self._instances = out
        return self._instances

    def schedule_from_starts(
        self, starts: List[Fraction]
    ) -> KPeriodicSchedule:
        """Package a per-node start vector as a :class:`KPeriodicSchedule`."""
        return KPeriodicSchedule.from_potentials(
            self.graph, self.K, self.repetition, self.node_index,
            self.omega, starts,
        )

    def arc_weights(self) -> List[Fraction]:
        """Exact weight ``w(e) = L(e) − λ*·H(e)`` per constraint arc.

        Feasibility of any start vector is exactly
        ``S[dst(e)] − S[src(e)] ≥ w(e)`` for every arc.
        """
        lam = self.omega_expanded
        bi = self.bi_graph
        return [
            bi.arc_cost[i] - lam * bi.arc_transit[i]
            for i in range(bi.arc_count)
        ]


@dataclass
class PolicyOutcome:
    """A built schedule plus how the policy got there.

    ``stats`` is policy-specific (makespan, resource peaks, reopened
    instances, refinement deltas, ...) and feeds the bench ablation
    tables; certification-relevant state lives in ``schedule`` only.
    """

    policy: str
    schedule: KPeriodicSchedule
    omega: Fraction
    K: Dict[str, int]
    stats: Dict[str, object] = field(default_factory=dict)


def schedule_context(
    graph,
    *,
    K: Optional[Mapping[str, int]] = None,
    engine: str = DEFAULT_ENGINE,
    time_budget: Optional[float] = None,
) -> ScheduleContext:
    """Certify ``λ*`` (K-Iter when ``K`` is omitted) and package the
    constraint graph + certificate for policy builders.

    Raises :class:`SchedulingError` for Ω = 0 (unbounded throughput has
    no finite-period pattern to place) and propagates the solver layer's
    :class:`~repro.exceptions.DeadlockError` /
    :class:`~repro.exceptions.InconsistentGraphError` unchanged.
    """
    from repro.kperiodic.kiter import throughput_kiter
    from repro.kperiodic.solver import (
        prepare_min_period,
        solve_prepared_min_period,
    )

    if K is None:
        K = throughput_kiter(
            graph, engine=engine, time_budget=time_budget
        ).K
    prepared = prepare_min_period(graph, K)
    result = solve_prepared_min_period(prepared, engine=engine)
    if result.omega == 0:
        raise SchedulingError(
            f"graph {getattr(graph, 'name', '?')!r} has unbounded "
            "throughput (Ω = 0): there is no finite-period K-periodic "
            "pattern to schedule"
        )
    node_index = prepared.node_index
    if node_index is None:
        node_index = prepared.space.node_index()
    return ScheduleContext(
        graph=graph,
        K=dict(prepared.K),
        repetition=dict(prepared.repetition),
        lcm_k=prepared.lcm_k,
        bi_graph=prepared.bi_graph,
        node_index=dict(node_index),
        omega=result.omega,
        omega_expanded=result.omega_expanded,
        critical_labels=list(result.critical_nodes),
    )


def build_from_context(
    ctx: ScheduleContext,
    policy: str = "asap",
    *,
    binding=None,
    **options,
) -> PolicyOutcome:
    """Run one policy over an existing context (no re-solve)."""
    info = get_policy(policy)
    starts, stats = info.build(ctx, binding=binding, **options)
    return PolicyOutcome(
        policy=info.name,
        schedule=ctx.schedule_from_starts(starts),
        omega=ctx.omega,
        K=dict(ctx.K),
        stats=stats,
    )


def build_schedule(
    graph,
    policy: str = "asap",
    *,
    engine: str = DEFAULT_ENGINE,
    K: Optional[Mapping[str, int]] = None,
    binding=None,
    time_budget: Optional[float] = None,
    **options,
) -> PolicyOutcome:
    """Certify λ* and build a schedule with the named policy.

    Parameters
    ----------
    graph:
        A consistent CSDFG.
    policy:
        Registered policy name (see :func:`policy_names`): ``"asap"``,
        ``"alap"``, ``"list"``, ``"force-directed"`` out of the box.
    engine:
        MCRP engine used for the certification solve.
    K:
        Periodicity vector; omitted → K-Iter's final (optimal) K.
    binding:
        A :class:`~repro.scheduling.list_scheduling.ResourceBinding`
        for resource-constrained policies; ignored by the others.
    options:
        Policy-specific keywords (e.g. ``priority=`` for ``list``);
        unknown options raise :class:`SchedulingError`.

    Examples
    --------
    >>> from repro import sdf
    >>> from repro.scheduling import build_schedule
    >>> g = sdf({"A": 1, "B": 1},
    ...         [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
    >>> out = build_schedule(g, "alap")
    >>> out.omega
    Fraction(2, 1)
    >>> out.schedule.verify(g)  # replay token semantics: no violation
    """
    info = get_policy(policy)  # fail before the (expensive) solve
    ctx = schedule_context(
        graph, K=K, engine=engine, time_budget=time_budget
    )
    return build_from_context(ctx, info.name, binding=binding, **options)
