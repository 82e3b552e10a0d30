"""Minimum period of a K-periodic schedule (Theorem 2 + MCRP).

For a fixed periodicity vector K the minimum feasible period of a
K-periodic schedule of ``G`` equals ``λ*/lcm(K)``, where ``λ*`` is the
maximum cycle ratio of the bi-valued constraint graph of the expansion
``G̃`` (paper §3.1–3.3). The solver returns the exact period, a critical
circuit (needed by the optimality test), and a concrete feasible schedule
built from the longest-path potentials at ``λ*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.consistency import repetition_vector
from repro.analysis.constraint_graph import build_constraint_graph
from repro.exceptions import DeadlockError, SolverError
from repro.kperiodic.expansion import (
    ExpansionBlockCache,
    compile_expansion,
    expand_graph,
    expanded_repetition_vector,
    validate_periodicity,
)
from repro.kperiodic.schedule import KPeriodicSchedule
from repro.mcrp.bellman import StartHint
from repro.mcrp.graph import BiValuedGraph, CycleResult
from repro.mcrp.registry import DEFAULT_ENGINE, get_engine, solve_mcrp
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.utils.rational import lcm_list

_ENGINE_ITERATIONS = _REGISTRY.counter("repro_engine_iterations_total")


@dataclass
class KPeriodicResult:
    """Outcome of a fixed-K minimum-period computation.

    Attributes
    ----------
    omega:
        Normalized minimum period ``Ω_G = λ*/lcm(K)`` (0 when the
        constraint graph is acyclic, i.e. the throughput is unbounded).
    omega_expanded:
        ``Ω_G̃ = λ*`` before normalization.
    critical_tasks:
        Tasks traversed by the critical circuit (input of Theorem 4).
    critical_nodes:
        The circuit's ``(task, expanded phase)`` labels, in order.
    schedule:
        A feasible K-periodic schedule achieving ``omega`` (``None`` when
        ``build_schedule=False`` was requested or Ω = 0).
    graph_nodes / graph_arcs:
        Size of the bi-valued constraint graph (for the tables/ablations).
    warm_certified:
        λ* was proven by replaying a :class:`WarmCertificate`
        (:func:`certify_warm`), with no engine call.
    """

    K: Dict[str, int]
    omega: Fraction
    omega_expanded: Fraction
    critical_tasks: Set[str] = field(default_factory=set)
    critical_nodes: List[Tuple[str, int]] = field(default_factory=list)
    schedule: Optional[KPeriodicSchedule] = None
    graph_nodes: int = 0
    graph_arcs: int = 0
    engine_iterations: int = 0
    warm_certified: bool = False

    @property
    def throughput(self) -> Optional[Fraction]:
        """``1/Ω_G``; ``None`` encodes unbounded throughput."""
        if self.omega == 0:
            return None
        return Fraction(1, 1) / self.omega


@dataclass
class PreparedMinPeriod:
    """The engine-independent half of a fixed-K solve.

    :func:`prepare_min_period` builds the bi-valued constraint graph and
    the certified warm-start bound; any MCRP engine — per-graph
    :func:`~repro.mcrp.registry.solve_mcrp` or the batched fleet kernel
    (:func:`repro.mcrp.batched.batched_solve_mcrp`) — may then produce
    the :class:`~repro.mcrp.graph.CycleResult` that
    :func:`finish_min_period` packages. Splitting the solve this way is
    what lets the fleet driver run many K-Iter instances in lockstep
    with *one* stacked MCRP solve per round while sharing every line of
    the per-graph control flow.
    """

    graph: object
    K: Dict[str, int]
    repetition: Dict[str, int]
    lcm_k: int
    bi_graph: BiValuedGraph
    space: object
    node_index: Optional[Dict[Tuple[str, int], int]]
    lower: Fraction


@dataclass
class MinPeriodPlan:
    """A validated fixed-K round, before its constraint graph is built.

    :func:`plan_min_period` makes it: ``K`` is checked, ``q̃`` derived
    and the assembled-K memo consulted (``built`` on a hit).
    :func:`prepare_min_period` then builds the graph from it. The fleet
    driver plans a whole lockstep round first, derives the round's
    missing arc blocks in one pass over :attr:`compile_args`, and only
    then prepares each plan.
    """

    graph: object
    K: Dict[str, int]
    repetition: Dict[str, int]
    q_tilde: Dict[str, int]
    lcm_k: int
    expansion_cache: Optional[ExpansionBlockCache]
    k_key: Optional[Tuple[Tuple[str, int], ...]]
    built: Optional[Tuple[BiValuedGraph, object]]

    @property
    def compile_args(self):
        """``(graph, K, q̃, cache)`` of the direct compile this round
        runs, or ``None`` when the memo answered."""
        if self.built is not None:
            return None
        return self.graph, self.K, self.q_tilde, self.expansion_cache


def plan_min_period(
    graph,
    K: Mapping[str, int],
    *,
    repetition: Optional[Dict[str, int]] = None,
    expansion_cache: Optional[ExpansionBlockCache] = None,
) -> MinPeriodPlan:
    """Validate a fixed-K round and look it up in the assembled-K memo."""
    K = validate_periodicity(graph, K)
    if repetition is None:
        repetition = repetition_vector(graph)
    k_key = built = None
    if expansion_cache is not None:
        # Assembled-graph memo: a warm worker replays the same
        # deterministic K sequence on every repeat solve of a graph,
        # so the frozen compiled form is reused outright — the block
        # cache only pays off within one escalation run.
        k_key = tuple(sorted(K.items()))
        built = expansion_cache.compiled_for(graph, k_key)
    return MinPeriodPlan(
        graph=graph, K=K, repetition=repetition,
        q_tilde=expanded_repetition_vector(repetition, K),
        lcm_k=lcm_list(K.values()),
        expansion_cache=expansion_cache, k_key=k_key, built=built,
    )


def prepare_min_period(
    graph,
    K: Mapping[str, int],
    *,
    repetition: Optional[Dict[str, int]] = None,
    warm_start: Optional[Fraction] = None,
    expansion_cache: Optional[ExpansionBlockCache] = None,
    plan: Optional[MinPeriodPlan] = None,
    blocks=None,
) -> PreparedMinPeriod:
    """Build the constraint graph and warm-start bound for a fixed K.

    ``plan`` is this round's :func:`plan_min_period`, when made ahead
    (it then supersedes the other arguments but ``warm_start``), and
    ``blocks`` the blocks resolved ahead for its direct compile
    (:func:`~repro.kperiodic.expansion.derive_expansion_blocks`).
    """
    if plan is None:
        plan = plan_min_period(
            graph, K, repetition=repetition,
            expansion_cache=expansion_cache,
        )
    graph, K, repetition = plan.graph, plan.K, plan.repetition
    lcm_k, q_tilde = plan.lcm_k, plan.q_tilde
    node_index: Optional[Dict[Tuple[str, int], int]] = None
    space = None
    built = plan.built
    if plan.compile_args is not None:
        built = compile_expansion(
            graph, K, q_tilde, cache=plan.expansion_cache, blocks=blocks
        )
        if built is not None and plan.k_key is not None:
            plan.expansion_cache.store_compiled(graph, plan.k_key, built)
    if built is not None:
        bi_graph, space = built
    if space is None:
        # No numpy, or an int64 guard tripped: materialize G̃ and build
        # its graph with Python ints, exact at any magnitude.
        expanded = expand_graph(graph, K)
        bi_graph, node_index = build_constraint_graph(expanded, q_tilde)
    # Warm start: the serialization self-loop of task t is a real cycle of
    # the constraint graph with exact ratio lcm(K)·q_t·Σ_p d(t_p), so the
    # max over tasks is a certified lower bound on λ* (huge head start —
    # utilization usually lands within a few jumps of the answer).
    utilization = max(
        (repetition[t.name] * t.iteration_duration for t in graph.tasks()),
        default=0,
    )
    # Back the bound off by 1/2 so the utilization cycle itself is still a
    # *strictly* positive cycle at the starting λ — the engine then jumps
    # onto it immediately instead of converging without a certificate.
    lower = Fraction(utilization * lcm_k) - Fraction(1, 2)
    if warm_start is not None:
        # Same 1/2 backoff: when the seed *is* λ* (the previous solve's
        # circuit is still critical), the critical cycle stays strictly
        # positive at the start and is certified in one jump.
        lower = max(lower, Fraction(warm_start) - Fraction(1, 2))
    return PreparedMinPeriod(
        graph=graph, K=dict(K), repetition=dict(repetition), lcm_k=lcm_k,
        bi_graph=bi_graph, space=space, node_index=node_index, lower=lower,
    )


def annotate_deadlock(
    prepared: PreparedMinPeriod, exc: DeadlockError
) -> DeadlockError:
    """Attach task names of the infeasible circuit for K escalation."""
    if exc.cycle_nodes and exc.critical_tasks is None:
        exc.critical_tasks = {
            prepared.bi_graph.labels[n][0] for n in exc.cycle_nodes
        }
    return exc


def finish_min_period(
    prepared: PreparedMinPeriod,
    result: CycleResult,
    *,
    build_schedule: bool = False,
) -> KPeriodicResult:
    """Package an engine's :class:`CycleResult` as a fixed-K outcome."""
    bi_graph = prepared.bi_graph
    lcm_k = prepared.lcm_k
    if result.is_acyclic:
        omega_expanded = Fraction(0)
        critical_nodes: List[Tuple[str, int]] = []
    else:
        omega_expanded = result.ratio
        critical_nodes = [bi_graph.labels[n] for n in result.cycle_nodes]

    omega = omega_expanded / lcm_k
    out = KPeriodicResult(
        K=dict(prepared.K),
        omega=omega,
        omega_expanded=omega_expanded,
        critical_tasks={task for task, _phase in critical_nodes},
        critical_nodes=critical_nodes,
        graph_nodes=bi_graph.node_count,
        graph_arcs=bi_graph.arc_count,
        engine_iterations=result.iterations,
    )
    if build_schedule and omega > 0:
        node_index = prepared.node_index
        if node_index is None:
            # Direct compile: the dense (task, phase) → node map is
            # only materialized when a schedule actually needs it.
            node_index = prepared.space.node_index()
        out.schedule = _extract_schedule(
            prepared.graph, prepared.K, prepared.repetition, bi_graph,
            node_index, omega_expanded, lcm_k,
        )
    return out


def solve_prepared_min_period(
    prepared: PreparedMinPeriod,
    engine: str = DEFAULT_ENGINE,
    *,
    build_schedule: bool = False,
    start: Optional[StartHint] = None,
) -> KPeriodicResult:
    """Run one per-graph engine solve over an already prepared instance.

    ``start`` (potentials over the prepared graph's nodes, e.g. a
    failed :class:`WarmCertificate`'s) starts the engine's exact probes.
    """
    info = get_engine(engine)
    try:
        # The registry pipeline solves per strongly connected component
        # with champion pruning (acyclic regions cost nothing, components
        # that cannot beat the best ratio are rejected by one oracle
        # probe); the utilization bound seeds the champion and
        # warm-starts the engine.
        result = solve_mcrp(
            prepared.bi_graph, info, lower_bound=prepared.lower,
            start=start,
        )
    except DeadlockError as exc:
        # Annotate the infeasible circuit with task names so K-Iter can
        # escalate K along it (a small-K infeasibility is not necessarily
        # a graph deadlock — see exceptions.DeadlockError).
        raise annotate_deadlock(prepared, exc)
    _ENGINE_ITERATIONS.labels(engine=engine).inc(result.iterations)
    return finish_min_period(prepared, result, build_schedule=build_schedule)


@dataclass(frozen=True, eq=False)
class WarmCertificate:
    """The optimality witness of a solved round, kept for the next solve.

    Cycle-ratio LP duality: a circuit of ratio ``λ̂`` plus potentials
    under which no arc gains at ``λ̂`` prove ``λ* = λ̂``.
    :func:`certify_warm` replays both on an edited graph of the same
    ``K``; neither needs to be right there — each is checked exactly.

    ``lam`` is the round's ``λ*`` in its expanded scale, ``scale`` the
    compiled scale ``D`` of its graph, ``circuit`` its critical circuit
    as ``(task, expanded phase)`` labels, and ``potentials`` the
    longest paths at ``lam`` (an int64 array, in units of ``1/(b·D)``
    for ``lam = a/b``).
    """

    K: Dict[str, int]
    lam: Fraction
    scale: int
    circuit: Tuple[Tuple[str, int], ...]
    potentials: Any

    @property
    def hint(self) -> StartHint:
        """The potentials with their unit ``b·D``, as an engine start."""
        return StartHint(self.potentials, self.lam.denominator * self.scale)


@dataclass
class WarmCheck:
    """What :func:`certify_warm` found.

    ``outcome`` is ``"certified"`` (then ``result`` is the round's
    :class:`~repro.mcrp.graph.CycleResult` and ``potentials`` its quiet
    distances), ``"circuit-broken"`` (the circuit is gone or no longer
    has ratio ``λ̂``), ``"not-quiet"`` (some cycle is positive at
    ``λ̂``) or ``"skipped"`` (another K, or the int64 guard). ``sweeps``
    counts the Jacobi sweeps run, the quiet one included.
    """

    outcome: str
    sweeps: int = 0
    result: Optional[CycleResult] = None
    potentials: Optional[List[int]] = None


def certify_warm(
    prepared: PreparedMinPeriod, certificate: WarmCertificate
) -> WarmCheck:
    """Prove ``λ* = λ̂`` on a prepared round without an engine call.

    Two exact checks on the current graph, valid for any certificate:

    1. the certificate's circuit, mapped to this graph's nodes with the
       heaviest arc between consecutive nodes, has ratio exactly ``λ̂``
       with positive transit — so ``λ* ≥ λ̂``;
    2. a Jacobi relaxation at ``λ̂`` started from the stored potentials
       (rescaled to this graph's ``D``) has a sweep with no improvement
       within ``_MAX_JACOBI_SWEEPS`` — every arc then satisfies
       ``p(v) ≥ p(u) + w(u, v)``, summing to ``0 ≥ w(c)`` on every
       cycle ``c``, so ``λ* ≤ λ̂``.

    A stale certificate costs at most the sweep budget. Graphs under
    ``_MIN_VECTOR_NODES`` nodes relax with the queue-based reference
    from the same start instead.
    """
    lam = certificate.lam
    if prepared.K != certificate.K or lam <= 0:
        return WarmCheck("skipped")
    compiled = prepared.bi_graph.compile()
    n = compiled.node_count
    if not compiled.ensure_numpy() or compiled.np_cost is None:
        return WarmCheck("skipped")
    a, b = lam.numerator, lam.denominator
    start = certificate.hint.at(b, compiled)
    if start is None or compiled.parametric_weight_bound(a, b) >= 1 << 62:
        return WarmCheck("skipped")
    arcs = _replay_circuit(prepared, compiled, certificate.circuit, a, b)
    if arcs is None:
        return WarmCheck("circuit-broken")
    if n < _MIN_VECTOR_NODES:
        sweeps = 0
        try:
            dist = _potentials_python(
                compiled, compiled.parametric_weights(a, b),
                seed=start.tolist())
        except SolverError:
            return WarmCheck("not-quiet")
    else:
        try:
            dist, quiet, sweeps = _potentials_numpy(
                compiled, a, b, start=start)
        except SolverError:  # budget > n: a positive cycle
            return WarmCheck("not-quiet", n + 1)
        if dist is None:  # the int64 guard
            return WarmCheck("skipped")
        if not quiet:
            return WarmCheck("not-quiet", sweeps)
    result = CycleResult(
        ratio=lam, cycle_arcs=arcs, cycle_nodes=compiled.arc_sources(arcs))
    return WarmCheck("certified", sweeps, result, dist)


def warm_certificate(
    prepared: PreparedMinPeriod,
    result: KPeriodicResult,
    potentials: Optional[List[int]] = None,
    previous: Optional[WarmCertificate] = None,
) -> Optional[WarmCertificate]:
    """The certificate of a solved round (``None`` when ``λ* = 0``).

    ``potentials`` are the round's quiet distances at ``λ*`` when it
    was itself warm-certified; otherwise they are computed here, once,
    starting from the ``previous`` certificate's potentials when it
    has this round's K (an edit moves few of them; any start converges
    to a valid certificate).
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy present in CI
        return None
    lam = result.omega_expanded
    if lam <= 0:
        return None
    compiled = prepared.bi_graph.compile()
    if potentials is None:
        start = None
        if previous is not None and previous.K == prepared.K:
            start = previous.hint.at(lam.denominator, compiled)
        potentials = _integer_potentials(
            compiled, lam.numerator, lam.denominator, start,
            _MAX_CERTIFICATE_SWEEPS)
    try:
        potentials = np.array(potentials, dtype=np.int64)
    except OverflowError:
        return None
    return WarmCertificate(
        K=dict(prepared.K), lam=lam, scale=compiled.scale,
        circuit=tuple(result.critical_nodes), potentials=potentials,
    )


#: The int64 floor, marking "no arc closes this pair" in the circuit
#: replay (every real weight is above it by the caller's guard).
_NO_ARC = -(1 << 63)


def _replay_circuit(
    prepared: PreparedMinPeriod,
    compiled,
    labels: Sequence[Tuple[str, int]],
    lam_num: int,
    lam_den: int,
) -> Optional[List[int]]:
    """Arcs of the circuit ``labels`` in ``compiled`` if its ratio is
    exactly ``lam_num/lam_den`` with positive transit, else ``None``.

    Between consecutive nodes the arc of largest parametric weight is
    taken (int64 is safe: the caller checked the weight bound), then
    the ratio is checked on exact integer sums.
    """
    import numpy as np

    if prepared.node_index is not None:
        index = prepared.node_index
        nodes = [index.get(label) for label in labels]
        if None in nodes:
            return None
    else:
        nodes = prepared.space.nodes_of(labels)
    if not nodes or len(set(nodes)) != len(nodes):
        return None
    u = np.asarray(nodes, dtype=np.int64)
    lo = compiled.np_indptr[u]
    degree = compiled.np_indptr[u + 1] - lo
    if not degree.all():
        return None
    seg = np.cumsum(degree) - degree
    total = int(seg[-1] + degree[-1])
    positions = np.arange(total, dtype=np.int64)
    out = compiled.np_csr_arcs[positions + np.repeat(lo - seg, degree)]
    w = lam_den * compiled.np_cost[out] - lam_num * compiled.np_transit[out]
    closes = compiled.np_dst[out] == np.repeat(np.roll(u, -1), degree)
    w = np.where(closes, w, _NO_ARC)
    best = np.maximum.reduceat(w, seg)
    if (best == _NO_ARC).any():
        return None
    first = np.minimum.reduceat(
        np.where(w == np.repeat(best, degree), positions, total), seg)
    arcs = out[first].tolist()
    cost, transit = compiled.cycle_sums(arcs)
    if transit <= 0 or cost * lam_den != lam_num * transit:
        return None
    return arcs


def min_period_for_k(
    graph,
    K: Mapping[str, int],
    *,
    engine: str = DEFAULT_ENGINE,
    build_schedule: bool = True,
    repetition: Optional[Dict[str, int]] = None,
    warm_start: Optional[Fraction] = None,
    expansion_cache: Optional[ExpansionBlockCache] = None,
) -> KPeriodicResult:
    """Exact minimum period of a K-periodic schedule of ``graph``.

    Parameters
    ----------
    graph:
        A consistent CSDFG.
    K:
        Periodicity vector (positive integer per task). ``K ≡ 1`` gives
        the 1-periodic method of [Bodin et al. 2013]; ``K = q`` gives the
        exact throughput directly (at exponential-size cost).
    engine:
        Registered MCRP engine name (see
        :func:`repro.mcrp.registry.engine_names`): ``"ratio-iteration"``
        (exact, default), ``"karp"`` (Karp-table oracle), or any engine
        registered by the embedding application.
    build_schedule:
        Also extract start times (longest-path potentials at λ*).
    warm_start:
        A seed for the engine's ascending λ search in the *expanded*
        scale (``λ = Ω·lcm(K)``), typically a DSE session's certified
        ``λ*`` of the previous solve at this K. Used only when it beats the utilization
        bound. Exactness never depends on it: an overshooting seed is
        detected by the engines (no positive cycle from an uncertified
        start) and the search restarts, and the SCC champion used for
        pruning is replaced by the first component's certified ratio
        before any probe relies on it.
    expansion_cache:
        Optional :class:`~repro.kperiodic.expansion.ExpansionBlockCache`
        for the direct compile
        (:func:`repro.kperiodic.expansion.compile_expansion`) — K-Iter
        passes the graph's cache so rounds recompute only the blocks
        whose tasks escalated. Without numpy, or when an int64 guard
        trips, the graph is built from the materialized ``G̃`` instead
        (:func:`~repro.analysis.constraint_graph.build_constraint_graph`);
        both give identical compiled arrays and λ*.

    Raises
    ------
    SolverError
        If ``engine`` names no registered engine.
    DeadlockError
        If no feasible period exists (the graph deadlocks).
    InconsistentGraphError
        If the graph has no repetition vector.
    """
    prepared = prepare_min_period(
        graph, K, repetition=repetition, warm_start=warm_start,
        expansion_cache=expansion_cache,
    )
    return solve_prepared_min_period(
        prepared, engine, build_schedule=build_schedule
    )


def _extract_schedule(
    graph,
    K: Dict[str, int],
    repetition: Dict[str, int],
    bi_graph: BiValuedGraph,
    node_index: Dict[Tuple[str, int], int],
    omega_expanded: Fraction,
    lcm_k: int,
) -> KPeriodicSchedule:
    """Start times from exact longest-path potentials at ``λ = Ω_G̃``.

    At λ*, the weights ``w(e) = L(e) − λ*·H(e)`` admit no positive cycle,
    so the longest-path fixpoint from an all-zero source exists; it is the
    earliest K-periodic schedule for that period.
    """
    dist = longest_path_potentials(bi_graph, omega_expanded)
    return KPeriodicSchedule.from_potentials(
        graph, K, repetition, node_index, omega_expanded / lcm_k, dist
    )


#: Below this node count the numpy Jacobi sweeps cost more in array
#: set-up than the pure-Python relaxation they replace.
_MIN_VECTOR_NODES = 64
#: Jacobi sweep budget: each sweep settles one more level of path
#: depth, so wide/shallow constraint graphs converge in a handful of
#: sweeps while serialized chains are depth ~n — past the budget the
#: queue-based relaxation finishes from the partially converged state
#: instead of paying Θ(depth) reduceat calls.
_MAX_JACOBI_SWEEPS = 32
#: The sweep budget of a certificate's potentials pass: from the
#: previous certificate's potentials a few dozen sweeps usually reach
#: the new fixpoint, and staying vectorized spares the list forms the
#: queue-based finish needs.
_MAX_CERTIFICATE_SWEEPS = 4 * _MAX_JACOBI_SWEEPS


def longest_path_potentials(
    bi_graph: BiValuedGraph,
    omega_expanded: Fraction,
) -> List[Fraction]:
    """Exact longest paths from an implicit zero source at ``λ = a/b``.

    The scheduling pass after λ* certification: with the compiled scale
    ``D``, the weight of arc ``i`` is ``(b·L'_i − a·H'_i) / (b·D)`` —
    the common positive denominator is factored out of the relaxation
    and restored once at the end, so no ``Fraction`` is ever constructed
    in a hot loop. The integer relaxation itself is numpy-vectorized
    (one ``maximum.reduceat`` Jacobi sweep per path length) whenever
    the weights provably fit int64; the queue-based pure-Python
    relaxation is the fallback and the reference.

    Raises :class:`SolverError` when a positive cycle survives at the
    given λ — i.e. the caller passed an uncertified (too small) ratio.
    """
    compiled = bi_graph.compile()
    a, b = omega_expanded.numerator, omega_expanded.denominator
    denom = b * compiled.scale
    return [Fraction(d, denom) for d in _integer_potentials(compiled, a, b)]


def _integer_potentials(
    compiled, lam_num: int, lam_den: int, start=None, budget=None
) -> List[int]:
    """Longest paths at ``λ`` in units of ``1/(lam_den·scale)``, or —
    from a ``start`` vector — the least fixpoint above it. ``budget``
    caps the Jacobi sweeps before the queue-based finish."""
    dist, converged, _sweeps = _potentials_numpy(
        compiled, lam_num, lam_den, start, budget)
    if not converged:
        weights = compiled.parametric_weights(lam_num, lam_den)
        dist = _potentials_python(compiled, weights, seed=dist)
    return dist


def _potentials_numpy(
    compiled, lam_num: int, lam_den: int, start=None, budget=None,
) -> Tuple[Optional[List[int]], bool, int]:
    """Jacobi longest-path sweeps over the compiled numpy arrays.

    The parametric weights ``b·L' − a·H'`` are formed vectorized from
    the compiled int64 mirrors (never as a Python list). ``dist`` after
    sweep ``k`` dominates every ≤k-arc walk value, so with no positive
    cycle the fixpoint is reached within ``n`` sweeps (longest simple
    path has ``n − 1`` arcs) and one extra quiet sweep proves it.
    ``start`` (an int64 array, default all zeros) is the vector the
    sweeps begin from: whatever it holds, a quiet sweep leaves every
    arc satisfied, which proves that no cycle is positive at ``λ``.
    ``budget`` caps the sweeps (default ``_MAX_JACOBI_SWEEPS``).
    Returns ``(dist, True, sweeps)`` on convergence, ``sweeps``
    counting the quiet one. ``(None, False, 0)`` means the vectorized
    pass never engaged (no numpy, too small, or the walk sums could
    overflow int64); ``(partial, False, budget)`` means the sweep
    budget ran out first — either way the caller finishes with the
    queue-based relaxation, seeding it with the partial distances
    when there are any.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy present in CI
        return None, False, 0
    n = compiled.node_count
    if (
        n < _MIN_VECTOR_NODES
        or not compiled.arc_count
        or not (-(1 << 62) < lam_num < (1 << 62) and lam_den < (1 << 62))
        or not compiled.ensure_numpy()
        or compiled.np_cost is None
    ):
        return None, False, 0
    budget = min(n + 1, _MAX_JACOBI_SWEEPS if budget is None else budget)
    # After k sweeps every entry is ``start[u]`` plus a walk of ≤ k
    # arcs, so every sum the sweeps form stays inside int64.
    peak = 0 if start is None else int(np.abs(start).max())
    bound = compiled.parametric_weight_bound(lam_num, lam_den)
    if peak + (budget + 1) * bound >= 1 << 62:
        return None, False, 0
    w = lam_den * compiled.np_cost - lam_num * compiled.np_transit
    w_s = w[compiled.dst_order]
    src_s = compiled.src_sorted
    dst_unique = compiled.dst_unique
    seg_starts = compiled.seg_starts
    dist = (np.zeros(n, dtype=np.int64) if start is None
            else np.array(start, dtype=np.int64))
    for sweep in range(budget):
        seg_best = np.maximum.reduceat(dist[src_s] + w_s, seg_starts)
        improved = seg_best > dist[dst_unique]
        if not improved.any():
            return dist.tolist(), True, sweep + 1
        touched = dst_unique[improved]
        dist[touched] = seg_best[improved]
    if budget > n:
        raise SolverError("positive cycle at certified λ*: engine bug")
    return dist.tolist(), False, budget


def _potentials_python(
    compiled,
    weights: List[int],
    seed: Optional[List[int]] = None,
) -> List[int]:
    """Queue-based Bellman–Ford longest paths (exact reference).

    ``seed`` (optional) is the vector the relaxation starts from; it
    reaches the least fixpoint above it — the zero-source fixpoint
    itself when the seed is an intermediate state of that relaxation
    (every entry a genuine walk value from the zero source). Any seed
    converges within the same re-queue bound when no cycle is positive.
    """
    from collections import deque

    n = compiled.node_count
    out_arcs = compiled.out_arcs
    arc_dst = compiled.dst
    dist: List[int] = [0] * n if seed is None else list(seed)
    in_queue = [True] * n
    # FIFO order re-queues a node at most once per Bellman–Ford pass,
    # and without a positive cycle n passes suffice. Improvements are
    # not bounded that way: a node can improve several times while it
    # waits in the queue, once per in-arc.
    requeues = [0] * n
    queue = deque(range(n))
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        for arc in out_arcs[u]:
            v = arc_dst[arc]
            candidate = du + weights[arc]
            if candidate > dist[v]:
                dist[v] = candidate
                if not in_queue[v]:
                    requeues[v] += 1
                    if requeues[v] > n + 1:
                        raise SolverError(
                            "positive cycle at certified λ*: engine bug"
                        )
                    in_queue[v] = True
                    queue.append(v)
    return dist
