"""K-Iter (Algorithm 1): exact CSDFG throughput by iterated K-periodicity.

Start from the 1-periodic relaxation (``K ≡ 1``); at each round, compute
the minimum period for the current K and a critical circuit; if the
circuit passes Theorem 4's test, the throughput ``lcm(K)/R(c)`` is exact
and the algorithm stops, otherwise the periodicity of the circuit's tasks
is raised (``K_t ← lcm(K_t, q̄_t)``) and the round repeats.

Convergence: every round either terminates or strictly increases some
``K_t``; a circuit whose tasks were updated passes the test whenever it is
critical again, and K is bounded component-wise by ``q``, so the number of
rounds is finite (empirically a handful — the whole point of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.analysis.consistency import (
    cached_repetition_vector,
    repetition_vector,
)
from repro.exceptions import ConfigurationError, DeadlockError, SolverError
from repro.kperiodic.expansion import expansion_cache_for
from repro.kperiodic.optimality import (
    critical_qbar,
    optimality_test,
    update_periodicity,
)
from repro.kperiodic.schedule import KPeriodicSchedule
from repro.kperiodic.solver import (
    KPeriodicResult,
    MinPeriodPlan,
    PreparedMinPeriod,
    WarmCertificate,
    certify_warm,
    finish_min_period,
    min_period_for_k,
    plan_min_period,
    prepare_min_period,
    solve_prepared_min_period,
    warm_certificate,
)
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.obs.trace import span as _span
from repro.utils.timing import TimeBudget

# Pre-bound cells: one integer add per round / escalation.
_ROUNDS_TOTAL = _REGISTRY.counter("repro_kiter_rounds_total")
_ESCALATIONS = _REGISTRY.counter("repro_kiter_escalations_total")
_ESC_OPTIMALITY = _ESCALATIONS.labels(kind="optimality")
_ESC_INFEASIBLE = _ESCALATIONS.labels(kind="infeasible")
_ESC_FULL_Q = _ESCALATIONS.labels(kind="full-q-jump")


@dataclass
class KIterRound:
    """Trace of one K-Iter round (for reporting and the ablation benches).

    ``omega is None`` marks a round whose K admitted *no* K-periodic
    schedule (infeasible circuit — K was escalated along it);
    ``warm_certified`` one proven by a replayed :class:`WarmCertificate`
    instead of an engine call.
    """

    K: Dict[str, int]
    omega: Optional[Fraction]
    critical_tasks: Set[str]
    passed: bool
    graph_nodes: int
    graph_arcs: int
    engine_iterations: int = 0
    warm_certified: bool = False


@dataclass(frozen=True)
class WarmStart:
    """What a previous solve hands the next (see :class:`repro.dse.DseSession`).

    ``certificate`` is the previous solve's :class:`WarmCertificate`,
    replayed on the first round before any engine runs; ``seed`` says
    whether its ``λ̂`` may also seed that round's engine (no edit since
    could have lowered λ*).
    """

    certificate: Optional[WarmCertificate] = None
    seed: bool = False


@dataclass
class KIterResult:
    """Final outcome of K-Iter.

    ``throughput`` is the *exact maximal* throughput of the graph
    (Theorem 4 certificate); ``None`` encodes an unbounded throughput
    (every duration on every critical cycle is 0). ``certificate`` is
    the final round's :class:`WarmCertificate`, filled only for a solve
    given a ``warm`` argument.
    """

    period: Fraction
    K: Dict[str, int]
    critical_tasks: Set[str]
    rounds: List[KIterRound] = field(default_factory=list)
    schedule: Optional[KPeriodicSchedule] = None
    certificate: Optional[WarmCertificate] = field(
        default=None, compare=False, repr=False)

    @property
    def throughput(self) -> Optional[Fraction]:
        if self.period == 0:
            return None
        return Fraction(1, 1) / self.period

    @property
    def iteration_count(self) -> int:
        return len(self.rounds)

    @property
    def engine_iteration_count(self) -> int:
        """Total engine probes/jumps across all rounds (ablation metric)."""
        return sum(r.engine_iterations for r in self.rounds)


class KIterMachine:
    """Stepping form of Algorithm 1: one graph, advanced one round at a time.

    The class splits K-Iter's round loop at the engine-solve boundary so
    the caller chooses *how* each fixed-K instance is solved:
    :func:`throughput_kiter` solves every prepared round with a per-graph
    engine, while the fleet driver (:mod:`repro.kperiodic.fleet`) stacks
    the prepared constraint graphs of many machines and advances them all
    through one batched kernel pass per round.

    Protocol per round::

        machine.plan()                      # optional; may raise
        prepared = machine.prepare()        # may raise SolverError/Budget
        try:
            # the warm certificate, when one holds; else an engine
            result = (machine.certify(prepared)
                      or <solve prepared.bi_graph somehow>)
        except DeadlockError as exc:
            machine.absorb_deadlock(exc)    # escalates K (may re-raise)
        else:
            if machine.absorb(result):      # Theorem 4 certified?
                final = machine.finalize()

    Escalation, warm-start seeding, the infeasible-round full-q jump and
    budget/round caps are byte-for-byte the classic loop's semantics —
    :func:`throughput_kiter` is a thin driver over this machine.
    """

    def __init__(
        self,
        graph,
        *,
        max_rounds: int = 100_000,
        time_budget: Optional[float] = None,
        initial_k: Optional[Dict[str, int]] = None,
        update_policy: str = "lcm",
        warm_start: bool = True,
        expansion_cache=None,
        repetition: Optional[Dict[str, int]] = None,
        warm: Optional[WarmStart] = None,
    ) -> None:
        if update_policy not in ("lcm", "full-q"):
            raise ConfigurationError(
                f"unknown update_policy {update_policy!r} "
                "(choose 'lcm' or 'full-q')"
            )
        self.graph = graph
        self.max_rounds = max_rounds
        self.update_policy = update_policy
        self.warm_start = warm_start
        self.q = (
            dict(repetition) if repetition is not None
            else cached_repetition_vector(graph)
        )
        self.K: Dict[str, int] = (
            dict(initial_k) if initial_k else {t: 1 for t in self.q}
        )
        self.budget = TimeBudget(time_budget, label="K-Iter")
        # The per-graph block cache makes round i+1 recompute only the
        # buffers whose endpoint K escalated; it is bound to the graph
        # object, so pool workers reusing a parsed graph share it too.
        # A DseSession passes its own cache instead: the session owns
        # the invalidation bookkeeping across graph edits, which the
        # weak-key per-object binding cannot express.
        self.cache = (
            expansion_cache if expansion_cache is not None
            else expansion_cache_for(graph)
        )
        self.rounds: List[KIterRound] = []
        self.final: Optional[KPeriodicResult] = None
        self._rounds_left = max_rounds
        self._infeasible_rounds = 0
        self._prev_lambda: Optional[Fraction] = None
        self._prev_lcm: Optional[int] = None
        self._lcm_k: Optional[int] = None
        # Cross-solve state (DseSession), for the *first* prepared
        # round only: the certificate is replayed before any engine
        # runs, and its λ̂ seeds the engine when the caller vouches that
        # no edit since could have lowered λ*. An overshooting seed
        # costs probes, never exactness (the engines restart from the
        # utilization bound on an uncertified start).
        self._certificate = warm.certificate if warm is not None else None
        self._initial_seed = (
            self._certificate.lam
            if self._certificate is not None and warm.seed else None
        )
        # The certificate replayed on the first round, and the quiet
        # distances if it held: the next certificate's potentials, or
        # where computing them starts.
        self._replayed: Optional[WarmCertificate] = None
        self._quiet: Optional[List[int]] = None
        # The round plan() opened and its warm-start seed, until
        # prepare() builds it.
        self._plan: Optional[MinPeriodPlan] = None
        self._seed: Optional[Fraction] = None

    @property
    def done(self) -> bool:
        return self.final is not None

    def plan(self) -> MinPeriodPlan:
        """Open the next round and validate its fixed-K compile.

        The fleet driver plans a whole lockstep round first, derives the
        missing arc blocks of every plan in one pass, and hands each
        machine its blocks through :meth:`prepare`; :meth:`prepare`
        opens the round itself when nothing planned it.
        """
        if self._rounds_left <= 0:
            raise SolverError(f"K-Iter exceeded {self.max_rounds} rounds")
        self._rounds_left -= 1
        self.budget.check()
        _ROUNDS_TOTAL.inc()
        plan = plan_min_period(
            self.graph, self.K, repetition=self.q,
            expansion_cache=self.cache,
        )
        self._lcm_k = plan.lcm_k
        seed = None
        if self._initial_seed is not None:
            if self.warm_start and self._prev_lambda is None:
                seed = self._initial_seed
            self._initial_seed = None  # first prepared round only
        if (
            seed is None
            and self.warm_start
            and self._prev_lambda is not None
            and self._prev_lcm is not None
            and self._lcm_k > self._prev_lcm
        ):
            # Deliberately NOT rescaled to the new lcm: Ω = λ*/lcm(K)
            # is non-increasing along K escalation (the K-periodic
            # schedule class only grows), so Ω_prev·lcm_new would
            # overshoot the new λ* and cost restart probes. The raw
            # previous λ* stays below the new λ* whenever lcm grew
            # (the guard above); it beats the utilization seed exactly
            # when the certified period exceeded the utilization bound
            # by more than the lcm growth factor.
            seed = self._prev_lambda
        self._seed = seed
        self._plan = plan
        return plan

    def prepare(self, blocks=None) -> PreparedMinPeriod:
        """Set up the round's fixed-K constraint graph.

        ``blocks`` is the :class:`~repro.kperiodic.expansion.BlockSet`
        resolved ahead for the compile of the round :meth:`plan` opened.
        """
        plan = self._plan if self._plan is not None else self.plan()
        self._plan = None
        return prepare_min_period(
            self.graph, self.K, warm_start=self._seed, plan=plan,
            blocks=blocks,
        )

    def certify(self, prepared: PreparedMinPeriod) -> Optional[KPeriodicResult]:
        """Replay the warm certificate on the first round, if any.

        Returns the round's result when the certificate proves λ* on
        this graph (no engine call), ``None`` when there is none or it
        does not hold — the round is then solved by an engine as usual.
        """
        certificate, self._certificate = self._certificate, None
        if certificate is None:
            return None
        self._replayed = certificate
        with _span("dse.certify") as sp:
            check = certify_warm(prepared, certificate)
            sp.attrs["outcome"] = check.outcome
            sp.attrs["sweeps"] = check.sweeps
        if check.result is None:
            return None
        self._quiet = check.potentials
        result = finish_min_period(prepared, check.result)
        result.warm_certified = True
        return result

    def certificate(
        self, prepared: PreparedMinPeriod
    ) -> Optional[WarmCertificate]:
        """The certified final round's certificate, for the next solve."""
        if self.final is None:
            raise SolverError("KIterMachine.certificate() before certification")
        quiet = self._quiet if self.final.warm_certified else None
        return warm_certificate(prepared, self.final, quiet, self._replayed)

    def absorb(self, result: KPeriodicResult) -> bool:
        """Record a solved round; ``True`` when Theorem 4 certified it."""
        if result.omega == 0:
            # No constraining circuit at all: unbounded throughput is
            # trivially optimal for any K.
            self.rounds.append(
                KIterRound(dict(self.K), result.omega, set(), True,
                           result.graph_nodes, result.graph_arcs,
                           result.engine_iterations,
                           result.warm_certified)
            )
            self.final = result
            return True
        passed, qbar = optimality_test(self.q, self.K, result.critical_tasks)
        self.rounds.append(
            KIterRound(
                K=dict(self.K),
                omega=result.omega,
                critical_tasks=set(result.critical_tasks),
                passed=passed,
                graph_nodes=result.graph_nodes,
                graph_arcs=result.graph_arcs,
                engine_iterations=result.engine_iterations,
                warm_certified=result.warm_certified,
            )
        )
        if passed:
            self.final = result
            return True
        _ESC_OPTIMALITY.inc()
        self._prev_lambda = result.omega_expanded
        self._prev_lcm = self._lcm_k
        if self.update_policy == "lcm":
            self.K = update_periodicity(self.K, qbar)
        else:  # "full-q"
            K = dict(self.K)
            for t in result.critical_tasks:
                K[t] = self.q[t]
            self.K = K
        return False

    def absorb_deadlock(self, exc: DeadlockError) -> None:
        """Escalate K along an infeasible circuit (may re-raise ``exc``)."""
        # The escalation jumps K along the infeasible circuit; the
        # previous certified λ* is from a much smaller expansion and
        # no longer a trustworthy seed.
        self._prev_lambda = self._prev_lcm = None
        self._infeasible_rounds += 1
        if self._infeasible_rounds >= 3 and any(
            self.K[t] < self.q[t] for t in self.q
        ):
            # Tightly-bounded graphs can hide dozens of distinct
            # infeasible circuits; discovering them one MCRP solve at
            # a time costs more than one full-q round. Record the
            # escalation and go straight to the exact expansion.
            self.rounds.append(
                KIterRound(
                    K=dict(self.K), omega=None,
                    critical_tasks=set(exc.critical_tasks or ()),
                    passed=False, graph_nodes=0, graph_arcs=0,
                )
            )
            self.K = dict(self.q)
            _ESC_FULL_Q.inc()
            return
        _ESC_INFEASIBLE.inc()
        self.K = _escalate_infeasible(
            self.graph, self.q, self.K, exc, self.rounds
        )

    def finalize(
        self,
        *,
        build_schedule: bool = False,
        engine: str = DEFAULT_ENGINE,
    ) -> KIterResult:
        """Package the certified result (requires a prior ``absorb`` → True)."""
        if self.final is None:
            raise SolverError("KIterMachine.finalize() before certification")
        return _finalize(
            self.graph, self.q, self.K, self.final, self.rounds,
            build_schedule, engine, self.cache,
        )


def throughput_kiter(
    graph,
    *,
    engine: str = DEFAULT_ENGINE,
    build_schedule: bool = False,
    max_rounds: int = 100_000,
    time_budget: Optional[float] = None,
    initial_k: Optional[Dict[str, int]] = None,
    update_policy: str = "lcm",
    warm_start: bool = True,
    expansion_cache=None,
    repetition: Optional[Dict[str, int]] = None,
    warm: Optional[WarmStart] = None,
) -> KIterResult:
    """Exact maximum throughput of a consistent CSDFG via K-Iter.

    Parameters
    ----------
    graph:
        A consistent CSDFG (liveness is established as a side effect: a
        deadlocked graph raises :class:`~repro.exceptions.DeadlockError`
        at the first round).
    engine:
        Registered MCRP engine name passed through to the fixed-K
        solver (see :func:`repro.mcrp.registry.engine_names`;
        ``ratio-iteration``, ``hybrid`` and ``karp`` out of the box).
    build_schedule:
        Extract the certified K-periodic schedule of the final round
        (costs one extra longest-path pass).
    max_rounds:
        Safety cap on rounds (the theoretical bound — the number of
        elementary circuits — is astronomically larger than any observed
        round count).
    time_budget:
        Optional wall-clock budget in seconds
        (:class:`~repro.exceptions.BudgetExceededError` on exhaustion) —
        used by the benchmark harness for timeout rows.
    initial_k:
        Starting periodicity vector (defaults to all-ones). Passing ``q``
        reproduces the classical exact-but-huge expansion in one round.
    update_policy:
        ``"lcm"`` — Algorithm 1's update ``K_t ← lcm(K_t, q̄_t)``
        (default); ``"full-q"`` — jump critical-circuit tasks straight to
        ``q_t`` (fewer rounds, bigger expansions; ablation A2,
        ``benchmarks/bench_kiter_policies.py``, measures the trade).
        Any other value raises
        :class:`~repro.exceptions.ConfigurationError` before the first
        round.
    warm_start:
        Seed each round's engine with the previous round's certified
        ``λ*`` in addition to the utilization bound (the constraint
        graph grows along K escalation, so the previous optimum is a
        strong — and on the golden corpus always valid — starting
        point). Only applied when ``lcm(K)`` strictly grew, which keeps
        the seed below the new ``λ*``; a hypothetical overshoot would
        cost extra probes, never exactness (see
        :func:`repro.kperiodic.solver.min_period_for_k`).
    expansion_cache:
        Explicit :class:`~repro.kperiodic.expansion.ExpansionBlockCache`
        to use instead of the graph's weak-key-bound one — the
        :class:`repro.dse.DseSession` hook, whose edits create fresh
        graph objects but keep one selectively-invalidated cache.
    repetition:
        Pre-computed repetition vector ``q`` of ``graph`` (skips the
        exact rational propagation — another DseSession memo).
    warm:
        A :class:`WarmStart` from a previous solve (meaningful with
        ``initial_k`` set to that solve's certified K). Its certificate
        is replayed on the first round: when that round's K is the
        certificate's, its circuit still has ratio ``λ̂`` and a
        relaxation at ``λ̂`` from its potentials goes quiet within
        ``_MAX_JACOBI_SWEEPS`` sweeps, the round is ``λ̂`` with no
        engine call (:func:`~repro.kperiodic.solver.certify_warm`).
        Otherwise the engine runs, seeded with ``λ̂`` if ``warm.seed``.
        Exactness never depends on it: both checks are exact on the
        current graph, and an overshooting seed only costs restart
        probes. With ``warm`` set, the result's ``certificate`` is
        filled for the next solve (one potentials pass after an engine
        solve; the quiet distances after a replayed one).

    Examples
    --------
    >>> from repro.model import sdf
    >>> g = sdf({"A": 1, "B": 1},
    ...         [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
    >>> throughput_kiter(g).period
    Fraction(2, 1)
    """
    machine = KIterMachine(
        graph, max_rounds=max_rounds, time_budget=time_budget,
        initial_k=initial_k, update_policy=update_policy,
        warm_start=warm_start, expansion_cache=expansion_cache,
        repetition=repetition, warm=warm,
    )
    while True:
        with _span("kiter.round", engine=engine,
                   round=len(machine.rounds)) as round_span:
            prepared = machine.prepare()
            round_span.attrs["lcm_K"] = machine._lcm_k
            try:
                result = (machine.certify(prepared)
                          or solve_prepared_min_period(prepared, engine))
            except DeadlockError as exc:
                machine.absorb_deadlock(exc)
                continue
            certified = machine.absorb(result)
        if certified:
            out = machine.finalize(build_schedule=build_schedule,
                                   engine=engine)
            if warm is not None:
                out.certificate = machine.certificate(prepared)
            return out


def _escalate_infeasible(
    graph,
    q: Dict[str, int],
    K: Dict[str, int],
    exc: DeadlockError,
    rounds: List[KIterRound],
) -> Dict[str, int]:
    """Raise K along a circuit that admits no K-periodic schedule.

    An infeasible circuit is "infinitely critical". The update jumps its
    tasks straight to full repetition (``K_t = q_t``): intermediate K
    values along a genuinely tight circuit almost always stay infeasible
    (measured on the bounded Table 2 graphs — dozens of wasted rounds),
    and at ``K_t = q_t`` the circuit's constraints coincide with the full
    expansion's, so a *still*-infeasible circuit over full-q tasks is a
    genuine deadlock — re-raised with its certificate. Exactness is
    unaffected: the final feasible round still certifies optimality via
    Theorem 4.
    """
    tasks = exc.critical_tasks
    if not tasks:
        raise exc  # no certificate to escalate along
    rounds.append(
        KIterRound(
            K=dict(K),
            omega=None,
            critical_tasks=set(tasks),
            passed=False,
            graph_nodes=0,
            graph_arcs=0,
        )
    )
    if all(K[t] == q[t] for t in tasks):
        raise exc
    updated = dict(K)
    for t in tasks:
        updated[t] = q[t]
    return updated


def _finalize(
    graph,
    q: Dict[str, int],
    K: Dict[str, int],
    result: KPeriodicResult,
    rounds: List[KIterRound],
    build_schedule: bool,
    engine: str,
    cache=None,
) -> KIterResult:
    schedule = None
    if build_schedule and result.omega > 0:
        # The final round's blocks are all cache hits: the schedule
        # rebuild pays only assembly and the longest-path pass.
        final = min_period_for_k(
            graph, K, engine=engine, build_schedule=True, repetition=q,
            expansion_cache=cache,
        )
        schedule = final.schedule
    return KIterResult(
        period=result.omega,
        K=dict(K),
        critical_tasks=set(result.critical_tasks),
        rounds=rounds,
        schedule=schedule,
    )


def solve_kiter_payload(
    payload: Mapping[str, Any], *, graph=None
) -> Dict[str, Any]:
    """Pure, picklable K-Iter entry point: plain dict in, plain dict out.

    A fleet of one: see :func:`repro.kperiodic.fleet.solve_fleet_payloads`
    for the payload keys and the outcome schema. ``graph`` optionally
    injects an already deserialized
    :class:`~repro.model.graph.CsdfGraph` (per-worker graph reuse).
    """
    from repro.kperiodic.fleet import solve_fleet_payloads

    return solve_fleet_payloads([payload], [graph])[0]


def throughput_via_full_expansion(graph, *, engine: str = DEFAULT_ENGINE):
    """Exact throughput with ``K = q`` in one shot (test oracle).

    This is the classical "repetition-vector expansion" bound the paper
    uses as the known-exact extreme; its constraint graph has
    ``Σ_t q_t·ϕ(t)`` nodes, so only use it on small graphs.
    """
    q = repetition_vector(graph)
    return min_period_for_k(graph, q, engine=engine, build_schedule=False,
                            repetition=q)
