"""Uniform method execution with budgets for the table drivers.

Each throughput method is wrapped so a table cell is always one of:

* ``OK`` with an exact period and a wall-clock time;
* ``N/S`` — the method proved *its own* formulation infeasible (the
  1-periodic method on a live graph);
* ``DEADLOCK`` — the graph itself admits no schedule;
* ``TIMEOUT`` — the budget was exhausted (the paper's ``> 1d`` rows,
  scaled to laptop budgets).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from repro.baselines import (
    throughput_expansion,
    throughput_periodic,
    throughput_symbolic,
)
from repro.exceptions import BudgetExceededError, DeadlockError
from repro.kperiodic import throughput_kiter
from repro.mcrp.registry import DEFAULT_ENGINE


@dataclass
class MethodOutcome:
    """One table cell."""

    status: str  # "OK" | "N/S" | "DEADLOCK" | "TIMEOUT"
    period: Optional[Fraction]
    seconds: float

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    def time_text(self) -> str:
        if self.status == "TIMEOUT":
            return f"> {self.seconds:.0f}s"
        ms = self.seconds * 1000.0
        if ms < 100:
            return f"{ms:.2f}ms"
        if ms < 10_000:
            return f"{ms:.0f}ms"
        return f"{self.seconds:.1f}s"

    def optimality_text(self, exact: Optional[Fraction]) -> str:
        """The paper's percentage column: Th_method / Th_optimal."""
        if self.status == "N/S":
            return "N/S"
        if self.status in ("TIMEOUT", "DEADLOCK"):
            return "-"
        if exact is None or self.period is None:
            return "??%"  # optimum itself unknown
        if self.period == 0:
            return "100%" if exact == 0 else "??%"
        ratio = float(exact / self.period) * 100.0
        return f"{ratio:.4g}%"


def method_names() -> list:
    """Every method name ``run_method`` accepts.

    K-Iter and service variants are enumerated per registered MCRP
    engine (``kiter@<engine>``, ``service@<engine>``), so a new
    registry engine is immediately benchable without touching this
    module.
    """
    from repro.mcrp.registry import engine_names

    base = ["kiter", "kiter-fullq", "service", "periodic", "symbolic",
            "expansion", "expansion-full", "unfolding", "maxplus"]
    return base + [
        f"{prefix}@{name}"
        for prefix in ("kiter", "service")
        for name in engine_names()
    ]


def run_method(
    method: str, graph, budget: float, *, engine: Optional[str] = None
) -> MethodOutcome:
    """Run one named method with a wall-clock budget.

    Methods: ``kiter``, ``kiter-fullq``, ``periodic``, ``symbolic``,
    ``expansion`` (SDF only), ``expansion-full``, ``unfolding``,
    ``maxplus``; plus one ``kiter@<engine>`` variant per registered
    MCRP engine. ``engine`` selects the MCRP engine for the K-Iter
    variants (the ``kiter@<engine>`` spelling is shorthand for it);
    the other methods do not take one.
    """
    from repro.baselines.unfolding import throughput_unfolding
    from repro.exceptions import SolverError
    from repro.mcrp.registry import get_engine

    if method.startswith(("kiter@", "service@")):
        method, spelled = method.split("@", 1)
        if engine is not None and engine != spelled:
            raise SolverError(
                f"conflicting engines: method {method}@{spelled!r} vs "
                f"engine={engine!r}"
            )
        engine = spelled
    mcrp_engine = engine if engine is not None else DEFAULT_ENGINE
    get_engine(mcrp_engine)  # fail fast on unknown engine names
    if engine is not None and method not in ("kiter", "kiter-fullq",
                                             "service"):
        raise SolverError(
            f"method {method!r} does not take an MCRP engine "
            "(only the kiter and service methods do)"
        )

    runners: dict[str, Callable[[], Optional[Fraction]]] = {
        "kiter": lambda: throughput_kiter(
            graph, time_budget=budget, engine=mcrp_engine
        ).period,
        "kiter-fullq": lambda: throughput_kiter(
            graph, time_budget=budget, update_policy="full-q",
            engine=mcrp_engine,
        ).period,
        "service": lambda: _service(graph, mcrp_engine, budget),
        "periodic": lambda: _periodic(graph),
        "symbolic": lambda: throughput_symbolic(
            graph, time_budget=budget
        ).period,
        "expansion": lambda: throughput_expansion(
            graph, reduced=True
        ).period,
        "expansion-full": lambda: throughput_expansion(
            graph, reduced=False
        ).period,
        "unfolding": lambda: throughput_unfolding(graph).period,
        "maxplus": lambda: _maxplus(graph),
    }
    runner = runners.get(method)
    if runner is None:
        raise SolverError(
            f"unknown method {method!r}; choose from {method_names()}"
        )
    start = time.perf_counter()
    try:
        period = runner()
    except BudgetExceededError:
        return MethodOutcome("TIMEOUT", None, budget)
    except DeadlockError:
        return MethodOutcome(
            "DEADLOCK", None, time.perf_counter() - start
        )
    except _NotSchedulable:
        return MethodOutcome("N/S", None, time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        # expansion has no internal budget hook; grade honestly
        return MethodOutcome("TIMEOUT", period, elapsed)
    return MethodOutcome("OK", period, elapsed)


def schedule_policy_names() -> list:
    """Every policy name ``run_schedule_policy`` accepts — the registry,
    verbatim, so a newly registered policy is immediately benchable."""
    from repro.scheduling import policy_names

    return policy_names()


def run_schedule_policy(
    policy: str,
    graph,
    budget: float,
    *,
    engine: str = DEFAULT_ENGINE,
    binding=None,
    **options,
) -> MethodOutcome:
    """Build one policy's schedule under a wall-clock budget.

    The outcome grid matches :func:`run_method`: ``OK`` carries the
    certified ``Ω`` (every policy certifies the same one — that equality
    is a bench *gate*, not just a table row), ``N/S`` means the policy
    proved its own formulation infeasible (a resource binding too tight
    for the certified period), and ``DEADLOCK``/``TIMEOUT`` pass
    through from the solve.
    """
    from repro.exceptions import SchedulingError
    from repro.scheduling import build_schedule, get_policy

    get_policy(policy)  # fail fast on unknown policy names
    start = time.perf_counter()
    try:
        outcome = build_schedule(
            graph, policy, engine=engine, binding=binding,
            time_budget=budget, **options,
        )
    except BudgetExceededError:
        return MethodOutcome("TIMEOUT", None, budget)
    except DeadlockError:
        return MethodOutcome(
            "DEADLOCK", None, time.perf_counter() - start
        )
    except SchedulingError:
        return MethodOutcome("N/S", None, time.perf_counter() - start)
    return MethodOutcome(
        "OK", outcome.omega, time.perf_counter() - start
    )


class _NotSchedulable(Exception):
    """Internal marker: the method's own relaxation is infeasible."""


def _service(graph, engine: str, budget: float) -> Optional[Fraction]:
    """One-shot solve through the service facade (cache disabled).

    Measures the serving layer's overhead over the bare K-Iter call;
    the batch-level speedups (dedup, cache, pool) are benchmarked by
    ``benchmarks/bench_service.py``.
    """
    from repro.exceptions import SolverError
    from repro.service import ResultCache, ThroughputService

    # No fallback chain: a bench row labelled service@<engine> must
    # fail like kiter@<engine> does, not silently report another
    # engine's numbers.
    service = ThroughputService(
        engine=engine, fallback_engines=(), time_budget=budget,
        cache=ResultCache(memory_size=0),
    )
    outcome = service.submit(graph)
    if outcome.status == "DEADLOCK":
        raise DeadlockError(outcome.error)
    if outcome.status == "TIMEOUT":
        raise BudgetExceededError(outcome.error)
    if outcome.status != "OK":
        raise SolverError(outcome.error or "service job failed")
    return outcome.period


def _maxplus(graph) -> Optional[Fraction]:
    from repro.maxplus import throughput_maxplus

    return throughput_maxplus(graph).period


def _periodic(graph) -> Optional[Fraction]:
    result = throughput_periodic(graph)
    if not result.feasible:
        raise _NotSchedulable()
    return result.period
