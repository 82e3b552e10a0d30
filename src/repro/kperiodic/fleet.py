"""The payload driver: K-Iter over a chunk of payloads.

:func:`solve_fleet_payloads` is the one function that turns K-Iter job
payloads (plain dicts) into outcome dicts; the pool workers, the
distributed workers, the service's inline mode and
:func:`repro.kperiodic.kiter.solve_kiter_payload` (a fleet of one) all
run it. It builds one :class:`~repro.kperiodic.kiter.KIterMachine` per
payload and advances them all through
:func:`~repro.kperiodic.kiter.kiter_lockstep`, the one K-Iter round
loop (the one :func:`~repro.kperiodic.kiter.throughput_kiter` runs
too): each round batches the block pass and the engine across the
chunk, and finished machines drop out.

Engine fallback lives here. A :class:`~repro.exceptions.SolverError`
(an unknown engine name, a failed ``prepare`` such as the round cap, a
certification failure) moves that job alone to the next engine of its
``fallback_engines`` chain with a fresh machine; the other jobs of the
chunk are not disturbed and nothing is solved twice. A
:class:`~repro.exceptions.ConfigurationError` (an unknown
``update_policy``) fails on every engine alike, so it ends the job at
once, attributed to no engine.

Every outcome dict carries a ``"batched"`` key: ``True`` when at least
one round of that payload's solve went through the batched kernel.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    DeadlockError,
    ReproError,
    SolverError,
)
from repro.kperiodic.kiter import KIterMachine, KIterResult, kiter_lockstep
from repro.mcrp.registry import DEFAULT_ENGINE, get_engine
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.obs.slowlog import observe_solve as _observe_solve
from repro.obs.trace import current_trace as _current_trace
from repro.obs.trace import emit_event as _emit_event
from repro.obs.trace import new_trace_id as _new_trace_id
from repro.obs.trace import tracing_enabled as _tracing_enabled

_FLEET_JOBS = _REGISTRY.counter("repro_fleet_jobs_total")
_SOLVER_JOBS = _REGISTRY.counter("repro_solver_jobs_total")
_SOLVER_SECONDS = _REGISTRY.histogram("repro_solver_seconds")


class _FleetJob:
    """One payload's engine chain, current machine and outcome."""

    __slots__ = ("payload", "graph", "engines", "position", "machine",
                 "batched", "outcome")

    def __init__(self, payload: Mapping[str, Any], graph) -> None:
        self.payload = payload
        self.graph = graph
        self.engines = [payload.get("engine", DEFAULT_ENGINE),
                        *payload.get("fallback_engines", ())]
        self.position = 0
        self.machine: Optional[KIterMachine] = None
        self.batched = False
        self.outcome: Optional[Dict[str, Any]] = None

    @property
    def engine(self) -> str:
        return self.engines[self.position]


def solve_fleet_payloads(
    payloads: Sequence[Mapping[str, Any]],
    graphs: Optional[Sequence[Any]] = None,
) -> List[Dict[str, Any]]:
    """Solve a chunk of K-Iter payloads in one lockstep loop.

    Payload keys (all optional except ``graph``): ``engine``,
    ``fallback_engines``, ``update_policy`` (``"lcm"``/``"full-q"``),
    ``initial_k``, ``max_rounds``, ``time_budget``, plus the
    pass-through ``digest`` and ``trace`` context. ``graphs`` optionally
    injects already-deserialized :class:`~repro.model.graph.CsdfGraph`
    objects aligned with ``payloads`` (entries may be ``None``); a
    worker's reused graph object carries its expansion block cache
    across jobs (see
    :func:`repro.kperiodic.expansion.expansion_cache_for`).

    Returns one outcome dict per payload, in order. Each carries
    ``status`` (``"OK"``, ``"DEADLOCK"``, ``"TIMEOUT"`` or ``"ERROR"``),
    ``engine_used``, ``fallback``, ``wall_time``, ``worker_pid`` and
    ``batched``; an ``"OK"`` outcome adds the exact ``period`` as a
    ``[numerator, denominator]`` pair, the certified ``K`` vector,
    ``rounds``, ``engine_iterations`` and the final ``critical_tasks``,
    any other status an ``error`` message.
    """
    from repro.model.graph import CsdfGraph

    started = time.perf_counter()
    jobs: List[_FleetJob] = []
    live: List[_FleetJob] = []
    for index, payload in enumerate(payloads):
        graph = graphs[index] if graphs is not None else None
        if graph is None:
            graph = CsdfGraph.from_dict(payload["graph"])
        job = _FleetJob(payload, graph)
        jobs.append(job)
        try:
            job.machine = _machine(job)
        except ReproError as exc:
            if not _recover(job, started, exc):
                continue
        live.append(job)

    kiter_lockstep(
        live,
        recover=lambda job, exc: _recover(job, started, exc),
        finish=lambda job: _finish(job, started, "OK",
                                   final=job.machine.finalize()),
    )
    return [job.outcome for job in jobs]  # type: ignore[misc]


def _machine(job: _FleetJob) -> KIterMachine:
    """A fresh machine for the job's current engine.

    The machine is built first, so a :class:`ConfigurationError` ends
    the job whatever its engine names.
    """
    payload = job.payload
    machine = KIterMachine(
        job.graph,
        max_rounds=payload.get("max_rounds", 100_000),
        time_budget=payload.get("time_budget"),
        initial_k=payload.get("initial_k"),
        update_policy=payload.get("update_policy", "lcm"),
    )
    get_engine(job.engine)  # an unknown name is a SolverError: fall back
    return machine


def _recover(job: _FleetJob, started: float, exc: ReproError) -> bool:
    """Restart ``job`` on its next engine, or finish it on ``exc``.

    A :class:`SolverError` moves the job down its engine chain with a
    fresh machine (``True``: the job is live again); any other error,
    or a SolverError on the last engine, is terminal (``False``). A
    :class:`ConfigurationError` is attributed to no engine.
    """
    while isinstance(exc, SolverError):
        error = f"{job.engine}: {exc}"
        if job.position + 1 == len(job.engines):
            _finish(job, started, "ERROR", error=error)
            return False
        job.position += 1
        try:
            job.machine = _machine(job)
            return True
        except ReproError as retry_exc:
            exc = retry_exc
    if isinstance(exc, DeadlockError):
        status = "DEADLOCK"
    elif isinstance(exc, BudgetExceededError):
        status = "TIMEOUT"
    else:
        status = "ERROR"
    engine_used = "" if isinstance(exc, ConfigurationError) else None
    _finish(job, started, status, error=str(exc), engine_used=engine_used)
    return False


def _finish(
    job: _FleetJob,
    started: float,
    status: str,
    *,
    final: Optional[KIterResult] = None,
    error: str = "",
    engine_used: Optional[str] = None,
) -> None:
    """Build a job's outcome dict and record it: the one recording site."""
    outcome: Dict[str, Any] = {"status": status}
    if final is not None:
        outcome.update(
            period=[final.period.numerator, final.period.denominator],
            K=dict(final.K),
            rounds=final.iteration_count,
            engine_iterations=final.engine_iteration_count,
            critical_tasks=sorted(final.critical_tasks),
        )
    else:
        outcome["error"] = error
    wall_time = time.perf_counter() - started
    outcome.update(
        engine_used=job.engine if engine_used is None else engine_used,
        fallback=job.position > 0,
        wall_time=wall_time,
        worker_pid=os.getpid(),
        batched=job.batched,
    )
    job.outcome = outcome

    if status != "OK":
        mode = "failed"
    else:
        mode = "batched" if job.batched else "delegated"
    _FLEET_JOBS.labels(mode=mode).inc()
    _SOLVER_JOBS.labels(status=status).inc()
    _SOLVER_SECONDS.observe(wall_time)
    _observe_solve(wall_time, job.payload, outcome)
    if _tracing_enabled():
        # Fleet jobs interleave inside the lockstep loop, so their
        # lifetimes cannot nest as context managers: each is one event,
        # adopting the payload's propagated trace context when it has
        # one and the enclosing span (or a fresh trace) otherwise.
        ctx = job.payload.get("trace") or _current_trace() or {}
        _emit_event(
            "job.solve",
            trace_id=str(ctx.get("trace_id") or _new_trace_id()),
            parent_id=ctx.get("parent_id"),
            t0=started, dur=wall_time,
            digest=str(job.payload.get("digest", ""))[:12],
            engine=outcome["engine_used"], status=status,
            batched=job.batched,
        )
