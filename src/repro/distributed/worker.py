"""The worker daemon: lease chunks, solve, report, heartbeat.

A :class:`Worker` drains any :class:`~repro.distributed.jobqueue.JobQueue`
— an in-process queue, a shared SQLite file, or a remote coordinator
via :class:`~repro.distributed.client.CoordinatorClient` (they all
speak the same lease/ack surface). Payloads run through the exact
single-host solve path: inline
:func:`repro.service.pool.solve_chunk` (per-worker graph LRU **and**
the PR-4 expansion block cache carry across every chunk this process
solves) or a :class:`~repro.service.pool.SolverPool` when
``workers > 0`` fans one daemon over several OS processes.

While a chunk is solving, a daemon thread heartbeats its leases at a
third of the visibility timeout, so long solves are never redelivered
out from under a live worker — and a worker that dies simply stops
heartbeating, which *is* the crash-recovery protocol. ``stop()`` (the
CLI wires it to SIGTERM/SIGINT) finishes the in-flight chunk, reports
it, and exits cleanly; ``drain=True`` exits once the queue is empty.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distributed.backends import CacheBackend, storable_outcome
from repro.distributed.jobqueue import LeasedJob
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import (
    collect_events,
    emit_event,
    new_trace_id,
    tracing_enabled,
)


@dataclass
class WorkerStats:
    """Lifetime counters of one worker daemon.

    A read-only *view* recomposed from the worker's registry cells
    (:attr:`Worker.stats`): these numbers and the ``repro_worker_*``
    families the daemon ships to the coordinator on heartbeat are the
    same counters by construction.
    """

    chunks: int = 0
    jobs: int = 0
    acks: int = 0
    stale: int = 0
    nacks: int = 0
    #: Jobs whose solve went through the batched fleet kernel (the
    #: worker runs the same chunk path as the single-host pool).
    batched: int = 0
    heartbeats: int = 0
    idle_polls: int = 0
    queue_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class Worker:
    """Lease → solve → report loop over a job queue.

    Parameters
    ----------
    queue:
        Anything speaking the :class:`JobQueue` lease/ack surface —
        including a :class:`CoordinatorClient`.
    cache:
        Optional local :class:`CacheBackend` to write deterministic
        outcomes through (useful for queue-only deployments; behind a
        coordinator the *server* populates the shared cache, so plain
        coordinator workers leave this ``None``).
    workers:
        ``0`` solves chunks inline in this process (maximum block-cache
        reuse); ``n ≥ 1`` fans chunks over a :class:`SolverPool`.
    chunk_size / poll_interval / visibility_timeout:
        Jobs per lease, idle sleep, and the lease's exclusivity window
        (``None`` uses the queue's default).
    drain:
        Exit once the queue reports no pending or leased jobs.
    max_chunks:
        Stop after this many solved chunks (tests and smoke runs).
    """

    def __init__(
        self,
        queue: Any,
        *,
        cache: Optional[CacheBackend] = None,
        worker_id: Optional[str] = None,
        workers: int = 0,
        mp_context: Any = None,
        chunk_size: int = 4,
        poll_interval: float = 0.5,
        visibility_timeout: Optional[float] = None,
        drain: bool = False,
        max_chunks: Optional[int] = None,
    ):
        self.queue = queue
        self.cache = cache
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.chunk_size = max(1, chunk_size)
        self.poll_interval = poll_interval
        self.visibility_timeout = visibility_timeout
        self.drain = drain
        self.max_chunks = max_chunks
        # Per-worker registry chained to the process-global one: the
        # cells below are this daemon's stats() *and* feed the
        # /metrics families it ships inside heartbeats/reports.
        self._registry = MetricsRegistry(parent=REGISTRY)
        self._cells = {
            field: self._registry.counter(f"repro_worker_{field}_total")
                       .labels()
            for field in (
                "chunks", "jobs", "acks", "stale", "nacks", "batched",
                "heartbeats", "idle_polls", "queue_errors",
            )
        }
        self._workers = workers
        self._mp_context = mp_context
        self._pool = None
        self._stop = threading.Event()

    @property
    def stats(self) -> WorkerStats:
        """Counter view recomposed from this worker's registry cells."""
        return WorkerStats(**{
            field: int(cell.value) for field, cell in self._cells.items()
        })

    # -- lifecycle -------------------------------------------------------
    def stop(self) -> None:
        """Ask the loop to exit after the in-flight chunk reports."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def _ensure_pool(self):
        if self._workers > 0 and self._pool is None:
            from repro.service.pool import SolverPool

            self._pool = SolverPool(
                self._workers, mp_context=self._mp_context
            )
        return self._pool

    def _drained(self) -> bool:
        depth = getattr(self.queue, "depth", None)
        if depth is None:
            return True
        counts = depth()
        return counts.get("pending", 0) + counts.get("leased", 0) == 0

    # -- heartbeats ------------------------------------------------------
    def _heartbeat_interval(self, jobs: Sequence[LeasedJob]) -> float:
        """A third of the *actual* lease window, clamped to [0.2, 10] s.

        The leases' own deadlines are authoritative — a coordinator
        configured with a short ``--visibility-timeout`` must be
        heartbeated faster than any client-side default would guess.
        """
        windows = [j.deadline - time.time() for j in jobs if j.deadline]
        if windows and min(windows) > 0:
            return min(10.0, max(0.2, min(windows) / 3.0))
        visibility = self.visibility_timeout
        if visibility is None:
            visibility = getattr(self.queue, "visibility_timeout", 30.0)
        return min(10.0, max(0.2, visibility / 3.0))

    def _heartbeat_loop(self, jobs: Sequence[LeasedJob],
                        done: threading.Event) -> None:
        interval = self._heartbeat_interval(jobs)
        leases = [{"job_id": j.job_id, "token": j.token} for j in jobs]
        batched = getattr(self.queue, "heartbeat_many", None)
        while not done.wait(interval):
            # A missed heartbeat is recoverable (the lease just runs
            # its timeout down); never kill the solve over it, and try
            # again next tick rather than abandoning the loop.
            try:
                if batched is not None:
                    # Ship the latest metric snapshot with each batched
                    # heartbeat so the coordinator's /metrics covers
                    # this worker mid-solve (queues that don't take a
                    # metrics kwarg just get the plain call).
                    try:
                        accepted = batched(
                            leases, worker_id=self.worker_id,
                            metrics=REGISTRY.snapshot(),
                        )
                    except TypeError:
                        accepted = batched(leases,
                                           worker_id=self.worker_id)
                    self._cells["heartbeats"].inc(
                        sum(map(bool, accepted)))
                else:
                    for job in jobs:
                        if self.queue.heartbeat(job.job_id, job.token):
                            self._cells["heartbeats"].inc()
            except Exception:  # noqa: BLE001 - keep solving
                continue

    # -- the loop --------------------------------------------------------
    def run(self) -> WorkerStats:
        """Drain the queue until stopped; returns the final counters.

        Queue/transport failures (a coordinator restart, one timed-out
        HTTP request) never kill the daemon: the loop backs off and
        retries — any chunk that was leased when a report failed is
        simply redelivered after its visibility timeout.
        """
        consecutive_errors = 0
        try:
            while not self._stop.is_set():
                try:
                    jobs = self.queue.lease(
                        self.chunk_size, worker_id=self.worker_id,
                        visibility_timeout=self.visibility_timeout,
                    )
                    if not jobs:
                        self._cells["idle_polls"].inc()
                        if self.drain and self._drained():
                            break
                        if self._stop.wait(self.poll_interval):
                            break
                        continue
                    self.solve_chunk(jobs)
                except Exception:  # noqa: BLE001 - outlive the outage
                    self._cells["queue_errors"].inc()
                    consecutive_errors += 1
                    backoff = min(
                        10.0, self.poll_interval * (2 ** min(
                            consecutive_errors, 6
                        ))
                    )
                    if self._stop.wait(backoff):
                        break
                    continue
                consecutive_errors = 0
                self._cells["chunks"].inc()
                if self.max_chunks is not None \
                        and self._cells["chunks"].value >= self.max_chunks:
                    break
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        return self.stats

    def _trace_contexts(
        self, jobs: Sequence[LeasedJob]
    ) -> Tuple[List[Dict[str, Any]], List[Optional[Tuple[str, Any, str]]]]:
        """Re-parent each traced payload under a fresh worker span.

        Returns the payloads to solve plus, per job, ``(trace_id,
        original parent span, worker span id)`` — the worker span is
        what ``job.solve`` parents under, and the ``worker.solve``
        event emitted after the chunk closes the sandwich:
        ``client.job → worker.solve → job.solve``.
        """
        payloads: List[Dict[str, Any]] = []
        contexts: List[Optional[Tuple[str, Any, str]]] = []
        for job in jobs:
            payload = job.payload
            trace_ctx = (payload or {}).get("trace") or {}
            if tracing_enabled() and trace_ctx.get("trace_id"):
                worker_span = new_trace_id()
                payload = dict(payload)
                payload["trace"] = {
                    "trace_id": str(trace_ctx["trace_id"]),
                    "parent_id": worker_span,
                }
                contexts.append((str(trace_ctx["trace_id"]),
                                 trace_ctx.get("parent_id"), worker_span))
            else:
                contexts.append(None)
            payloads.append(payload)
        return payloads, contexts

    def _ship_trace(self, contexts: Sequence[Optional[Tuple]]) -> None:
        """Post this chunk's buffered trace events to the coordinator."""
        trace_ids = [ctx[0] for ctx in contexts if ctx is not None]
        if not trace_ids:
            return
        post = getattr(self.queue, "post_trace", None)
        if post is None:
            return
        events = collect_events(trace_ids, clear=True)
        if not events:
            return
        try:
            post(events)
        except Exception:  # noqa: BLE001 - tracing never kills a solve
            pass

    def solve_chunk(self, jobs: Sequence[LeasedJob]) -> None:
        """Solve one leased chunk and report every outcome.

        A payload whose graph does not decode is nacked on its own, so
        one poisoned job never takes its chunk-mates down with it; the
        rest of the chunk solves in one fleet pass and one report.
        """
        from repro.service.pool import cached_graph

        payloads, contexts = self._trace_contexts(jobs)
        started = time.perf_counter()
        solvable = []
        for job, payload, ctx in zip(jobs, payloads, contexts):
            try:
                # Decoded graphs stay in the solve path's LRU, so the
                # inline solve below does not decode them again.
                cached_graph(payload)
            except Exception as exc:  # noqa: BLE001 - e.g. no "graph"
                self._nack(job, ctx, started, repr(exc))
            else:
                solvable.append((job, payload, ctx))
        if solvable:
            self._solve_and_report(*map(list, zip(*solvable)), started)
        self._ship_trace(contexts)

    def _solve_and_report(self, jobs: List[LeasedJob],
                          payloads: List[Dict[str, Any]],
                          contexts: List[Optional[Tuple]],
                          started: float) -> None:
        done = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(jobs, done), daemon=True,
        )
        beat.start()
        try:
            pool = self._ensure_pool()
            if pool is not None:
                results = pool.solve(payloads)
            else:
                from repro.service.pool import solve_chunk

                results = solve_chunk(payloads)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            for job, ctx in zip(jobs, contexts):
                self._nack(job, ctx, started, repr(exc))
            return
        finally:
            done.set()
            beat.join()
        for job, ctx, outcome in zip(jobs, contexts, results):
            if ctx is not None:
                emit_event(
                    "worker.solve", trace_id=ctx[0], parent_id=ctx[1],
                    span_id=ctx[2],
                    dur=float(outcome.get("wall_time", 0.0)),
                    worker=self.worker_id, digest=job.digest[:12],
                    status=outcome.get("status", ""),
                )
        self._report(jobs, results)

    def _nack(self, job: LeasedJob, ctx: Optional[Tuple], started: float,
              error: str) -> None:
        if ctx is not None:
            emit_event(
                "worker.nack", trace_id=ctx[0], parent_id=ctx[1],
                span_id=ctx[2], dur=time.perf_counter() - started,
                worker=self.worker_id, digest=job.digest[:12],
                error=error,
            )
        try:
            self.queue.nack(job.job_id, job.token, error=error)
            self._cells["nacks"].inc()
        except Exception:  # noqa: BLE001
            pass

    def _report(self, jobs: Sequence[LeasedJob],
                results: Sequence[Dict[str, Any]]) -> None:
        rows: List[Dict[str, Any]] = []
        for job, outcome in zip(jobs, results):
            outcome = dict(outcome)
            outcome.setdefault("digest", job.digest)
            rows.append({
                "job_id": job.job_id, "token": job.token,
                "digest": job.digest, "outcome": outcome,
            })
        report = getattr(self.queue, "report", None)
        if report is not None:
            # The report also carries the final metric snapshot for the
            # chunk — fast chunks can finish before the first heartbeat
            # would ever have shipped one.
            try:
                accepted = report(rows, worker_id=self.worker_id,
                                  metrics=REGISTRY.snapshot())
            except TypeError:
                accepted = report(rows, worker_id=self.worker_id)
        else:
            accepted = [
                self.queue.ack(row["job_id"], row["token"],
                               row["outcome"])
                for row in rows
            ]
        for row, ok in zip(rows, accepted):
            self._cells["jobs"].inc()
            if row["outcome"].get("batched"):
                self._cells["batched"].inc()
            if not ok:
                # Redelivered elsewhere after a lease expiry: someone
                # else's result won — drop ours (no duplicates).
                self._cells["stale"].inc()
                continue
            self._cells["acks"].inc()
            if self.cache is not None \
                    and storable_outcome(row["outcome"]):
                self.cache.put(row["digest"], row["outcome"])

    def run_in_thread(self, name: Optional[str] = None) -> threading.Thread:
        """Start :meth:`run` on a daemon thread (in-process fan-out)."""
        thread = threading.Thread(
            target=self.run, name=name or self.worker_id, daemon=True,
        )
        thread.start()
        return thread
