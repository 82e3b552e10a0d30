"""Process-pool execution of throughput jobs.

:class:`SolverPool` fans chunks of job payloads out over a
``concurrent.futures.ProcessPoolExecutor``. Chunking amortizes the IPC
and pickling cost of tiny jobs; each worker keeps a small LRU of
deserialized :class:`~repro.model.graph.CsdfGraph` objects keyed by the
job's graph digest (``cached_graph``), so a batch probing one graph
under several engines or K policies parses it once per worker. The
warm-started worker state goes further than parsing: the expansion
block cache of the direct K-expansion pipeline
(:func:`repro.kperiodic.expansion.expansion_cache_for`) is bound to the
graph *object*, so every job a worker solves on a cached graph reuses
the ``(buffer, K_src, K_dst)`` arc blocks of earlier jobs — the
useful-pair sweeps of a shared expansion run once per worker, not once
per job.

Failure containment:

* a **worker crash** (``BrokenProcessPool``) marks only the affected
  chunk ``ERROR``, recycles the executor and resubmits the untouched
  remainder of the batch;
* a **chunk timeout** (``job_timeout`` seconds per job, scaled by chunk
  size) marks the chunk ``TIMEOUT``, cancels everything still pending
  (those jobs report ``CANCELLED``) and recycles the executor so the
  next batch starts from healthy workers;
* :meth:`SolverPool.cancel` flips a flag any concurrent :meth:`solve`
  observes between chunks.

Everything submitted across the process boundary is a plain dict and
every worker entry point is a module-level function, so the pool works
under the ``spawn`` start method (the default on macOS/Windows, and the
no-assumptions mode the tests exercise) as well as ``fork``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.kperiodic.fleet import solve_fleet_payloads
from repro.model.graph import CsdfGraph
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.obs.trace import span as _span

# Global mirrors of PoolStats: the dataclass stays the per-pool view,
# these cells feed the same numbers to /metrics.
_POOL_CHUNKS = _REGISTRY.counter("repro_pool_chunks_total")
_POOL_JOBS = _REGISTRY.counter("repro_pool_jobs_total")
_POOL_FAILURES = _REGISTRY.counter("repro_pool_failures_total")
_POOL_TIMEOUTS = _POOL_FAILURES.labels(kind="timeout")
_POOL_CRASHES = _POOL_FAILURES.labels(kind="crash")
_POOL_CANCELLED = _POOL_FAILURES.labels(kind="cancelled")
_POOL_RECYCLES = _REGISTRY.counter("repro_pool_recycles_total")

#: Per-worker graphs kept parsed between jobs of one batch. Sized above
#: typical fleet working sets: a cyclic replay of N graphs through an
#: N-1 LRU evicts every entry just before its reuse (classic sequential
#: thrash), turning the graph/expansion caches into pure overhead.
_GRAPH_CACHE_LIMIT = 128
_GRAPH_CACHE: "OrderedDict[str, CsdfGraph]" = OrderedDict()


def cached_graph(
    payload: Dict[str, Any], decoded: Optional[CsdfGraph] = None
) -> CsdfGraph:
    """The payload's decoded graph; raises if it does not decode.

    The LRU is keyed by the payload's graph digest. On a miss the graph
    is decoded from ``payload["graph"]`` — unless the caller already
    holds it decoded (``decoded``, e.g. the :class:`ThroughputJob` that
    built the payload in this process), in which case that object is
    kept instead, so a queue-inline drain never decodes the job again.
    """
    # Keyed by the *graph* digest, not the job digest: jobs probing one
    # graph under several engines or K policies must share the entry.
    digest = payload.get("graph_digest") or payload.get("digest")
    graph = None if digest is None else _GRAPH_CACHE.get(digest)
    if graph is None:
        graph = decoded if decoded is not None \
            else CsdfGraph.from_dict(payload["graph"])
        if digest is None:
            return graph
        # The expansion block cache is keyed by this graph *object*
        # (repro.kperiodic.expansion.expansion_cache_for), so keeping
        # the object in the LRU is what carries arc blocks across jobs.
        _GRAPH_CACHE[digest] = graph
        while len(_GRAPH_CACHE) > _GRAPH_CACHE_LIMIT:
            _GRAPH_CACHE.popitem(last=False)
    else:
        _GRAPH_CACHE.move_to_end(digest)
    return graph


def solve_chunk(payloads: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Default worker function: batched lockstep solve with graph reuse.

    The whole chunk goes through
    :func:`repro.kperiodic.fleet.solve_fleet_payloads`, which advances a
    K-Iter machine per payload and answers each lockstep round with one
    batched MCRP kernel pass over the stacked constraint graphs. Graph
    objects come from the per-worker LRU, so the expansion block caches
    still carry across jobs.

    Explore chunks (``payload["kind"] == "explore"``, see
    :func:`repro.dse.explore.solve_explore_payload`) are whole sweeps,
    not single solves: each runs its own sticky
    :class:`~repro.dse.DseSession` here in the worker — the session's
    caches live where the solves do — and the remaining payloads still
    share one fleet pass.
    """
    payloads = list(payloads)
    with _span("pool.chunk", jobs=len(payloads)):
        explore_at = {
            index: payload for index, payload in enumerate(payloads)
            if payload.get("kind") == "explore"
        }
        if not explore_at:
            return solve_fleet_payloads(
                payloads, graphs=[cached_graph(p) for p in payloads]
            )
        from repro.dse.explore import solve_explore_payload

        plain = [p for i, p in enumerate(payloads) if i not in explore_at]
        plain_results = iter(solve_fleet_payloads(
            plain, graphs=[cached_graph(p) for p in plain]
        ))
        return [
            solve_explore_payload(payload, graph=cached_graph(payload))
            if index in explore_at else next(plain_results)
            for index, payload in enumerate(payloads)
        ]


def _warm_worker() -> None:
    """Executor initializer: import the engine stack once per worker."""
    import repro.mcrp  # noqa: F401  (registers every built-in engine)


@dataclass
class PoolStats:
    """Execution counters of one :class:`SolverPool` lifetime."""

    jobs: int = 0
    chunks: int = 0
    timeouts: int = 0
    crashes: int = 0
    cancelled: int = 0
    recycles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "jobs": self.jobs,
            "chunks": self.chunks,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "cancelled": self.cancelled,
            "recycles": self.recycles,
        }


class SolverPool:
    """Chunked, fault-contained process-pool front end for job payloads.

    Parameters
    ----------
    max_workers:
        Worker process count (default: ``os.cpu_count()`` capped at 8).
    mp_context:
        Start method: a name (``"fork"``, ``"spawn"``, …), a
        ``multiprocessing`` context, or ``None`` for the platform
        default.
    chunk_size:
        Jobs per submitted chunk; ``None`` sizes chunks so each worker
        sees ~4 of them (good latency/amortization balance).
    job_timeout:
        Wall-clock seconds granted *per job*; a chunk must finish within
        ``job_timeout × len(chunk)`` once it reaches the front of the
        wait queue. ``None`` waits forever.
    worker_fn:
        Override of :func:`solve_chunk` (must be picklable — a
        module-level function); the fault-injection tests use this.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        mp_context: Union[str, Any, None] = None,
        chunk_size: Optional[int] = None,
        job_timeout: Optional[float] = None,
        worker_fn: Optional[
            Callable[[Sequence[Dict[str, Any]]], List[Dict[str, Any]]]
        ] = None,
    ):
        if max_workers is None:
            max_workers = min(os.cpu_count() or 2, 8)
        if max_workers < 1:
            raise ValueError("SolverPool needs at least one worker")
        self.max_workers = max_workers
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self.chunk_size = chunk_size
        self.job_timeout = job_timeout
        self._worker_fn = worker_fn or solve_chunk
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._cancel_event = threading.Event()
        self.stats = PoolStats()

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=self._mp_context,
                    initializer=_warm_worker,
                )
            return self._executor

    def _recycle(self) -> None:
        """Tear the executor down (hard) so the next chunk starts clean."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        self.stats.recycles += 1
        _POOL_RECYCLES.inc()
        # Kill live workers first: shutdown() alone would block behind a
        # hung or doomed job, and a timed-out worker never becomes
        # reusable anyway. _processes is stdlib-private but stable; the
        # fallback is an orderly (slower) shutdown.
        processes = getattr(executor, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - platform-specific
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def submit_chunk(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> "Future[List[Dict[str, Any]]]":
        """Submit one chunk; the future resolves to its outcome dicts."""
        self.stats.chunks += 1
        self.stats.jobs += len(payloads)
        _POOL_CHUNKS.inc()
        _POOL_JOBS.inc(len(payloads))
        return self._ensure_executor().submit(
            self._worker_fn, list(payloads)
        )

    def _auto_chunk(self, count: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        per_worker_batches = 4
        return max(1, -(-count // (self.max_workers * per_worker_batches)))

    # ------------------------------------------------------------------
    def solve(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Run every payload, preserving input order.

        Always returns one outcome dict per payload; infrastructure
        failures surface as ``ERROR`` / ``TIMEOUT`` / ``CANCELLED``
        outcomes, never as exceptions.
        """
        self._cancel_event.clear()
        payloads = list(payloads)
        if not payloads:
            return []
        size = self._auto_chunk(len(payloads))
        chunks = [
            payloads[i:i + size] for i in range(0, len(payloads), size)
        ]
        futures: List[Optional[Future]] = [
            self.submit_chunk(chunk) for chunk in chunks
        ]
        results: List[Optional[List[Dict[str, Any]]]] = [None] * len(chunks)

        index = 0
        while index < len(chunks):
            if self._cancel_event.is_set():
                self._drop_pending(futures, index, results, chunks,
                                   "cancelled")
                break
            future = futures[index]
            timeout = (
                None if self.job_timeout is None
                else self.job_timeout * len(chunks[index])
            )
            try:
                results[index] = future.result(timeout=timeout)
            except FutureTimeoutError:
                self.stats.timeouts += len(chunks[index])
                _POOL_TIMEOUTS.inc(len(chunks[index]))
                results[index] = self._synthetic(
                    chunks[index], "TIMEOUT",
                    f"chunk exceeded {timeout:.3g}s in the solver pool",
                )
                self._recycle()
                # The hung worker died with the executor; every later
                # future did too — resubmit them to the fresh pool.
                for later in range(index + 1, len(chunks)):
                    futures[later] = self.submit_chunk(chunks[later])
            except BrokenProcessPool:
                self.stats.crashes += len(chunks[index])
                _POOL_CRASHES.inc(len(chunks[index]))
                results[index] = self._synthetic(
                    chunks[index], "ERROR", "solver pool worker crashed",
                )
                self._recycle()
                # Resubmit everything after the crashed chunk to the
                # fresh executor — their original futures died with it.
                for later in range(index + 1, len(chunks)):
                    futures[later] = self.submit_chunk(chunks[later])
            except Exception as exc:  # pragma: no cover - defensive
                results[index] = self._synthetic(
                    chunks[index], "ERROR", repr(exc),
                )
            index += 1

        flat: List[Dict[str, Any]] = []
        for chunk, outcome in zip(chunks, results):
            if outcome is None:
                outcome = self._synthetic(chunk, "CANCELLED",
                                          "batch cancelled")
            flat.extend(outcome)
        return flat

    def _drop_pending(
        self,
        futures: List[Optional[Future]],
        start: int,
        results: List[Optional[List[Dict[str, Any]]]],
        chunks: List[List[Dict[str, Any]]],
        reason: str,
    ) -> None:
        for later in range(start, len(futures)):
            future = futures[later]
            if future is not None:
                future.cancel()
            if results[later] is None:
                self.stats.cancelled += len(chunks[later])
                _POOL_CANCELLED.inc(len(chunks[later]))
                results[later] = self._synthetic(
                    chunks[later], "CANCELLED", f"batch {reason}",
                )

    @staticmethod
    def _synthetic(
        payloads: Sequence[Dict[str, Any]], status: str, error: str
    ) -> List[Dict[str, Any]]:
        return [
            {"status": status, "error": error, "engine_used": "",
             "fallback": False, "wall_time": 0.0, "worker_pid": 0,
             "batched": False}
            for _ in payloads
        ]

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Ask a concurrently running :meth:`solve` to stop between chunks."""
        self._cancel_event.set()

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
