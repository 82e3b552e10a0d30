"""The throughput-analysis service facade.

:class:`ThroughputService` is the one front door of the serving layer:
it turns graphs into content-addressed jobs, answers repeats from the
two-tier result cache, deduplicates identical jobs inside a batch, fans
cache misses out over a :class:`~repro.service.pool.SolverPool` (or
solves inline when ``workers=0``), and applies the engine fallback
chain (empty by default) via the payload driver.

Typical use (inline mode — pass ``workers=4`` and
``cache=ResultCache(disk_root="results/cache")`` for the multi-process,
persistent-cache configuration):

    >>> from repro.model.builder import sdf
    >>> from repro.service import ThroughputService
    >>> g = sdf({"A": 1, "B": 1},
    ...         [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
    >>> with ThroughputService() as service:
    ...     outcome = service.submit(g)
    ...     repeat = service.submit(g)
    >>> outcome.status, outcome.period, outcome.engine_used
    ('OK', Fraction(2, 1), 'ratio-iteration')
    >>> repeat.cache_hit            # second ask never re-solves
    'memory'
    >>> service.stats().solves
    1

``submit_async`` returns a ``concurrent.futures.Future``; wrap it with
``asyncio.wrap_future`` to await it from an event loop — the service
itself never blocks on anything but its own pool.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.distributed.worker import Worker
from repro.kperiodic.fleet import solve_fleet_payloads
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import (
    collect_events,
    emit_event,
    new_trace_id,
    span as _span,
    tracing_enabled,
)
from repro.service.cache import ResultCache
from repro.service.job import JobOutcome, ThroughputJob
from repro.service.pool import SolverPool, cached_graph

GraphLike = Union[CsdfGraph, Mapping[str, Any], ThroughputJob]


@dataclass
class ServiceStats:
    """Aggregate counters of one service lifetime.

    Since PR 7 this is a read-only *view* recomposed from the service's
    registry cells (see :meth:`ThroughputService.stats`): the numbers
    here, the worker heartbeats and the coordinator's ``/metrics``
    families all read the same counters, so they cannot drift apart.
    """

    jobs: int = 0
    solves: int = 0
    batch_dedup: int = 0
    #: Fresh solves answered by the batched fleet kernel / by a
    #: fallback engine (cache hits never count toward either).
    batched: int = 0
    fallback: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0
    cache: Dict[str, int] = field(default_factory=dict)
    pool: Optional[Dict[str, int]] = None
    queue: Optional[Dict[str, Any]] = None

    @property
    def cache_hits(self) -> int:
        return (
            self.cache.get("memory_hits", 0) + self.cache.get("disk_hits", 0)
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "solves": self.solves,
            "batch_dedup": self.batch_dedup,
            "batched": self.batched,
            "fallback": self.fallback,
            "cache_hits": self.cache_hits,
            "by_status": dict(self.by_status),
            "wall_time": self.wall_time,
            "cache": dict(self.cache),
            "pool": dict(self.pool) if self.pool else None,
            "queue": dict(self.queue) if self.queue else None,
        }


class ThroughputService:
    """Batched, cached, multi-process λ* queries over the engine registry.

    Parameters
    ----------
    engine / fallback_engines:
        Primary MCRP engine (default
        :data:`~repro.mcrp.registry.DEFAULT_ENGINE`) and the chain,
        empty by default, tried on a certification failure
        (:class:`~repro.exceptions.SolverError`) of the one before it.
    update_policy / max_rounds / time_budget:
        K-Iter parameters applied to every job unless overridden per
        call (see :func:`repro.kperiodic.kiter.throughput_kiter`; a job
        runs the same round loop, as a payload).
    workers:
        ``0`` solves inline in this process (no pool, no pickling —
        right for tests and single queries); ``n ≥ 1`` creates a
        :class:`SolverPool` lazily on first use.
    pool:
        A pre-built pool to use instead (``workers`` is then ignored);
        the caller keeps ownership unless the service is closed.
    cache:
        A :class:`ResultCache`; default is a memory-only LRU. Pass
        ``ResultCache(disk_root=...)`` for the persistent tier,
        ``ResultCache(memory_size=0)`` to disable caching, or a bare
        :class:`~repro.distributed.backends.CacheBackend` (it is
        wrapped in a ``ResultCache`` with the default memory tier) —
        e.g. ``HTTPCacheBackend(url)`` for a remote shared cache.
    queue:
        A :class:`~repro.distributed.jobqueue.JobQueue` (or a
        :class:`~repro.distributed.client.CoordinatorClient`). When
        set, cache misses are *enqueued* instead of solved here, and
        the service polls for their results — the workers are whoever
        drains that queue (``repro worker``). ``workers``/``pool``
        are ignored in queue mode.
    queue_poll / queue_wait_timeout:
        Poll interval while waiting on queued results, and an optional
        overall wait bound (``None`` waits forever; on expiry the
        remaining jobs report ``ERROR``). Dead-lettered jobs surface
        as ``ERROR`` outcomes from the queue itself, so a batch always
        completes.
    queue_inline_drain:
        When ``True`` the service leases and solves jobs itself while
        waiting — queue semantics without external workers (or
        cooperating with them). Each drain leases up to as many jobs
        as the batch still waits on and solves them as one worker
        chunk.
    """

    def __init__(
        self,
        *,
        engine: str = DEFAULT_ENGINE,
        fallback_engines: Iterable[str] = (),
        update_policy: str = "lcm",
        max_rounds: int = 100_000,
        time_budget: Optional[float] = None,
        workers: int = 0,
        pool: Optional[SolverPool] = None,
        mp_context: Union[str, Any, None] = None,
        chunk_size: Optional[int] = None,
        job_timeout: Optional[float] = None,
        cache: Optional[Any] = None,
        queue: Optional[Any] = None,
        queue_poll: float = 0.05,
        queue_wait_timeout: Optional[float] = None,
        queue_inline_drain: bool = False,
    ):
        self.engine = engine
        self.fallback_engines = tuple(fallback_engines)
        self.update_policy = update_policy
        self.max_rounds = max_rounds
        self.time_budget = time_budget
        if cache is None:
            cache = ResultCache()
        elif not isinstance(cache, ResultCache):
            cache = ResultCache(backend=cache)  # bare CacheBackend
        self.cache = cache
        self._queue = queue
        self._queue_poll = queue_poll
        self._queue_wait_timeout = queue_wait_timeout
        self._inline_worker = (
            Worker(queue, worker_id=f"service-inline-{os.getpid()}")
            if queue is not None and queue_inline_drain else None
        )
        self._pool = pool
        self._owns_pool = pool is None
        self._workers = workers
        self._mp_context = mp_context
        self._chunk_size = chunk_size
        self._job_timeout = job_timeout
        self._lock = threading.Lock()
        # Per-service registry chained to the process-global one: the
        # cells below are the one source of truth behind stats(), the
        # worker heartbeat snapshots, and /metrics — the ad-hoc
        # batched/fallback/cache counters of PR 5–6 are recomposed over
        # them so the surfaces can never disagree.
        self._registry = MetricsRegistry(parent=REGISTRY)
        self._jobs_metric = self._registry.counter(
            "repro_service_jobs_total")
        self._solves_cell = self._registry.counter(
            "repro_service_solves_total").labels()
        self._dedup_cell = self._registry.counter(
            "repro_service_batch_dedup_total").labels()
        self._batched_cell = self._registry.counter(
            "repro_service_batched_total").labels()
        self._fallback_cell = self._registry.counter(
            "repro_service_fallback_total").labels()
        self._wall_cell = self._registry.counter(
            "repro_service_wall_seconds_total").labels()
        self._batch_seconds = self._registry.histogram(
            "repro_service_batch_seconds").labels()

    # ------------------------------------------------------------------
    # Job construction
    # ------------------------------------------------------------------
    def job_for(self, graph: GraphLike, **overrides: Any) -> ThroughputJob:
        """A :class:`ThroughputJob` with the service defaults applied.

        A graph dict is decoded here, once per job
        (:meth:`ThroughputJob.from_graph`); the solve that runs in this
        process reuses that graph object instead of decoding again.
        """
        if isinstance(graph, ThroughputJob):
            return graph
        options = {
            "engine": self.engine,
            "fallback_engines": self.fallback_engines,
            "update_policy": self.update_policy,
            "max_rounds": self.max_rounds,
            "time_budget": self.time_budget,
        }
        options.update(overrides)
        return ThroughputJob.from_graph(graph, **options)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def submit(self, graph: GraphLike, **overrides: Any) -> JobOutcome:
        """Solve one graph synchronously (cache → pool/inline)."""
        return self.submit_many([self.job_for(graph, **overrides)])[0]

    def submit_many(self, graphs: Iterable[GraphLike]) -> List[JobOutcome]:
        """Solve a batch, preserving order.

        Cache hits and in-batch duplicates never reach the pool; misses
        are deduplicated by digest, solved (chunked, multi-process when
        a pool is configured), cached when deterministic, and fanned
        back out to every requesting position.
        """
        started = time.perf_counter()
        jobs = [self.job_for(g) for g in graphs]
        with _span("service.batch", jobs=len(jobs)) as batch_span:
            outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
            unique: "OrderedDict[str, ThroughputJob]" = OrderedDict()
            followers: Dict[str, List[int]] = {}

            for index, job in enumerate(jobs):
                cached, tier = self.cache.get_with_tier(job.digest)
                if cached is not None:
                    outcome = JobOutcome.from_json_dict(cached)
                    outcome.cache_hit = tier
                    outcome.label = job.label or outcome.label
                    outcomes[index] = outcome
                    continue
                if job.digest in unique:
                    followers.setdefault(job.digest, []).append(index)
                    continue
                unique[job.digest] = job
                followers[job.digest] = [index]

            miss_jobs = list(unique.values())
            payloads = [j.payload() for j in miss_jobs]
            # One trace per unique miss: the client.job event below is
            # the root span, the payload carries its context across
            # pool/coordinator/worker boundaries, and every solver span
            # parents under it. Digests are unchanged — ThroughputJob
            # hashes only its explicit fields, never the payload dict.
            job_traces: Dict[str, tuple] = {}
            if tracing_enabled():
                for job, payload in zip(miss_jobs, payloads):
                    root = (new_trace_id(), new_trace_id())
                    job_traces[job.digest] = root
                    payload["trace"] = {
                        "trace_id": root[0], "parent_id": root[1],
                    }
            results = self._solve_payloads(
                payloads, [job._graph for job in miss_jobs]
            )
            for job, result in zip(miss_jobs, results):
                # A queue-routed job answered by the coordinator's cache
                # arrives tagged cache_hit="remote"; local solves carry "".
                outcome = JobOutcome.from_solve(
                    job, result, cache_hit=result.get("cache_hit", "")
                )
                if outcome.cacheable:
                    stored = outcome.to_json_dict()
                    stored["cache_hit"] = ""
                    self.cache.put(job.digest, stored)
                root = job_traces.get(job.digest)
                if root is not None:
                    # After the cache put: trace ids never hit the
                    # cache (the PR-5 disk layout stays byte-identical).
                    outcome.trace_id = root[0]
                    emit_event(
                        "client.job", trace_id=root[0], span_id=root[1],
                        dur=outcome.wall_time,
                        digest=job.digest[:12], status=outcome.status,
                    )
                owners = followers[job.digest]
                outcomes[owners[0]] = outcome
                for extra in owners[1:]:
                    duplicate = JobOutcome.from_json_dict(
                        outcome.to_json_dict())
                    duplicate.cache_hit = "batch"
                    duplicate.label = jobs[extra].label or duplicate.label
                    outcomes[extra] = duplicate

            final = [o for o in outcomes if o is not None]
            if len(final) != len(jobs):  # pragma: no cover - invariant
                raise RuntimeError("service lost track of a job outcome")
            # Queue-routed jobs answered by the coordinator's cache
            # ("remote") were never solved for us — don't count them.
            solves = sum(
                1 for result in results if not result.get("cache_hit")
            )
            batch_span.attrs["misses"] = len(miss_jobs)
            if job_traces and self._queue is not None:
                self._ship_trace_events(
                    [root[0] for root in job_traces.values()]
                )
        self._record(final, solves, time.perf_counter() - started)
        return final

    def _ship_trace_events(self, trace_ids: List[str]) -> None:
        """Post this client's buffered span events to the coordinator.

        Queue mode only: the coordinator aggregates them into its trace
        store so ``GET /trace/<id>`` shows the client leg next to the
        coordinator and worker legs. Best-effort — tracing never fails
        a batch.
        """
        post = getattr(self._queue, "post_trace", None)
        if post is None:
            return
        events = collect_events(trace_ids, clear=True)
        if not events:
            return
        try:
            post(events)
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    def explore(
        self,
        graph: CsdfGraph,
        points: Iterable[Mapping[str, Any]],
        *,
        engine: Optional[str] = None,
        warm_start: bool = True,
        check: bool = False,
    ) -> List[Dict[str, Any]]:
        """Run an edit-manifest sweep as *one* sticky DSE session.

        ``points`` is the ``repro explore`` manifest schema (see
        :mod:`repro.dse.explore`): per design point an ``edits`` op
        list, an optional ``name`` and an optional ``reset``. The whole
        sweep is a single job — with a pool configured it rides one
        explore chunk so a single worker owns the session (its block
        cache and warm-start state live where the solves run); inline
        mode and queue mode run it in-process (the distributed fabric
        speaks single-solve payloads only). Returns the per-point
        records in order; exactness per point is the DseSession
        contract (bit-identical to a cold solve; ``check=True``
        verifies it at runtime). ``warm_start=False`` turns the
        session's certificate replay and λ seed off.

        Sweep results are not content-addressed — nothing here touches
        the result cache.
        """
        from repro.dse.explore import explore_payload_for

        points = list(points)
        payload = explore_payload_for(
            graph, points,
            engine=engine or self.engine,
            warm_start=warm_start,
            check=check,
        )
        pool = None if self._queue is not None else self._ensure_pool()
        with _span("service.explore", points=len(points)) as sp:
            if pool is not None:
                outcome = pool.solve([payload])[0]
            else:
                from repro.dse.explore import solve_explore_payload

                outcome = solve_explore_payload(payload)
            sp.attrs["status"] = outcome.get("status", "ERROR")
        if outcome.get("status") != "OK":
            raise RuntimeError(
                f"explore sweep failed: {outcome.get('error', outcome)}")
        return outcome["results"]

    def map(
        self,
        graphs: Iterable[GraphLike],
        *,
        batch_size: int = 64,
    ) -> Iterator[JobOutcome]:
        """Stream outcomes for an arbitrarily long graph iterable.

        Graphs are pulled and solved ``batch_size`` at a time, so memory
        stays bounded and the pool pipeline stays full.
        """
        batch: List[GraphLike] = []
        for graph in graphs:
            batch.append(graph)
            if len(batch) >= batch_size:
                yield from self.submit_many(batch)
                batch = []
        if batch:
            yield from self.submit_many(batch)

    def submit_async(
        self, graph: GraphLike, **overrides: Any
    ) -> "Future[JobOutcome]":
        """Non-blocking single solve; the future resolves to an outcome.

        Cache hits (and inline mode) resolve immediately; with a pool
        the job rides a single-payload chunk and the returned future is
        chained off the pool's. ``asyncio.wrap_future`` makes it
        awaitable.
        """
        job = self.job_for(graph, **overrides)
        cached, tier = self.cache.get_with_tier(job.digest)
        done: "Future[JobOutcome]" = Future()
        if cached is not None:
            outcome = JobOutcome.from_json_dict(cached)
            outcome.cache_hit = tier
            outcome.label = job.label or outcome.label
            self._record([outcome], 0, 0.0)
            done.set_result(outcome)
            return done
        if self._queue is not None:
            # Queue mode: enqueue-and-poll runs on a waiter thread so
            # the returned future stays non-blocking.
            def _via_queue() -> None:
                try:
                    result = self._solve_payloads(
                        [job.payload()], [job._graph])[0]
                except Exception as exc:  # noqa: BLE001 - surface it
                    result = {"status": "ERROR", "error": repr(exc)}
                done.set_result(self._finish_async(job, result))

            threading.Thread(target=_via_queue, daemon=True).start()
            return done
        pool = self._ensure_pool()
        if pool is None:
            outcome = self._finish_async(
                job, solve_fleet_payloads([job.payload()], [job._graph])[0]
            )
            done.set_result(outcome)
            return done
        chunk_future = pool.submit_chunk([job.payload()])

        def _chain(fut: "Future[List[Dict[str, Any]]]") -> None:
            try:
                result = fut.result()[0]
            except Exception as exc:
                result = {"status": "ERROR", "error": repr(exc)}
            done.set_result(self._finish_async(job, result))

        chunk_future.add_done_callback(_chain)
        return done

    def _finish_async(
        self, job: ThroughputJob, result: Mapping[str, Any]
    ) -> JobOutcome:
        outcome = JobOutcome.from_solve(
            job, result, cache_hit=result.get("cache_hit", "")
        )
        if outcome.cacheable:
            stored = outcome.to_json_dict()
            stored["cache_hit"] = ""
            self.cache.put(job.digest, stored)
        # A queue-routed job the coordinator answered from its cache
        # (cache_hit="remote") was not solved on our behalf.
        self._record(
            [outcome], 0 if outcome.cache_hit else 1, outcome.wall_time
        )
        return outcome

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[SolverPool]:
        with self._lock:
            if self._pool is None and self._workers > 0:
                self._pool = SolverPool(
                    self._workers,
                    mp_context=self._mp_context,
                    chunk_size=self._chunk_size,
                    job_timeout=self._job_timeout,
                )
            return self._pool

    def _solve_payloads(
        self, payloads: List[Dict[str, Any]],
        graphs: List[Optional[CsdfGraph]],
    ) -> List[Dict[str, Any]]:
        """Solve payloads; ``graphs`` are their jobs' decoded graphs.

        A graph entry is ``None`` where the job holds none; the solve
        then decodes the payload itself. Pool workers live in other
        processes and always decode.
        """
        if not payloads:
            return []
        if self._queue is not None:
            if self._inline_worker is not None:
                # The inline drain looks its graphs up in the worker
                # LRU by graph digest: seed it with the decoded ones.
                for payload, graph in zip(payloads, graphs):
                    if graph is not None:
                        cached_graph(payload, graph)
            return self._solve_via_queue(payloads)
        pool = self._ensure_pool()
        if pool is not None:
            return pool.solve(payloads)
        # Inline mode runs the same batched fleet driver the pool
        # workers do — one lockstep kernel pass per K-Iter round.
        return solve_fleet_payloads(payloads, graphs)

    def _solve_via_queue(
        self, payloads: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Enqueue the payloads and poll the queue for their outcomes.

        Dead-lettered jobs come back as synthesized ``ERROR`` outcomes
        from the queue itself, so this loop always terminates once
        every job reaches a terminal state; ``queue_wait_timeout``
        additionally bounds the wait against a fully stalled fabric
        (no live workers at all).
        """
        queue = self._queue
        digests = [p["digest"] for p in payloads]
        deadline = (
            None if self._queue_wait_timeout is None
            else time.monotonic() + self._queue_wait_timeout
        )

        def out_of_time() -> bool:
            return deadline is not None and time.monotonic() > deadline

        def stall_outcome(detail: str) -> Dict[str, Any]:
            return {
                "status": "ERROR", "error": detail,
                "engine_used": "", "fallback": False,
                "wall_time": 0.0, "worker_pid": 0,
            }

        results: Dict[str, Dict[str, Any]] = {}
        answered_remotely: set = set()

        # Enqueue — one round trip when the queue speaks batches.
        # Submits are idempotent (digest dedup), so a transient
        # transport fault is answered by backing off and resubmitting
        # everything rather than failing the batch.
        submit_many = getattr(queue, "submit_many", None)
        backoff = self._queue_poll
        while True:
            try:
                if submit_many is not None:
                    receipts = submit_many(payloads)
                else:
                    receipts = [
                        queue.submit(p, digest=p["digest"])
                        for p in payloads
                    ]
                break
            except Exception as exc:  # noqa: BLE001 - outlive a blip
                if out_of_time():
                    detail = stall_outcome(
                        f"could not enqueue within "
                        f"{self._queue_wait_timeout}s: {exc!r}"
                    )
                    return [dict(detail) for _ in digests]
                time.sleep(backoff)
                backoff = min(5.0, backoff * 2)
        for payload, receipt in zip(payloads, receipts):
            # "cached": the coordinator's cache short-circuited the
            # job; "done": the queue already finished an identical one.
            # Either way nothing solved *for us* — a remote hit.
            if getattr(receipt, "state", "") in ("cached", "done"):
                answered_remotely.add(payload["digest"])
        if self._inline_worker is not None \
                and len(answered_remotely) < len(set(digests)):
            # Something still needs solving: drain before the first
            # poll, which could not find it yet.
            self._drain_inline(len(digests) - len(answered_remotely))

        fetch = getattr(queue, "results_fetch", None)
        pending = list(digests)
        backoff = self._queue_poll
        while pending:
            try:
                if fetch is not None:  # one round trip per poll
                    found = fetch(pending)
                else:
                    found = {d: queue.result(d) for d in pending}
            except Exception:  # noqa: BLE001 - poll again after a blip
                if out_of_time():
                    for digest in pending:
                        results[digest] = stall_outcome(
                            f"queue wait exceeded "
                            f"{self._queue_wait_timeout}s "
                            "(coordinator unreachable)"
                        )
                    break
                time.sleep(backoff)
                backoff = min(5.0, backoff * 2)
                continue
            backoff = self._queue_poll
            for digest, outcome in found.items():
                if outcome is not None:
                    if digest in answered_remotely:
                        outcome["cache_hit"] = "remote"
                    results[digest] = outcome
            pending = [d for d in pending if d not in results]
            if not pending:
                break
            if self._inline_worker is not None \
                    and self._drain_inline(len(pending)):
                continue  # solved something: re-poll immediately
            if out_of_time():
                for digest in pending:
                    results[digest] = stall_outcome(
                        f"queue wait exceeded "
                        f"{self._queue_wait_timeout}s "
                        "(no worker answered)"
                    )
                break
            time.sleep(self._queue_poll)
        return [results[digest] for digest in digests]

    def _drain_inline(self, max_jobs: int) -> bool:
        """Lease up to ``max_jobs`` queued jobs and solve them here.

        The chunk runs through the worker daemon's own path
        (:meth:`Worker.solve_chunk`): trace re-parenting, one batched
        fleet pass, heartbeats that keep a long chunk's leases alive,
        a nack for each payload that does not decode, and one report.
        """
        worker = self._inline_worker
        try:
            jobs = self._queue.lease(max_jobs, worker_id=worker.worker_id)
            if jobs:
                worker.solve_chunk(jobs)
            return bool(jobs)
        except Exception:  # noqa: BLE001 - drain is opportunistic
            return False

    def _record(
        self, outcomes: List[JobOutcome], solves: int, wall: float
    ) -> None:
        with self._lock:
            self._solves_cell.inc(solves)
            self._dedup_cell.inc(sum(
                1 for o in outcomes if o.cache_hit == "batch"
            ))
            # Routing counters describe fresh solves only: a cached
            # outcome's flags describe how it was solved *back then*.
            self._batched_cell.inc(sum(
                1 for o in outcomes if o.batched and not o.cache_hit
            ))
            self._fallback_cell.inc(sum(
                1 for o in outcomes if o.fallback and not o.cache_hit
            ))
            self._wall_cell.inc(wall)
            self._batch_seconds.observe(wall)
            for outcome in outcomes:
                self._jobs_metric.labels(status=outcome.status).inc()

    def stats(self) -> ServiceStats:
        """A snapshot of the service, cache and pool counters.

        Every number is read back from the service's registry cells —
        the same cells ``/metrics`` renders — so this view is the
        fabric-wide source of truth, not a parallel set of counters.
        """
        with self._lock:
            by_status = {
                key[0]: int(value) for key, value in
                self._registry.samples("repro_service_jobs_total").items()
            }
            snapshot = ServiceStats(
                jobs=int(sum(by_status.values())),
                solves=int(self._registry.value(
                    "repro_service_solves_total")),
                batch_dedup=int(self._registry.value(
                    "repro_service_batch_dedup_total")),
                batched=int(self._registry.value(
                    "repro_service_batched_total")),
                fallback=int(self._registry.value(
                    "repro_service_fallback_total")),
                by_status=by_status,
                wall_time=float(self._registry.value(
                    "repro_service_wall_seconds_total")),
                cache=self.cache.stats.as_dict(),
                pool=(
                    self._pool.stats.as_dict()
                    if self._pool is not None else None
                ),
            )
        if self._queue is not None:
            try:
                snapshot.queue = self._queue.stats()
            except Exception:  # noqa: BLE001 - stats stay best-effort
                snapshot.queue = None
        return snapshot

    def cancel(self) -> None:
        """Cancel the in-flight batch, if a pool is running one."""
        with self._lock:
            pool = self._pool
        if pool is not None:
            pool.cancel()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            pool.shutdown()

    def __enter__(self) -> "ThroughputService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
