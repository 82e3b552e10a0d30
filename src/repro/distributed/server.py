"""The coordinator node: an HTTP front over one cache + one queue.

:class:`Coordinator` is the transport-free core — in-batch dedup,
cache-first short-circuiting, worker liveness bookkeeping — over any
:class:`~repro.distributed.backends.CacheBackend` and
:class:`~repro.distributed.jobqueue.JobQueue` pair, so tests (and
in-process deployments) can drive it directly.
:class:`CoordinatorServer` wraps it in a ``ThreadingHTTPServer``
speaking the canonical job JSON:

========================  ==============================================
``GET  /healthz``          liveness probe (``{"ok": true, …}``)
``GET  /stats``            cache/queue/worker counters
``POST /jobs``             enqueue a batch (dedup + cache short-circuit)
``GET  /jobs/lease``       lease up to ``?max=`` jobs for ``?worker=``
``POST /results``          ack leased jobs with their outcomes
``POST /nack``             return a leased job for redelivery
``POST /heartbeat``        extend leases mid-solve
``GET  /results/<digest>`` one outcome (404 while in flight)
``POST /results/fetch``    batched outcome poll
``GET/PUT /cache/<digest>``the remote-cache surface (HTTPCacheBackend)
``GET  /metrics``          Prometheus text scrape (own + worker metrics)
``GET  /report``           static HTML ops report (metrics/spans/slowlog)
``GET  /trace/<trace_id>`` every stored flight-recorder event of a trace
``POST /trace``            workers ship buffered trace events here
========================  ==============================================

A job is *cached* when the cache already holds its digest (never
re-queued), *pending* when an identical digest is in flight (never
solved twice), *queued* otherwise. Results reach waiting clients
through the queue's result column — including the synthesized
``ERROR`` outcomes of dead-lettered jobs — so a batch always drains.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
import urllib.parse
import uuid
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distributed.backends import (
    CacheBackend,
    MemoryCacheBackend,
    storable_outcome,
)
from repro.distributed.jobqueue import JobQueue, MemoryJobQueue
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import trace_dropped_total


class Coordinator:
    """Transport-free coordinator core: dedup, short-circuit, liveness."""

    def __init__(
        self,
        *,
        cache: Optional[CacheBackend] = None,
        queue: Optional[JobQueue] = None,
    ):
        self.cache = cache if cache is not None else MemoryCacheBackend()
        self.queue = queue if queue is not None else MemoryJobQueue()
        self.started = time.time()
        self._lock = threading.Lock()
        self._workers: Dict[str, Dict[str, Any]] = {}
        # Coordinator counters live in a registry chained to the
        # process-global one: stats() and /metrics read the same cells.
        self._registry = MetricsRegistry(parent=REGISTRY)
        self._submitted_cell = self._registry.counter(
            "repro_coordinator_jobs_submitted_total").labels()
        self._short_circuit_cell = self._registry.counter(
            "repro_coordinator_cache_short_circuits_total").labels()
        # Flight recorder: every trace event this node saw — its own
        # enqueue/result milestones plus whatever workers POST /trace —
        # bounded so a long-lived coordinator cannot grow without limit.
        self._trace_events: deque = deque(maxlen=50_000)
        #: digest → the submitting client's trace context, so the
        #: result milestone can parent under the client's job span.
        self._job_traces: Dict[str, Dict[str, Any]] = {}
        #: worker id → latest shipped metric snapshot (heartbeat/report).
        self._worker_metrics: Dict[str, Dict[str, Any]] = {}

    # -- worker liveness -------------------------------------------------
    def _saw_worker(self, worker_id: str, **bumps: int) -> None:
        if not worker_id:
            return
        with self._lock:
            record = self._workers.setdefault(
                worker_id, {"leases": 0, "results": 0, "heartbeats": 0}
            )
            record["last_seen"] = time.time()
            for key, amount in bumps.items():
                record[key] = record.get(key, 0) + amount

    # -- job intake ------------------------------------------------------
    def submit_jobs(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Enqueue a batch; per-job ``{digest, state, job_id}`` rows.

        States: ``cached`` (the cache already has the answer),
        ``duplicate`` (same digest earlier in this batch), ``pending``
        (digest already in flight from an earlier batch), ``queued``,
        ``done`` (queue already finished it).
        """
        receipts: List[Dict[str, Any]] = []
        seen: set = set()
        for payload in payloads:
            digest = payload.get("digest", "")
            if not digest:
                receipts.append(
                    {"digest": "", "state": "rejected", "job_id": 0}
                )
                continue
            self._submitted_cell.inc()
            if digest in seen:
                receipts.append(
                    {"digest": digest, "state": "duplicate", "job_id": 0}
                )
                continue
            seen.add(digest)
            if self.cache.contains(digest):
                self._short_circuit_cell.inc()
                self._milestone(payload, "coordinator.enqueue",
                                digest, state="cached")
                receipts.append(
                    {"digest": digest, "state": "cached", "job_id": 0}
                )
                continue
            receipt = self.queue.submit(payload, digest=digest)
            self._milestone(payload, "coordinator.enqueue",
                            digest, state=receipt.state, remember=True)
            receipts.append({
                "digest": digest, "state": receipt.state,
                "job_id": receipt.job_id,
            })
        return receipts

    # -- flight recorder -------------------------------------------------
    def _milestone(self, payload: Dict[str, Any], name: str,
                   digest: str, *, state: str = "",
                   remember: bool = False) -> None:
        """Synthesize a coordinator trace event for a traced payload.

        Events go straight into this node's trace store (the client may
        be tracing even when the coordinator process itself is not), so
        ``GET /trace/<id>`` always covers the coordinator hop.
        """
        trace_ctx = payload.get("trace") or {}
        trace_id = trace_ctx.get("trace_id")
        if not trace_id:
            return
        event = {
            "trace_id": str(trace_id),
            "span_id": uuid.uuid4().hex[:16],
            "parent_id": trace_ctx.get("parent_id"),
            "name": name,
            "t0": time.perf_counter(),
            "wall": time.time(),
            "dur": 0.0,
            "pid": os.getpid(),
            "attrs": {"digest": digest[:12], "state": state},
        }
        with self._lock:
            self._trace_events.append(event)
            if remember:
                self._job_traces[digest] = dict(trace_ctx)

    def add_trace_events(self, events: Sequence[Dict[str, Any]]) -> int:
        """Store worker-shipped trace events (the POST /trace body)."""
        stored = 0
        with self._lock:
            for event in events:
                if isinstance(event, dict) and event.get("trace_id"):
                    self._trace_events.append(event)
                    stored += 1
        return stored

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every stored event of one trace, in wall-clock order."""
        with self._lock:
            events = [e for e in self._trace_events
                      if e.get("trace_id") == trace_id]
        return sorted(events, key=lambda e: (e.get("wall", 0.0),
                                             e.get("t0", 0.0)))

    # -- worker protocol -------------------------------------------------
    def lease(
        self, max_jobs: int, *, worker_id: str = "",
        visibility_timeout: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        jobs = self.queue.lease(
            max_jobs, worker_id=worker_id,
            visibility_timeout=visibility_timeout,
        )
        self._saw_worker(worker_id, leases=len(jobs))
        return [
            {"job_id": j.job_id, "token": j.token, "digest": j.digest,
             "payload": j.payload, "attempt": j.attempt,
             "deadline": j.deadline}
            for j in jobs
        ]

    def report(
        self, results: Sequence[Dict[str, Any]], *, worker_id: str = "",
        metrics: Optional[Dict[str, Any]] = None,
    ) -> List[bool]:
        accepted: List[bool] = []
        for row in results:
            outcome = row.get("outcome") or {}
            digest = row.get("digest") or outcome.get("digest", "")
            ok = self.queue.ack(
                row.get("job_id", 0), row.get("token", ""), outcome
            )
            if ok and digest and storable_outcome(outcome):
                self.cache.put(digest, outcome)
            if ok and digest:
                with self._lock:
                    trace_ctx = self._job_traces.pop(digest, None)
                if trace_ctx is not None:
                    self._milestone(
                        {"trace": trace_ctx}, "coordinator.result",
                        digest, state=outcome.get("status", ""),
                    )
            accepted.append(ok)
        self._saw_worker(worker_id, results=len(results))
        self._store_worker_metrics(worker_id, metrics)
        return accepted

    def nack(self, job_id: int, token: str, *, error: str = "",
             worker_id: str = "") -> bool:
        self._saw_worker(worker_id)
        return self.queue.nack(job_id, token, error=error)

    def heartbeat(
        self, leases: Sequence[Dict[str, Any]], *, worker_id: str = "",
        metrics: Optional[Dict[str, Any]] = None,
    ) -> List[bool]:
        self._saw_worker(worker_id, heartbeats=len(leases))
        self._store_worker_metrics(worker_id, metrics)
        return [
            self.queue.heartbeat(
                row.get("job_id", 0), row.get("token", "")
            )
            for row in leases
        ]

    def _store_worker_metrics(
        self, worker_id: str, metrics: Optional[Dict[str, Any]]
    ) -> None:
        if not worker_id or not isinstance(metrics, dict):
            return
        with self._lock:
            self._worker_metrics[worker_id] = metrics

    # -- results ---------------------------------------------------------
    def result(self, digest: str) -> Optional[Dict[str, Any]]:
        """``{"outcome": …, "source": "queue"|"cache"}`` or ``None``."""
        outcome = self.queue.result(digest)
        if outcome is not None:
            return {"outcome": outcome, "source": "queue"}
        outcome = self.cache.get(digest)
        if outcome is not None:
            return {"outcome": outcome, "source": "cache"}
        return None

    # -- observability ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        now = time.time()
        with self._lock:
            workers = {
                worker_id: {
                    "age": round(now - record.get("last_seen", now), 3),
                    "leases": record.get("leases", 0),
                    "results": record.get("results", 0),
                    "heartbeats": record.get("heartbeats", 0),
                }
                for worker_id, record in self._workers.items()
            }
            trace_events = len(self._trace_events)
        return {
            "uptime": round(now - self.started, 3),
            "submitted": int(self._submitted_cell.value),
            "cache_short_circuits": int(self._short_circuit_cell.value),
            "trace_events": trace_events,
            "trace_dropped": trace_dropped_total(),
            "cache": self.cache.stats(),
            "queue": self.queue.stats(),
            "dead_letters": self.queue.dead_letters(),
            "workers": workers,
        }

    def _merged_snapshot(self) -> Dict[str, Any]:
        """Worker snapshots + own registry + scrape-time gauges, merged.

        Remote daemons each bring a disjoint process registry and sum
        cleanly.  An *in-process* worker ships snapshots of the same
        global registry this coordinator scrapes — those carry the
        coordinator's own snapshot identity, so
        :func:`~repro.obs.metrics.merge_snapshots` dedupes them (the
        live scrape-time snapshot, listed last, wins) instead of
        counting the registry twice.
        """
        with self._lock:
            worker_snapshots = list(self._worker_metrics.values())
            workers_known = len(self._workers)
        gauges = MetricsRegistry()
        depth_gauge = gauges.gauge("repro_queue_depth")
        for state, count in self.queue.depth().items():
            depth_gauge.labels(state=state).set(count)
        entries = self.cache.entry_count()
        if entries is not None:
            gauges.gauge("repro_cache_entries").set(entries)
        gauges.gauge("repro_workers_known").set(workers_known)
        return merge_snapshots(
            worker_snapshots + [REGISTRY.snapshot(), gauges.snapshot()]
        )

    def metrics_text(self) -> str:
        """The ``/metrics`` scrape: Prometheus text exposition."""
        return render_prometheus(self._merged_snapshot())

    def report_html(self) -> str:
        """The ``GET /report`` page: the full ops report as static HTML.

        Folds the merged metrics view, this node's stored trace events,
        and any local slowlog captures / bench history into one
        self-contained page.
        """
        from repro.obs.history import history_path, load_history
        from repro.obs.report import build_report
        from repro.obs.slowlog import slowlog_entries

        with self._lock:
            events = list(self._trace_events)
        captures = []
        for path in slowlog_entries()[-20:]:
            try:
                captures.append(json.loads(
                    path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue
        hist_path = history_path()
        history_rows = load_history(hist_path) if hist_path else []
        return build_report(
            snapshot=self._merged_snapshot(),
            events=events,
            slowlog_entries=captures,
            history_rows=history_rows,
            dropped=trace_dropped_total(),
            title="repro coordinator report",
        )

    def healthz(self) -> Dict[str, Any]:
        return {"ok": True, "uptime": round(time.time() - self.started, 3)}


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the owning server's :class:`Coordinator`."""

    protocol_version = "HTTP/1.1"
    # Clients keep their connection (see repro.distributed.client):
    # replies must not wait on Nagle behind the client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------
    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        if self.server.begin_request(self.connection):
            return True
        # the server is closing: drop the request before it is routed
        self.close_connection = True
        return False

    def handle_one_request(self) -> None:
        super().handle_one_request()
        if self.server.end_request(self.connection):
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        # the Prometheus text exposition content type
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return None
        return json.loads(self.rfile.read(length))

    def _query(self) -> Tuple[str, Dict[str, str]]:
        path, _, raw = self.path.partition("?")
        params = dict(
            urllib.parse.parse_qsl(raw, keep_blank_values=True)
        )
        return urllib.parse.unquote(path), params

    @property
    def _core(self) -> Coordinator:
        return self.server.coordinator

    # -- verbs -----------------------------------------------------------
    def do_GET(self) -> None:
        try:
            path, params = self._query()
            if path == "/healthz":
                self._send_json(200, self._core.healthz())
            elif path == "/stats":
                self._send_json(200, self._core.stats())
            elif path == "/metrics":
                self._send_text(200, self._core.metrics_text())
            elif path == "/report":
                self._send_html(200, self._core.report_html())
            elif path.startswith("/trace/"):
                trace_id = path[len("/trace/"):]
                events = self._core.trace(trace_id)
                self._send_json(
                    200, {"trace_id": trace_id, "events": events}
                )
            elif path == "/jobs/lease":
                visibility = params.get("visibility")
                jobs = self._core.lease(
                    max(1, int(params.get("max", "1"))),
                    worker_id=params.get("worker", ""),
                    visibility_timeout=(
                        float(visibility) if visibility else None
                    ),
                )
                self._send_json(200, {"jobs": jobs})
            elif path.startswith("/results/"):
                found = self._core.result(path[len("/results/"):])
                if found is None:
                    self._send_json(404, {"error": "in flight or unknown"})
                else:
                    self._send_json(200, found)
            elif path.startswith("/cache/"):
                outcome = self._core.cache.get(path[len("/cache/"):])
                if outcome is None:
                    self._send_json(404, {"error": "cache miss"})
                else:
                    self._send_json(200, outcome)
            else:
                self._send_json(404, {"error": f"no route {path}"})
        except Exception as exc:  # noqa: BLE001 - boundary
            self._send_json(500, {"error": repr(exc)})

    def do_HEAD(self) -> None:
        path, _ = self._query()
        status = 404
        if path.startswith("/cache/") and \
                self._core.cache.contains(path[len("/cache/"):]):
            status = 200
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_POST(self) -> None:
        try:
            path, _ = self._query()
            body = self._read_json()
            if path == "/jobs":
                receipts = self._core.submit_jobs(
                    (body or {}).get("jobs", [])
                )
                self._send_json(200, {"jobs": receipts})
            elif path == "/results":
                body = body or {}
                accepted = self._core.report(
                    body.get("results", []),
                    worker_id=body.get("worker", ""),
                    metrics=body.get("metrics"),
                )
                self._send_json(200, {"accepted": accepted})
            elif path == "/trace":
                stored = self._core.add_trace_events(
                    (body or {}).get("events", [])
                )
                self._send_json(200, {"stored": stored})
            elif path == "/results/fetch":
                digests = (body or {}).get("digests", [])
                self._send_json(200, {"results": {
                    digest: self._core.result(digest)
                    for digest in digests
                }})
            elif path == "/nack":
                body = body or {}
                ok = self._core.nack(
                    body.get("job_id", 0), body.get("token", ""),
                    error=body.get("error", ""),
                    worker_id=body.get("worker", ""),
                )
                self._send_json(200, {"accepted": ok})
            elif path == "/heartbeat":
                body = body or {}
                accepted = self._core.heartbeat(
                    body.get("leases", []),
                    worker_id=body.get("worker", ""),
                    metrics=body.get("metrics"),
                )
                self._send_json(200, {"accepted": accepted})
            else:
                self._send_json(404, {"error": f"no route {path}"})
        except Exception as exc:  # noqa: BLE001 - boundary
            self._send_json(500, {"error": repr(exc)})

    def do_PUT(self) -> None:
        try:
            path, _ = self._query()
            if path.startswith("/cache/"):
                digest = path[len("/cache/"):]
                outcome = self._read_json()
                stored = bool(
                    isinstance(outcome, dict)
                    and self._core.cache.put(digest, outcome)
                )
                self._send_json(200, {"stored": stored})
            else:
                self._send_json(404, {"error": f"no route {path}"})
        except Exception as exc:  # noqa: BLE001 - boundary
            self._send_json(500, {"error": repr(exc)})


class _HTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that can end its kept connections.

    Clients keep their connections open between requests, so a handler
    thread outlives any one request. Handler threads are daemons (an
    idle kept connection must not hold the interpreter open), and the
    stdlib joins no daemon thread on ``server_close``, so this server
    tracks each connection with its thread, and which connections are
    mid-request: :meth:`close_connections` shuts the idle ones down,
    lets each busy one close after its reply, and joins every thread.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        self._live: Dict[Any, threading.Thread] = {}
        self._busy: set = set()
        self._closing = False
        self._live_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address), daemon=True,
        )
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        if isinstance(sys.exc_info()[1], ConnectionError):
            return  # the peer went away mid-exchange: routine, not a fault
        super().handle_error(request, client_address)

    def begin_request(self, request: Any) -> bool:
        """Mark a connection mid-request; ``False`` once closing."""
        with self._live_lock:
            if self._closing:
                return False
            self._busy.add(request)
            return True

    def end_request(self, request: Any) -> bool:
        """Mark a connection idle; ``True`` when it must close now."""
        with self._live_lock:
            self._busy.discard(request)
            return self._closing

    def close_connections(self) -> None:
        """End every live connection and join its handler thread.

        An idle connection is shut down at once; one mid-request closes
        after its reply, so no request the coordinator has acted on
        goes unanswered.
        """
        with self._live_lock:
            self._closing = True
            live = list(self._live.items())
            idle = [request for request, _thread in live
                    if request not in self._busy]
        for request in idle:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already gone
                pass
        for _request, thread in live:
            thread.join(5.0)


class CoordinatorServer:
    """A threaded HTTP server around a :class:`Coordinator`.

    ``port=0`` binds an ephemeral port; :attr:`url` reports the real
    address either way. ``start()`` serves from a daemon thread (the
    in-process/test mode); :meth:`serve_forever` blocks (the CLI mode).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: Optional[CacheBackend] = None,
        queue: Optional[JobQueue] = None,
        verbose: bool = False,
    ):
        self.coordinator = Coordinator(cache=cache, queue=queue)
        self._http = _HTTPServer((host, port), _Handler)
        self._http.coordinator = self.coordinator  # type: ignore[attr-defined]
        self._http.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CoordinatorServer":
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="coordinator",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._http.serve_forever()

    def shutdown(self) -> None:
        """Stop serving: no new connections, every kept one closed.

        Handler threads are joined, so no request reaches the
        coordinator once this returns.
        """
        self._http.shutdown()
        self._http.close_connections()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
