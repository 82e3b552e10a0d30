"""HTTP client for a coordinator node.

:class:`CoordinatorClient` speaks the coordinator's JSON protocol
(:mod:`repro.distributed.server`) and implements the same
``submit / lease / heartbeat / ack / nack / result / depth`` surface as
a local :class:`~repro.distributed.jobqueue.JobQueue` — so a
:class:`~repro.distributed.worker.Worker` or a
:class:`~repro.service.facade.ThroughputService` configured with
``queue=CoordinatorClient(url)`` is the *distributed* deployment of
exactly the code path that runs single-host.

Every request goes through one :mod:`http.client` exchange (stdlib
only). Each client thread keeps one HTTP/1.1 connection to the
coordinator (a :class:`threading.local`, since a worker's heartbeat
thread shares its client) with ``TCP_NODELAY`` set: without it a kept
connection stalls each small request on the peer's delayed ACK
(~40 ms). A kept connection the coordinator has closed since its last
reply (restart, shutdown) is replaced before the request is sent. A
request that is safe to repeat (a read, a digest-deduplicated submit, a
heartbeat) is sent once more on a fresh connection when a reused one
fails before the status line; a lease, report or nack is never
repeated, since the coordinator may already have acted on it. A
connection failure raises :class:`CoordinatorError` (a
:class:`~repro.exceptions.ReproError`, so the CLI reports it as a plain
error line, not a traceback). The module-level :func:`http_json` /
:func:`http_text` / :func:`http_head` helpers are one-shot requests
(one connection each) for callers without a client.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.distributed.jobqueue import LeasedJob, SubmitReceipt


class CoordinatorError(ReproError):
    """The coordinator is unreachable or answered with garbage."""


class _Kept:
    """A kept connection: Nagle's algorithm off (see the module
    docstring), and its socket closed when the connection is dropped —
    a thread's connection goes when the thread ends."""

    def connect(self) -> None:
        super().connect()  # type: ignore[misc]
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def __del__(self) -> None:
        self.close()  # type: ignore[attr-defined]


class _KeptHTTPConnection(_Kept, http.client.HTTPConnection):
    pass


class _KeptHTTPSConnection(_Kept, http.client.HTTPSConnection):
    pass


def _open(url: str, timeout: float) -> Tuple[http.client.HTTPConnection, str]:
    """An unconnected connection to ``url``'s host, and ``url``'s path
    and query (a client's base URL: the prefix of every request)."""
    parts = urllib.parse.urlsplit(url)
    connection_class = {
        "http": _KeptHTTPConnection, "https": _KeptHTTPSConnection,
    }.get(parts.scheme)
    if connection_class is None or not parts.netloc:
        raise CoordinatorError(
            f"coordinator unreachable: {url}: not an http(s) URL"
        )
    target = parts.path
    if parts.query:
        target += "?" + parts.query
    return connection_class(parts.netloc, timeout=timeout), target


def _peer_closed(connection: http.client.HTTPConnection) -> bool:
    """``True`` when a kept connection's socket is readable between
    requests — nothing is due then, so the peer has closed it."""
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    return bool(poller.poll(0))


def _exchange(connection: http.client.HTTPConnection, url: str,
              method: str, target: str, body: Optional[bytes],
              headers: Dict[str, str], *,
              repeatable: bool = False) -> Tuple[int, bytes]:
    """One request over ``connection``: ``(status, raw body)``.

    A connection that already carried a request may have been closed by
    the peer since. If its socket says so, it is replaced before
    sending. If it fails before the status line anyway, a
    ``repeatable`` request is sent once more on a fresh connection.
    Every other failure raises :class:`CoordinatorError`.
    """
    reused = connection.sock is not None
    if reused and _peer_closed(connection):
        connection.close()
        reused = False
    try:
        try:
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
        except ConnectionError:
            # refused, reset, broken pipe, or closed before the status
            # line (http.client.RemoteDisconnected)
            if not (reused and repeatable):
                raise
            connection.close()
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        connection.close()
        raise CoordinatorError(f"coordinator unreachable: {url}: {exc}")


def _one_shot(url: str, method: str, body: Optional[bytes],
              headers: Dict[str, str], timeout: float) -> Tuple[int, bytes]:
    """One request on a connection of its own, closed afterwards."""
    connection, target = _open(url, timeout)
    try:
        return _exchange(connection, url, method, target, body,
                         {**headers, "Connection": "close"})
    finally:
        connection.close()


def _encode_json(payload: Optional[Any]) -> Tuple[Optional[bytes],
                                                   Dict[str, str]]:
    headers = {"Accept": "application/json"}
    if payload is None:
        return None, headers
    headers["Content-Type"] = "application/json"
    return json.dumps(payload).encode("utf-8"), headers


def _decode_json(raw: bytes, url: str) -> Any:
    if not raw:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CoordinatorError(
            f"coordinator sent non-JSON from {url}: {exc}"
        )


def http_json(
    url: str,
    *,
    method: str = "GET",
    payload: Optional[Any] = None,
    timeout: float = 10.0,
) -> Tuple[int, Any]:
    """One JSON request/response; ``(status, parsed body or None)``.

    HTTP error statuses are returned, not raised (the caller decides
    what a 404 means); transport failures raise :class:`CoordinatorError`.
    """
    body, headers = _encode_json(payload)
    status, raw = _one_shot(url, method, body, headers, timeout)
    return status, _decode_json(raw, url)


def http_text(url: str, *, timeout: float = 10.0) -> Tuple[int, str]:
    """One GET returning the raw body as text (``/metrics`` is not JSON)."""
    status, raw = _one_shot(url, "GET", None, {"Accept": "text/plain"},
                            timeout)
    return status, raw.decode("utf-8", "replace")


def http_head(url: str, *, timeout: float = 10.0) -> bool:
    """``True`` iff a HEAD request answers 2xx."""
    status, _raw = _one_shot(url, "HEAD", None, {}, timeout)
    return 200 <= status < 300


class CoordinatorClient:
    """A remote :class:`JobQueue` — plus result/stats polling — over HTTP.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running ``repro serve`` node.
    timeout:
        Per-request socket timeout in seconds.
    """

    name = "coordinator"

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self) -> Tuple[http.client.HTTPConnection, str]:
        """This thread's kept connection (not connected until first
        use) and the base URL's path prefix."""
        kept = getattr(self._local, "kept", None)
        if kept is None:
            kept = self._local.kept = _open(self.base_url, self.timeout)
        return kept

    def _call(self, path: str, *, method: str = "GET",
              payload: Optional[Any] = None,
              expect: Sequence[int] = (200,),
              repeatable: bool = False) -> Any:
        """One JSON request over this thread's kept connection.

        ``repeatable`` marks a request the coordinator may safely see
        twice (see :func:`_exchange`).
        """
        url = f"{self.base_url}{path}"
        connection, prefix = self._connection()
        data, headers = _encode_json(payload)
        status, raw = _exchange(connection, url, method, prefix + path,
                                data, headers, repeatable=repeatable)
        body = _decode_json(raw, url)
        if status not in expect:
            detail = body.get("error") if isinstance(body, dict) else body
            raise CoordinatorError(
                f"coordinator {method} {path} failed "
                f"({status}): {detail}"
            )
        return body

    # -- health / stats --------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._call("/healthz", repeatable=True)

    def stats(self) -> Dict[str, Any]:
        return self._call("/stats", repeatable=True)

    def depth(self) -> Dict[str, int]:
        return self.stats().get("queue", {})

    def metrics_text(self) -> str:
        """The coordinator's ``/metrics`` scrape (Prometheus text)."""
        url = f"{self.base_url}/metrics"
        connection, prefix = self._connection()
        status, raw = _exchange(
            connection, url, "GET", prefix + "/metrics", None,
            {"Accept": "text/plain"}, repeatable=True,
        )
        body = raw.decode("utf-8", "replace")
        if status != 200:
            raise CoordinatorError(
                f"coordinator GET /metrics failed ({status}): {body}"
            )
        return body

    # -- flight recorder -------------------------------------------------
    def post_trace(self, events: Sequence[Dict[str, Any]]) -> int:
        """Ship buffered trace events; returns how many were stored."""
        body = self._call(
            "/trace", method="POST", payload={"events": list(events)}
        )
        return int(body.get("stored", 0))

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every event the coordinator holds for one trace id."""
        body = self._call(f"/trace/{trace_id}", expect=(200, 404),
                          repeatable=True)
        if not isinstance(body, dict):
            return []
        return list(body.get("events", []))

    # -- enqueue ---------------------------------------------------------
    def submit_many(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[SubmitReceipt]:
        body = self._call(
            "/jobs", method="POST", payload={"jobs": list(payloads)},
            repeatable=True,  # the coordinator deduplicates by digest
        )
        return [
            SubmitReceipt(digest=row["digest"], state=row["state"],
                          job_id=row.get("job_id", 0))
            for row in body["jobs"]
        ]

    def submit(self, payload: Dict[str, Any], *,
               digest: Optional[str] = None) -> SubmitReceipt:
        return self.submit_many([payload])[0]

    # -- worker side -----------------------------------------------------
    def lease(self, max_jobs: int = 1, *, worker_id: str = "",
              visibility_timeout: Optional[float] = None) -> List[LeasedJob]:
        params = {"max": max_jobs, "worker": worker_id}
        if visibility_timeout is not None:
            params["visibility"] = visibility_timeout
        # not repeatable: a second lease would strand the first batch
        # until its visibility timeout
        body = self._call(
            "/jobs/lease?" + urllib.parse.urlencode(params)
        )
        return [
            LeasedJob(
                job_id=row["job_id"], token=row["token"],
                digest=row["digest"], payload=row["payload"],
                attempt=row.get("attempt", 1),
                deadline=row.get("deadline", 0.0),
            )
            for row in body["jobs"]
        ]

    def report(
        self,
        results: Sequence[Dict[str, Any]],
        *,
        worker_id: str = "",
        metrics: Optional[Dict[str, Any]] = None,
    ) -> List[bool]:
        """Ack a batch: each row is ``{job_id, token, digest, outcome}``.

        ``metrics`` optionally piggybacks the worker's latest registry
        snapshot for the coordinator's ``/metrics`` aggregation.
        """
        payload: Dict[str, Any] = {
            "worker": worker_id, "results": list(results),
        }
        if metrics is not None:
            payload["metrics"] = metrics
        body = self._call("/results", method="POST", payload=payload)
        return [bool(flag) for flag in body["accepted"]]

    def ack(self, job_id: int, token: str,
            outcome: Dict[str, Any]) -> bool:
        return self.report([{
            "job_id": job_id, "token": token,
            "digest": outcome.get("digest", ""), "outcome": outcome,
        }])[0]

    def nack(self, job_id: int, token: str, *, error: str = "") -> bool:
        body = self._call(
            "/nack", method="POST",
            payload={"job_id": job_id, "token": token, "error": error},
        )
        return bool(body["accepted"])

    def heartbeat_many(
        self, leases: Sequence[Dict[str, Any]], *, worker_id: str = "",
        metrics: Optional[Dict[str, Any]] = None,
    ) -> List[bool]:
        payload: Dict[str, Any] = {
            "worker": worker_id, "leases": list(leases),
        }
        if metrics is not None:
            payload["metrics"] = metrics
        body = self._call("/heartbeat", method="POST", payload=payload,
                          repeatable=True)
        return [bool(flag) for flag in body["accepted"]]

    def heartbeat(self, job_id: int, token: str) -> bool:
        return self.heartbeat_many([{"job_id": job_id, "token": token}])[0]

    # -- result polling --------------------------------------------------
    def result(self, digest: str) -> Optional[Dict[str, Any]]:
        """The outcome for ``digest`` or ``None`` while in flight.

        Results answered by the coordinator's *cache* (rather than a
        fresh worker solve) come back tagged ``cache_hit="remote"``.
        """
        body = self._call(f"/results/{digest}", expect=(200, 404),
                          repeatable=True)
        return self._tag(body)

    def results_fetch(
        self, digests: Sequence[str]
    ) -> Dict[str, Optional[Dict[str, Any]]]:
        """Batched :meth:`result` — one round trip for a whole poll."""
        body = self._call(
            "/results/fetch", method="POST",
            payload={"digests": list(digests)}, repeatable=True,
        )
        return {
            digest: self._tag(row)
            for digest, row in body["results"].items()
        }

    @staticmethod
    def _tag(body: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        if not body or "outcome" not in body or body["outcome"] is None:
            return None
        outcome = body["outcome"]
        if body.get("source") == "cache":
            outcome["cache_hit"] = "remote"
        return outcome

    def close(self) -> None:
        """Close the calling thread's kept connection.

        Another thread's connection closes when that thread ends. The
        client stays usable: a later call connects afresh.
        """
        kept = getattr(self._local, "kept", None)
        if kept is not None:
            kept[0].close()

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
