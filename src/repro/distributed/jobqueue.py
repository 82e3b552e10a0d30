"""Leased job queues for the distributed solve fabric.

A :class:`JobQueue` hands solve payloads to workers under **leases**:
a leased job stays invisible to other workers until it is acked
(solved), nacked (failed), or its *visibility timeout* expires — the
crash-recovery path: a worker that dies mid-chunk simply stops
heartbeating and its jobs are redelivered to someone else. Retries are
bounded (``max_attempts`` leases per job); a job that keeps failing
lands in the **dead-letter bucket** with a synthesized ``ERROR``
outcome, so a batch waiting on it always completes — nothing is ever
silently lost.

Lifecycle::

    submit ─▶ pending ─lease─▶ leased ─ack─▶ done
                 ▲                │
                 └──nack/expiry───┘ (attempts < max_attempts)
                                  └─────────▶ dead (otherwise)

Jobs are deduplicated by content digest: submitting a digest that is
already pending/leased/done returns the existing job, and completed
results are answered straight from the queue's result column. Lease
tokens rotate on every (re)delivery, so a stale worker acking after its
lease expired is rejected — exactly-once *acceptance* of results even
with at-least-once delivery.

Two implementations: :class:`MemoryJobQueue` (in-process, the
single-host default) and :class:`SQLiteJobQueue` (WAL-mode file, shared
by worker processes on one filesystem or behind one coordinator).
Expired-lease reclamation is lazy — performed inside ``lease``/
``depth``/``result`` — so neither needs a background thread.
"""

from __future__ import annotations

import heapq
import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Queue states a job moves through.
JOB_STATES = ("pending", "leased", "done", "dead")


def _replayable(outcome: Optional[Dict[str, Any]]) -> bool:
    """Whether a completed job's outcome may satisfy a *new* submit.

    Only deterministic outcomes replay; a ``TIMEOUT`` under one budget
    must not answer a later, better-funded query (the same rule the
    cache backends enforce).
    """
    from repro.distributed.backends import storable_outcome

    return outcome is not None and storable_outcome(outcome)


@dataclass
class SubmitReceipt:
    """What :meth:`JobQueue.submit` tells the enqueuer.

    ``state`` is ``"queued"`` (newly enqueued — including a dead job
    given a fresh chance), ``"pending"`` (an identical job is already
    waiting or running: deduplicated) or ``"done"`` (the result is
    already available via :meth:`JobQueue.result`).
    """

    digest: str
    state: str
    job_id: int = 0


@dataclass
class LeasedJob:
    """One job handed to a worker, valid until ``deadline``."""

    job_id: int
    token: str
    digest: str
    payload: Dict[str, Any]
    attempt: int
    deadline: float


def dead_letter_outcome(digest: str, attempts: int, error: str) -> Dict[str, Any]:
    """The synthesized ``ERROR`` outcome a dead-lettered job reports."""
    detail = f": {error}" if error else ""
    return {
        "status": "ERROR",
        "error": (
            f"job dead-lettered after {attempts} attempt(s){detail}"
        ),
        "engine_used": "",
        "fallback": False,
        "wall_time": 0.0,
        "worker_pid": 0,
        "dead_letter": True,
        "digest": digest,
    }


@dataclass
class QueueCounters:
    """Monotonic queue counters (cheap, approximate observability)."""

    submitted: int = 0
    deduplicated: int = 0
    leases: int = 0
    acks: int = 0
    stale_acks: int = 0
    nacks: int = 0
    redeliveries: int = 0
    dead: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class JobQueue:
    """Protocol base: lease/ack/nack with visibility timeouts.

    Parameters
    ----------
    visibility_timeout:
        Seconds a lease stays exclusive without a heartbeat; an expired
        lease is redelivered (or dead-lettered past ``max_attempts``).
    max_attempts:
        Upper bound on deliveries per job.
    """

    #: Registry key (mirrors the cache-backend convention).
    name = "abstract"

    def __init__(self, *, visibility_timeout: float = 30.0,
                 max_attempts: int = 3):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.visibility_timeout = visibility_timeout
        self.max_attempts = max_attempts
        self.counters = QueueCounters()

    # -- protocol surface -----------------------------------------------
    def submit(self, payload: Dict[str, Any], *,
               digest: Optional[str] = None) -> SubmitReceipt:
        raise NotImplementedError

    def lease(self, max_jobs: int = 1, *, worker_id: str = "",
              visibility_timeout: Optional[float] = None) -> List[LeasedJob]:
        raise NotImplementedError

    def heartbeat(self, job_id: int, token: str) -> bool:
        raise NotImplementedError

    def ack(self, job_id: int, token: str,
            outcome: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def nack(self, job_id: int, token: str, *, error: str = "") -> bool:
        raise NotImplementedError

    def result(self, digest: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def depth(self) -> Dict[str, int]:
        raise NotImplementedError

    def dead_letters(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"backend": self.name}
        out.update(self.depth())
        out.update(self.counters.as_dict())
        return out

    @staticmethod
    def _digest_of(payload: Dict[str, Any],
                   digest: Optional[str]) -> str:
        digest = digest or payload.get("digest")
        if not digest:
            raise ValueError(
                "job payload carries no 'digest' and none was given"
            )
        return digest

    def close(self) -> None:
        pass

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemoryJobQueue(JobQueue):
    """In-process queue: job records behind one lock, plus two heaps.

    Pending job ids sit in a min-heap, so ``lease`` hands out the
    oldest pending jobs first without scanning the history. Leases sit
    in a ``(deadline, job_id)`` heap with lazy invalidation: an entry
    whose record was heartbeated, acked or nacked since it was pushed
    no longer matches the record and is dropped when it surfaces.
    Done and dead rows keep their outcome but not their payload. Every
    hot operation is therefore O(log n) in the jobs held, whatever the
    queue's uptime; only ``depth`` and ``dead_letters`` scan.
    """

    name = "memory"

    def __init__(self, *, visibility_timeout: float = 30.0,
                 max_attempts: int = 3):
        super().__init__(visibility_timeout=visibility_timeout,
                         max_attempts=max_attempts)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, Any]] = {}  # digest -> record
        # Same record objects keyed by job id: ack/nack/heartbeat are
        # O(1) instead of scanning every job under the lock.
        self._by_id: Dict[int, Dict[str, Any]] = {}
        self._pending: List[int] = []  # heap of pending job ids
        self._leases: List[Tuple[float, int]] = []  # (deadline, job_id)
        self._next_id = 1

    # -- internals -------------------------------------------------------
    def _reclaim_locked(self, now: float) -> None:
        while self._leases and self._leases[0][0] <= now:
            deadline, job_id = heapq.heappop(self._leases)
            record = self._by_id[job_id]
            if record["state"] != "leased" \
                    or record["deadline"] != deadline:
                continue  # stale entry: heartbeated, acked or nacked
            self._release_locked(
                record, f"lease expired (worker {record['worker'] or '?'})"
            )

    def _release_locked(self, record: Dict[str, Any], error: str) -> None:
        """Return a leased job to pending, or dead-letter it."""
        record["token"] = ""
        record["error"] = error
        if record["attempts"] >= self.max_attempts:
            record.update(state="dead", payload=None)
            self.counters.dead += 1
        else:
            record["state"] = "pending"
            heapq.heappush(self._pending, record["job_id"])
            self.counters.redeliveries += 1

    def _leased_locked(self, job_id: int,
                       token: str) -> Optional[Dict[str, Any]]:
        record = self._by_id.get(job_id)
        if record is None or record["state"] != "leased" \
                or record["token"] != token:
            return None
        return record

    # -- protocol --------------------------------------------------------
    def submit(self, payload: Dict[str, Any], *,
               digest: Optional[str] = None) -> SubmitReceipt:
        digest = self._digest_of(payload, digest)
        now = time.time()
        with self._lock:
            self._reclaim_locked(now)
            record = self._jobs.get(digest)
            if record is not None:
                if record["state"] == "done" and _replayable(
                        record["outcome"]):
                    self.counters.deduplicated += 1
                    return SubmitReceipt(digest, "done", record["job_id"])
                if record["state"] in ("pending", "leased"):
                    self.counters.deduplicated += 1
                    return SubmitReceipt(digest, "pending",
                                         record["job_id"])
                # dead, or done with a budget-dependent outcome
                # (TIMEOUT must never satisfy a later query): a fresh
                # submit is a fresh chance, with the payload restored.
                record.update(state="pending", payload=payload,
                              attempts=0, token="", worker="",
                              deadline=0.0, outcome=None, error="")
                heapq.heappush(self._pending, record["job_id"])
                self.counters.submitted += 1
                return SubmitReceipt(digest, "queued", record["job_id"])
            job_id = self._next_id
            self._next_id += 1
            record = {
                "job_id": job_id, "digest": digest, "payload": payload,
                "state": "pending", "attempts": 0, "token": "",
                "worker": "", "deadline": 0.0, "outcome": None,
                "error": "", "submitted": now,
            }
            self._jobs[digest] = record
            self._by_id[job_id] = record
            heapq.heappush(self._pending, job_id)
            self.counters.submitted += 1
            return SubmitReceipt(digest, "queued", job_id)

    def lease(self, max_jobs: int = 1, *, worker_id: str = "",
              visibility_timeout: Optional[float] = None) -> List[LeasedJob]:
        timeout = (self.visibility_timeout
                   if visibility_timeout is None else visibility_timeout)
        now = time.time()
        leased: List[LeasedJob] = []
        with self._lock:
            self._reclaim_locked(now)
            while self._pending and len(leased) < max_jobs:
                record = self._by_id[heapq.heappop(self._pending)]
                token = uuid.uuid4().hex
                record.update(
                    state="leased", token=token, worker=worker_id,
                    deadline=now + timeout,
                    attempts=record["attempts"] + 1,
                )
                heapq.heappush(self._leases,
                               (record["deadline"], record["job_id"]))
                self.counters.leases += 1
                leased.append(LeasedJob(
                    job_id=record["job_id"], token=token,
                    digest=record["digest"], payload=record["payload"],
                    attempt=record["attempts"],
                    deadline=record["deadline"],
                ))
        return leased

    def heartbeat(self, job_id: int, token: str) -> bool:
        now = time.time()
        with self._lock:
            self._reclaim_locked(now)
            record = self._leased_locked(job_id, token)
            if record is None:
                return False
            record["deadline"] = now + self.visibility_timeout
            heapq.heappush(self._leases, (record["deadline"], job_id))
            return True

    def ack(self, job_id: int, token: str,
            outcome: Dict[str, Any]) -> bool:
        with self._lock:
            self._reclaim_locked(time.time())
            record = self._leased_locked(job_id, token)
            if record is None:
                self.counters.stale_acks += 1
                return False
            record.update(state="done", outcome=outcome, payload=None,
                          token="", error="")
            self.counters.acks += 1
            return True

    def nack(self, job_id: int, token: str, *, error: str = "") -> bool:
        with self._lock:
            self._reclaim_locked(time.time())
            record = self._leased_locked(job_id, token)
            if record is None:
                return False
            self.counters.nacks += 1
            self._release_locked(record, error)
            return True

    def result(self, digest: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            self._reclaim_locked(time.time())
            record = self._jobs.get(digest)
            if record is None:
                return None
            if record["state"] == "done":
                return dict(record["outcome"])
            if record["state"] == "dead":
                return dead_letter_outcome(
                    digest, record["attempts"], record["error"]
                )
            return None

    def depth(self) -> Dict[str, int]:
        with self._lock:
            self._reclaim_locked(time.time())
            counts = {state: 0 for state in JOB_STATES}
            for record in self._jobs.values():
                counts[record["state"]] += 1
        return counts

    def dead_letters(self) -> List[Dict[str, Any]]:
        with self._lock:
            self._reclaim_locked(time.time())
            return [
                {"digest": r["digest"], "attempts": r["attempts"],
                 "error": r["error"]}
                for r in sorted(self._jobs.values(),
                                key=lambda r: r["job_id"])
                if r["state"] == "dead"
            ]


class SQLiteJobQueue(JobQueue):
    """WAL-mode persistent queue shared by processes on one filesystem.

    Every mutation runs under ``BEGIN IMMEDIATE`` so two worker
    processes can never lease the same pending job; WAL plus a busy
    timeout keeps readers (depth/result polls) from blocking behind
    writers.
    """

    name = "sqlite"

    def __init__(self, path: Union[str, Path], *,
                 visibility_timeout: float = 30.0, max_attempts: int = 3,
                 timeout: float = 5.0):
        super().__init__(visibility_timeout=visibility_timeout,
                         max_attempts=max_attempts)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False,
            isolation_level=None,  # explicit BEGIN/COMMIT below
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " job_id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " digest TEXT NOT NULL UNIQUE,"
                " payload TEXT NOT NULL,"
                " state TEXT NOT NULL DEFAULT 'pending',"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " token TEXT NOT NULL DEFAULT '',"
                " worker TEXT NOT NULL DEFAULT '',"
                " deadline REAL NOT NULL DEFAULT 0,"
                " outcome TEXT,"
                " error TEXT NOT NULL DEFAULT '',"
                " submitted REAL NOT NULL)"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS jobs_state "
                "ON jobs (state, job_id)"
            )

    # -- internals -------------------------------------------------------
    def _txn(self):
        """Context manager: lock + BEGIN IMMEDIATE … COMMIT/ROLLBACK."""
        queue = self

        class _Txn:
            def __enter__(self):
                queue._lock.acquire()
                queue._conn.execute("BEGIN IMMEDIATE")
                return queue._conn

            def __exit__(self, exc_type, *rest):
                try:
                    if exc_type is None:
                        queue._conn.execute("COMMIT")
                    else:
                        queue._conn.execute("ROLLBACK")
                finally:
                    queue._lock.release()
                return False

        return _Txn()

    def _reclaim_if_needed(self) -> None:
        """Reclaim expired leases, write-locking only when one exists.

        Result/depth polls run many times per second from every
        waiting client; probing read-only first keeps them off the
        write lock that workers' lease/ack transactions need.
        """
        now = time.time()
        with self._lock:
            expired = self._conn.execute(
                "SELECT 1 FROM jobs WHERE state = 'leased' "
                "AND deadline <= ? LIMIT 1", (now,)
            ).fetchone()
        if expired is None:
            return
        with self._txn() as conn:
            self._reclaim(conn, time.time())

    def _reclaim(self, conn: sqlite3.Connection, now: float) -> None:
        expired = conn.execute(
            "SELECT job_id, attempts, worker FROM jobs "
            "WHERE state = 'leased' AND deadline <= ?", (now,)
        ).fetchall()
        for job_id, attempts, worker in expired:
            error = f"lease expired (worker {worker or '?'})"
            if attempts >= self.max_attempts:
                conn.execute(
                    "UPDATE jobs SET state = 'dead', token = '', "
                    "error = ? WHERE job_id = ?", (error, job_id)
                )
                self.counters.dead += 1
            else:
                conn.execute(
                    "UPDATE jobs SET state = 'pending', token = '', "
                    "error = ? WHERE job_id = ?", (error, job_id)
                )
                self.counters.redeliveries += 1

    # -- protocol --------------------------------------------------------
    def submit(self, payload: Dict[str, Any], *,
               digest: Optional[str] = None) -> SubmitReceipt:
        digest = self._digest_of(payload, digest)
        now = time.time()
        with self._txn() as conn:
            self._reclaim(conn, now)
            row = conn.execute(
                "SELECT job_id, state, outcome FROM jobs "
                "WHERE digest = ?", (digest,)
            ).fetchone()
            if row is not None:
                job_id, state, outcome_blob = row
                if state == "done" and _replayable(
                        json.loads(outcome_blob) if outcome_blob
                        else None):
                    self.counters.deduplicated += 1
                    return SubmitReceipt(digest, "done", job_id)
                if state in ("pending", "leased"):
                    self.counters.deduplicated += 1
                    return SubmitReceipt(digest, "pending", job_id)
                # dead, or done with a budget-dependent outcome: requeue
                conn.execute(
                    "UPDATE jobs SET state = 'pending', attempts = 0, "
                    "token = '', worker = '', deadline = 0, "
                    "outcome = NULL, error = '' WHERE job_id = ?",
                    (job_id,)
                )
                self.counters.submitted += 1
                return SubmitReceipt(digest, "queued", job_id)
            cursor = conn.execute(
                "INSERT INTO jobs (digest, payload, submitted) "
                "VALUES (?, ?, ?)",
                (digest, json.dumps(payload, sort_keys=True), now),
            )
            self.counters.submitted += 1
            return SubmitReceipt(digest, "queued", cursor.lastrowid)

    def lease(self, max_jobs: int = 1, *, worker_id: str = "",
              visibility_timeout: Optional[float] = None) -> List[LeasedJob]:
        timeout = (self.visibility_timeout
                   if visibility_timeout is None else visibility_timeout)
        now = time.time()
        leased: List[LeasedJob] = []
        with self._txn() as conn:
            self._reclaim(conn, now)
            rows = conn.execute(
                "SELECT job_id, digest, payload, attempts FROM jobs "
                "WHERE state = 'pending' ORDER BY job_id LIMIT ?",
                (max_jobs,)
            ).fetchall()
            for job_id, digest, payload_blob, attempts in rows:
                token = uuid.uuid4().hex
                deadline = now + timeout
                conn.execute(
                    "UPDATE jobs SET state = 'leased', token = ?, "
                    "worker = ?, deadline = ?, attempts = ? "
                    "WHERE job_id = ?",
                    (token, worker_id, deadline, attempts + 1, job_id),
                )
                self.counters.leases += 1
                leased.append(LeasedJob(
                    job_id=job_id, token=token, digest=digest,
                    payload=json.loads(payload_blob),
                    attempt=attempts + 1, deadline=deadline,
                ))
        return leased

    def heartbeat(self, job_id: int, token: str) -> bool:
        now = time.time()
        with self._txn() as conn:
            self._reclaim(conn, now)
            cursor = conn.execute(
                "UPDATE jobs SET deadline = ? WHERE job_id = ? "
                "AND state = 'leased' AND token = ?",
                (now + self.visibility_timeout, job_id, token),
            )
            return cursor.rowcount == 1

    def ack(self, job_id: int, token: str,
            outcome: Dict[str, Any]) -> bool:
        with self._txn() as conn:
            self._reclaim(conn, time.time())
            cursor = conn.execute(
                "UPDATE jobs SET state = 'done', outcome = ?, "
                "token = '', error = '' WHERE job_id = ? "
                "AND state = 'leased' AND token = ?",
                (json.dumps(outcome, sort_keys=True), job_id, token),
            )
            if cursor.rowcount == 1:
                self.counters.acks += 1
                return True
            self.counters.stale_acks += 1
            return False

    def nack(self, job_id: int, token: str, *, error: str = "") -> bool:
        with self._txn() as conn:
            self._reclaim(conn, time.time())
            row = conn.execute(
                "SELECT attempts FROM jobs WHERE job_id = ? "
                "AND state = 'leased' AND token = ?", (job_id, token)
            ).fetchone()
            if row is None:
                return False
            self.counters.nacks += 1
            if row[0] >= self.max_attempts:
                state = "dead"
                self.counters.dead += 1
            else:
                state = "pending"
                self.counters.redeliveries += 1
            conn.execute(
                "UPDATE jobs SET state = ?, token = '', error = ? "
                "WHERE job_id = ?", (state, error, job_id),
            )
            return True

    def result(self, digest: str) -> Optional[Dict[str, Any]]:
        self._reclaim_if_needed()
        with self._lock:
            row = self._conn.execute(
                "SELECT state, attempts, outcome, error FROM jobs "
                "WHERE digest = ?", (digest,)
            ).fetchone()
        if row is None:
            return None
        state, attempts, outcome, error = row
        if state == "done" and outcome is not None:
            return json.loads(outcome)
        if state == "dead":
            return dead_letter_outcome(digest, attempts, error)
        return None

    def depth(self) -> Dict[str, int]:
        self._reclaim_if_needed()
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update(dict(rows))
        return counts

    def dead_letters(self) -> List[Dict[str, Any]]:
        self._reclaim_if_needed()
        with self._lock:
            rows = self._conn.execute(
                "SELECT digest, attempts, error FROM jobs "
                "WHERE state = 'dead' ORDER BY job_id"
            ).fetchall()
        return [
            {"digest": d, "attempts": a, "error": e} for d, a, e in rows
        ]

    def close(self) -> None:
        with self._lock:
            self._conn.close()


#: Name → class registry, pinned by ``tests/test_docs.py`` against the
#: backend matrix in ``docs/service.md``.
QUEUE_BACKENDS: Dict[str, type] = {
    MemoryJobQueue.name: MemoryJobQueue,
    SQLiteJobQueue.name: SQLiteJobQueue,
}


def make_job_queue(spec: str, *, visibility_timeout: float = 30.0,
                   max_attempts: int = 3) -> JobQueue:
    """Build a queue from ``memory`` or ``sqlite:<file>`` spec strings.

    ``http://…`` specs resolve to a
    :class:`~repro.distributed.client.CoordinatorClient`, which speaks
    the same protocol against a remote coordinator.
    """
    if spec.startswith(("http://", "https://")):
        from repro.distributed.client import CoordinatorClient

        return CoordinatorClient(spec)
    kind, _, arg = spec.partition(":")
    if kind == "memory":
        return MemoryJobQueue(visibility_timeout=visibility_timeout,
                              max_attempts=max_attempts)
    if kind == "sqlite":
        if not arg:
            raise ValueError("sqlite queue spec needs a file: sqlite:PATH")
        return SQLiteJobQueue(arg, visibility_timeout=visibility_timeout,
                              max_attempts=max_attempts)
    raise ValueError(
        f"unknown queue backend spec {spec!r} "
        f"(choose from {sorted(QUEUE_BACKENDS)})"
    )
