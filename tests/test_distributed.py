"""The distributed solve fabric: backends, queues, coordinator, workers.

Four layers of coverage:

* **Cache-backend conformance** — one parametrized contract (roundtrip,
  miss, contains, stats, mutation isolation, refusal of
  budget-dependent outcomes) against all four ``CacheBackend``s, plus
  backend-specific pins: LRU eviction (memory), byte-identical legacy
  layout (disk), concurrent hammering (sqlite WAL).
* **Job-queue conformance** — the lease/ack/nack contract against both
  ``JobQueue``s: visibility-timeout redelivery, stale-token rejection
  (no duplicated results), bounded retries into the dead-letter bucket
  (no lost results), heartbeat extension, and the
  never-replay-a-TIMEOUT rule; plus a hypothesis state machine that
  holds ``MemoryJobQueue``'s heaps to a full-scan reference model.
* **Coordinator semantics** — in-batch dedup, cache-first
  short-circuiting, result sourcing, worker liveness.
* **End to end over localhost HTTP** — a coordinator plus two workers
  solve the golden corpus with `Fraction`-exact equality against the
  sequential path; a rerun is served entirely from the remote cache;
  and a worker that leases a chunk and dies (simulated *and* a real
  SIGKILLed subprocess) costs only a lease timeout, never a result.
"""

import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro
from repro.distributed import (
    Coordinator,
    CoordinatorClient,
    CoordinatorServer,
    DiskCacheBackend,
    HTTPCacheBackend,
    MemoryCacheBackend,
    MemoryJobQueue,
    SQLiteCacheBackend,
    SQLiteJobQueue,
    Worker,
    make_cache_backend,
    make_job_queue,
)
from repro.distributed.jobqueue import QueueCounters
from repro.io import load_graph
from repro.kperiodic import throughput_kiter
from repro.model import sdf
from repro.service import ResultCache, ThroughputJob, ThroughputService

from tests.conftest import golden_corpus_cases

DATA = Path(__file__).parent / "data"
CASES = golden_corpus_cases()

OK_OUTCOME = {
    "status": "OK", "period": [2, 1], "K": {"A": 1, "B": 1},
    "engine_used": "ratio-iteration", "fallback": False, "wall_time": 0.01,
    "worker_pid": 1234,
}


def _digest(i: int = 0) -> str:
    return f"{i:x}".rjust(64, "0")


def two_cycle():
    return sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
        name="two_cycle",
    )


# ----------------------------------------------------------------------
# Cache-backend conformance (all four implementations, one contract)
# ----------------------------------------------------------------------
@pytest.fixture(params=["memory", "disk", "sqlite", "http"])
def cache_backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryCacheBackend(max_entries=64)
    elif request.param == "disk":
        yield DiskCacheBackend(tmp_path / "cache")
    elif request.param == "sqlite":
        backend = SQLiteCacheBackend(tmp_path / "cache.db")
        yield backend
        backend.close()
    else:
        with CoordinatorServer() as server:
            yield HTTPCacheBackend(server.url)


def test_backend_roundtrip_and_miss(cache_backend):
    digest = _digest(1)
    assert cache_backend.get(digest) is None
    assert not cache_backend.contains(digest)
    assert cache_backend.put(digest, OK_OUTCOME)
    assert cache_backend.contains(digest)
    assert cache_backend.get(digest) == OK_OUTCOME


def test_backend_overwrite_is_idempotent(cache_backend):
    digest = _digest(2)
    cache_backend.put(digest, OK_OUTCOME)
    updated = dict(OK_OUTCOME, period=[3, 1])
    cache_backend.put(digest, updated)
    assert cache_backend.get(digest)["period"] == [3, 1]


def test_backend_stats_counters(cache_backend):
    digest = _digest(3)
    cache_backend.get(digest)                       # miss
    cache_backend.put(digest, OK_OUTCOME)           # put
    cache_backend.get(digest)                       # hit
    stats = cache_backend.stats()
    assert stats["backend"] == cache_backend.name
    assert stats["hits"] >= 1
    assert stats["misses"] >= 1
    assert stats["puts"] == 1


@pytest.mark.parametrize("status", ["TIMEOUT", "ERROR", "CANCELLED"])
def test_backend_never_stores_budget_dependent_outcomes(
    cache_backend, status
):
    digest = _digest(4)
    poisoned = dict(OK_OUTCOME, status=status)
    assert cache_backend.put(digest, poisoned) is False
    assert cache_backend.get(digest) is None
    assert not cache_backend.contains(digest)
    assert cache_backend.stats()["rejected_puts"] == 1


def test_backend_mutation_does_not_poison_store(cache_backend):
    digest = _digest(5)
    cache_backend.put(digest, OK_OUTCOME)
    first = cache_backend.get(digest)
    first["K"]["A"] = 999
    assert cache_backend.get(digest)["K"] == {"A": 1, "B": 1}


def test_result_cache_promotes_from_any_backend(cache_backend):
    digest = _digest(6)
    front = ResultCache(backend=cache_backend)
    front.put(digest, OK_OUTCOME)
    # A fresh two-tier cache over the same persistent backend: first
    # read answers from the backend tier, second from promoted memory.
    again = ResultCache(backend=cache_backend)
    entry, tier = again.get_with_tier(digest)
    assert entry == OK_OUTCOME
    assert tier == cache_backend.name
    assert again.get_with_tier(digest)[1] == "memory"
    assert again.stats.disk_hits == 1 and again.stats.memory_hits == 1


def test_memory_backend_lru_evicts_oldest():
    backend = MemoryCacheBackend(max_entries=2)
    for i in range(3):
        backend.put(_digest(i), OK_OUTCOME)
    assert backend.get(_digest(0)) is None
    assert backend.get(_digest(2)) is not None
    assert backend.entry_count() == 2


def test_disk_backend_layout_is_byte_identical_to_legacy(tmp_path):
    # The pre-fabric ResultCache wrote <root>/<digest[:2]>/<digest>.json
    # with sort_keys + indent=1; remote shards rely on that layout.
    backend = DiskCacheBackend(tmp_path)
    digest = _digest(7)
    backend.put(digest, OK_OUTCOME)
    path = tmp_path / digest[:2] / f"{digest}.json"
    assert path.exists()
    assert path.read_text() == json.dumps(
        OK_OUTCOME, sort_keys=True, indent=1
    )
    assert not list(tmp_path.rglob("*.tmp")), "temp file leaked"
    # and the two-tier cache reads the same layout via disk_root=
    legacy = ResultCache(memory_size=0, disk_root=tmp_path)
    assert legacy.get(digest) == OK_OUTCOME


def test_sqlite_backend_survives_concurrent_threads(tmp_path):
    backend = SQLiteCacheBackend(tmp_path / "cache.db")
    errors = []

    def hammer(base):
        try:
            for i in range(25):
                digest = _digest(base * 100 + i)
                backend.put(digest, OK_OUTCOME)
                assert backend.get(digest) == OK_OUTCOME
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert backend.entry_count() == 100
    assert backend.size_bytes() > 0
    backend.close()


def test_make_cache_backend_specs(tmp_path):
    assert isinstance(make_cache_backend("memory"), MemoryCacheBackend)
    assert make_cache_backend("memory:7").max_entries == 7
    disk = make_cache_backend(f"disk:{tmp_path / 'c'}")
    assert isinstance(disk, DiskCacheBackend)
    bare = make_cache_backend(str(tmp_path / "bare"))
    assert isinstance(bare, DiskCacheBackend)
    sqlite_backend = make_cache_backend(f"sqlite:{tmp_path / 'c.db'}")
    assert isinstance(sqlite_backend, SQLiteCacheBackend)
    sqlite_backend.close()
    assert isinstance(
        make_cache_backend("http://127.0.0.1:1"), HTTPCacheBackend
    )
    with pytest.raises(ValueError):
        make_cache_backend("disk:")


# ----------------------------------------------------------------------
# Job-queue conformance (both implementations, one contract)
# ----------------------------------------------------------------------
@pytest.fixture(params=["memory", "sqlite"])
def make_queue(request, tmp_path):
    created = []

    def factory(**kwargs):
        if request.param == "memory":
            queue = MemoryJobQueue(**kwargs)
        else:
            queue = SQLiteJobQueue(
                tmp_path / f"queue{len(created)}.db", **kwargs
            )
        created.append(queue)
        return queue

    yield factory
    for queue in created:
        queue.close()


def _payload(i: int = 0):
    return {"digest": _digest(i), "graph": {"i": i}}


def test_queue_lifecycle_and_dedup(make_queue):
    queue = make_queue()
    receipt = queue.submit(_payload(1))
    assert receipt.state == "queued"
    assert queue.submit(_payload(1)).state == "pending"  # deduplicated
    assert queue.depth()["pending"] == 1

    jobs = queue.lease(5, worker_id="w1")
    assert len(jobs) == 1
    job = jobs[0]
    assert job.digest == _digest(1) and job.attempt == 1
    assert job.payload == _payload(1)
    assert queue.lease(5) == []          # leased jobs are exclusive
    assert queue.result(job.digest) is None

    assert queue.ack(job.job_id, job.token, OK_OUTCOME)
    assert queue.result(job.digest) == OK_OUTCOME
    assert queue.submit(_payload(1)).state == "done"
    assert queue.depth() == {
        "pending": 0, "leased": 0, "done": 1, "dead": 0,
    }


def test_queue_visibility_timeout_redelivers_without_duplicates(make_queue):
    queue = make_queue(visibility_timeout=0.2, max_attempts=5)
    queue.submit(_payload(1))
    stale = queue.lease(1, worker_id="doomed")[0]
    time.sleep(0.3)  # the lease expires: simulated worker death
    redelivered = queue.lease(1, worker_id="survivor")
    assert len(redelivered) == 1
    fresh = redelivered[0]
    assert fresh.digest == stale.digest
    assert fresh.attempt == 2
    assert fresh.token != stale.token
    # The dead worker's late ack is rejected: results never duplicate.
    assert queue.ack(stale.job_id, stale.token, OK_OUTCOME) is False
    assert queue.result(fresh.digest) is None
    assert queue.ack(fresh.job_id, fresh.token, OK_OUTCOME) is True
    assert queue.result(fresh.digest) == OK_OUTCOME
    assert queue.counters.redeliveries == 1
    assert queue.counters.stale_acks == 1


def test_queue_nack_redelivers_then_dead_letters(make_queue):
    queue = make_queue(max_attempts=2)
    queue.submit(_payload(1))
    first = queue.lease(1, worker_id="w")[0]
    assert queue.nack(first.job_id, first.token, error="boom 1")
    second = queue.lease(1, worker_id="w")[0]
    assert second.attempt == 2
    assert queue.nack(second.job_id, second.token, error="boom 2")
    assert queue.lease(1) == []
    # Bounded retries exhausted: the waiter still gets a terminal
    # outcome (nothing is ever lost), flagged as a dead letter.
    outcome = queue.result(_digest(1))
    assert outcome["status"] == "ERROR"
    assert outcome["dead_letter"] is True
    assert "boom 2" in outcome["error"]
    dead = queue.dead_letters()
    assert len(dead) == 1 and dead[0]["digest"] == _digest(1)
    assert queue.depth()["dead"] == 1
    # ...and an explicit resubmit grants a fresh round of attempts.
    assert queue.submit(_payload(1)).state == "queued"
    assert queue.lease(1)[0].attempt == 1


def test_queue_lease_expiry_dead_letters_after_max_attempts(make_queue):
    queue = make_queue(visibility_timeout=0.1, max_attempts=1)
    queue.submit(_payload(1))
    queue.lease(1, worker_id="doomed")
    time.sleep(0.15)
    assert queue.depth()["dead"] == 1  # lazy reclaim ran
    assert queue.result(_digest(1))["dead_letter"] is True


def test_queue_timeout_outcomes_never_replay(make_queue):
    queue = make_queue()
    queue.submit(_payload(1))
    job = queue.lease(1)[0]
    timed_out = dict(OK_OUTCOME, status="TIMEOUT", period=None)
    assert queue.ack(job.job_id, job.token, timed_out)
    # The batch that enqueued it still sees its outcome...
    assert queue.result(_digest(1))["status"] == "TIMEOUT"
    # ...but a new submit re-queues instead of replaying the stale
    # budget-dependent answer.
    assert queue.submit(_payload(1)).state == "queued"
    assert queue.result(_digest(1)) is None
    assert len(queue.lease(1)) == 1


def test_queue_heartbeat_extends_lease(make_queue):
    queue = make_queue(visibility_timeout=0.4)
    queue.submit(_payload(1))
    job = queue.lease(1, worker_id="slow")[0]
    for _ in range(4):  # hold the lease ~0.6 s, past its first deadline
        time.sleep(0.15)
        assert queue.heartbeat(job.job_id, job.token)
        assert queue.lease(1) == []  # never redelivered meanwhile
    assert queue.ack(job.job_id, job.token, OK_OUTCOME)
    assert queue.counters.redeliveries == 0


def test_queue_redelivers_an_older_job_before_newer_pending_ones(
        make_queue):
    queue = make_queue()
    queue.submit(_payload(1))
    old = queue.lease(1, worker_id="w")[0]
    queue.submit(_payload(2))
    queue.submit(_payload(3))
    assert queue.nack(old.job_id, old.token, error="retry me")
    assert [j.digest for j in queue.lease(2)] == [_digest(1), _digest(2)]
    assert [j.digest for j in queue.lease(2)] == [_digest(3)]


def test_memory_queue_done_rows_drop_payloads_and_resubmits_restore_them():
    queue = MemoryJobQueue(max_attempts=1)
    for i in (1, 2):
        queue.submit(_payload(i))
    done, dead = queue.lease(2)
    timed_out = dict(OK_OUTCOME, status="TIMEOUT", period=None)
    assert queue.ack(done.job_id, done.token, timed_out)
    assert queue.nack(dead.job_id, dead.token, error="boom")
    assert queue._jobs[_digest(1)]["payload"] is None
    assert queue._jobs[_digest(2)]["payload"] is None
    # A done row keeps its outcome, a dead row its dead letter.
    assert queue.result(_digest(1))["status"] == "TIMEOUT"
    assert queue.result(_digest(2))["dead_letter"] is True
    for i in (1, 2):
        assert queue.submit(_payload(i)).state == "queued"
    assert [j.payload for j in queue.lease(2)] == [_payload(1), _payload(2)]


class _Clock:
    """A settable stand-in for the ``time`` module of the job queue."""

    now = 1000.0

    def time(self):
        return self.now


_CLOCK = _Clock()


class _ScanQueue:
    """Reference model: the queue logic before the heaps.

    Every operation first reclaims expired leases by scanning every
    record, and ``lease`` scans the records in ``job_id`` order. Tokens
    are lease serial numbers.
    """

    def __init__(self, *, visibility_timeout, max_attempts):
        self.visibility_timeout = visibility_timeout
        self.max_attempts = max_attempts
        self.jobs = {}  # digest -> record, in job_id order
        self.counters = QueueCounters()
        self._serial = 0

    def _reclaim(self):
        for record in self.jobs.values():
            if record["state"] == "leased" \
                    and record["deadline"] <= _CLOCK.now:
                self._release(record)

    def _release(self, record):
        record["token"] = None
        if record["attempts"] >= self.max_attempts:
            record["state"] = "dead"
            self.counters.dead += 1
        else:
            record["state"] = "pending"
            self.counters.redeliveries += 1

    def _leased(self, job_id, token):
        for record in self.jobs.values():
            if record["job_id"] == job_id and record["state"] == "leased" \
                    and record["token"] == token:
                return record
        return None

    def submit(self, digest):
        self._reclaim()
        record = self.jobs.get(digest)
        if record is not None:
            replayable = record["state"] == "done" \
                and record["status"] == "OK"
            if replayable or record["state"] in ("pending", "leased"):
                self.counters.deduplicated += 1
                return ("done" if replayable else "pending",
                        record["job_id"])
            record.update(state="pending", attempts=0, status=None)
        else:
            record = self.jobs[digest] = {
                "job_id": len(self.jobs) + 1, "digest": digest,
                "state": "pending", "attempts": 0, "token": None,
                "deadline": 0.0, "status": None,
            }
        self.counters.submitted += 1
        return "queued", record["job_id"]

    def lease(self, max_jobs, timeout):
        self._reclaim()
        leased = []
        for record in sorted(self.jobs.values(), key=lambda r: r["job_id"]):
            if len(leased) >= max_jobs:
                break
            if record["state"] != "pending":
                continue
            self._serial += 1
            record.update(state="leased", token=self._serial,
                          deadline=_CLOCK.now + timeout,
                          attempts=record["attempts"] + 1)
            self.counters.leases += 1
            leased.append(record)
        return [(r["job_id"], r["digest"], r["attempts"], r["deadline"],
                 r["token"]) for r in leased]

    def heartbeat(self, job_id, token):
        self._reclaim()
        record = self._leased(job_id, token)
        if record is None:
            return False
        record["deadline"] = _CLOCK.now + self.visibility_timeout
        return True

    def ack(self, job_id, token, status):
        self._reclaim()
        record = self._leased(job_id, token)
        if record is None:
            self.counters.stale_acks += 1
            return False
        record.update(state="done", status=status, token=None)
        self.counters.acks += 1
        return True

    def nack(self, job_id, token):
        self._reclaim()
        record = self._leased(job_id, token)
        if record is None:
            return False
        self.counters.nacks += 1
        self._release(record)
        return True


class _QueueMachine(RuleBasedStateMachine):
    """Random traffic against the heap queue and the scan model."""

    DIGESTS = [_digest(i) for i in range(6)]

    def __init__(self):
        super().__init__()
        _CLOCK.now = 1000.0
        self.queue = MemoryJobQueue(visibility_timeout=2.0, max_attempts=2)
        self.model = _ScanQueue(visibility_timeout=2.0, max_attempts=2)
        self.leases = []  # (LeasedJob, model token)

    @rule(i=st.integers(0, 5))
    def submit(self, i):
        digest = self.DIGESTS[i]
        receipt = self.queue.submit({"digest": digest, "graph": {"i": i}})
        assert (receipt.state, receipt.job_id) == self.model.submit(digest)

    @rule(n=st.integers(1, 3), timeout=st.sampled_from([None, 1.0, 5.0]))
    def lease(self, n, timeout):
        jobs = self.queue.lease(n, worker_id="w",
                                visibility_timeout=timeout)
        expected = self.model.lease(n, timeout or 2.0)
        assert [(j.job_id, j.digest, j.attempt, j.deadline) for j in jobs] \
            == [row[:4] for row in expected]
        for job, row in zip(jobs, expected):
            assert job.payload["digest"] == job.digest
            self.leases.append((job, row[4]))

    @precondition(lambda self: self.leases)
    @rule(pick=st.integers(0, 100))
    def heartbeat(self, pick):
        job, token = self.leases[pick % len(self.leases)]
        assert self.queue.heartbeat(job.job_id, job.token) \
            == self.model.heartbeat(job.job_id, token)

    @precondition(lambda self: self.leases)
    @rule(pick=st.integers(0, 100), status=st.sampled_from(["OK", "TIMEOUT"]))
    def ack(self, pick, status):
        job, token = self.leases[pick % len(self.leases)]
        outcome = dict(OK_OUTCOME, status=status)
        assert self.queue.ack(job.job_id, job.token, outcome) \
            == self.model.ack(job.job_id, token, status)

    @precondition(lambda self: self.leases)
    @rule(pick=st.integers(0, 100))
    def nack(self, pick):
        job, token = self.leases[pick % len(self.leases)]
        assert self.queue.nack(job.job_id, job.token, error="e") \
            == self.model.nack(job.job_id, token)

    @rule(dt=st.sampled_from([0.5, 1.0, 2.0, 6.0]))
    def advance(self, dt):
        _CLOCK.now += dt

    @invariant()
    def same_states_and_counters(self):
        # depth() reclaims on the real queue; reclaim the model alike.
        depth = self.queue.depth()
        self.model._reclaim()
        for digest, expected in self.model.jobs.items():
            record = self.queue._jobs[digest]
            assert (record["state"], record["attempts"]) \
                == (expected["state"], expected["attempts"])
            assert (record["payload"] is None) \
                == (expected["state"] in ("done", "dead"))
        assert sum(depth.values()) == len(self.model.jobs)
        assert self.queue.counters == self.model.counters


def test_memory_queue_matches_the_scan_model(monkeypatch):
    from repro.distributed import jobqueue

    monkeypatch.setattr(jobqueue, "time", _CLOCK)
    run_state_machine_as_test(
        _QueueMachine,
        settings=settings(max_examples=60, stateful_step_count=40,
                          deadline=None),
    )


def test_make_job_queue_specs(tmp_path):
    assert isinstance(make_job_queue("memory"), MemoryJobQueue)
    queue = make_job_queue(
        f"sqlite:{tmp_path / 'q.db'}", visibility_timeout=7,
        max_attempts=2,
    )
    assert isinstance(queue, SQLiteJobQueue)
    assert queue.visibility_timeout == 7 and queue.max_attempts == 2
    queue.close()
    assert isinstance(
        make_job_queue("http://127.0.0.1:1"), CoordinatorClient
    )
    with pytest.raises(ValueError):
        make_job_queue("postgres:nope")


# ----------------------------------------------------------------------
# Coordinator semantics (no HTTP)
# ----------------------------------------------------------------------
def test_coordinator_dedup_and_cache_short_circuit():
    coordinator = Coordinator()
    cached_digest = _digest(9)
    coordinator.cache.put(cached_digest, OK_OUTCOME)
    receipts = coordinator.submit_jobs([
        _payload(1), _payload(1), {"digest": cached_digest}, {},
    ])
    assert [r["state"] for r in receipts] == [
        "queued", "duplicate", "cached", "rejected",
    ]
    # the cached job was short-circuited: nothing queued for it
    assert coordinator.queue.depth()["pending"] == 1
    found = coordinator.result(cached_digest)
    assert found["source"] == "cache" and found["outcome"] == OK_OUTCOME


def test_coordinator_report_populates_cache_and_tracks_workers():
    coordinator = Coordinator()
    coordinator.submit_jobs([_payload(1)])
    [job] = coordinator.lease(1, worker_id="w1")
    accepted = coordinator.report(
        [{"job_id": job["job_id"], "token": job["token"],
          "digest": job["digest"], "outcome": OK_OUTCOME}],
        worker_id="w1",
    )
    assert accepted == [True]
    assert coordinator.cache.get(_digest(1)) == OK_OUTCOME
    stats = coordinator.stats()
    assert stats["workers"]["w1"]["leases"] == 1
    assert stats["workers"]["w1"]["results"] == 1
    assert stats["queue"]["done"] == 1
    # a second report with the consumed token is stale
    assert coordinator.report(
        [{"job_id": job["job_id"], "token": job["token"],
          "digest": job["digest"], "outcome": OK_OUTCOME}],
    ) == [False]


# ----------------------------------------------------------------------
# Facade queue modes (no coordinator)
# ----------------------------------------------------------------------
def test_service_inline_drain_needs_no_workers():
    service = ThroughputService(
        queue=MemoryJobQueue(), queue_inline_drain=True,
        queue_poll=0.01,
    )
    outcome = service.submit(two_cycle())
    assert outcome.ok and outcome.period == 2
    assert service.submit(two_cycle()).cache_hit == "memory"


def test_service_queue_wait_timeout_reports_error_not_cached():
    service = ThroughputService(
        queue=MemoryJobQueue(), queue_poll=0.01,
        queue_wait_timeout=0.2,
    )
    outcome = service.submit(two_cycle())
    assert outcome.status == "ERROR"
    assert "no worker answered" in outcome.error
    assert not outcome.cacheable
    # the failure was not cached: a drained retry really solves
    rescue = ThroughputService(
        queue=MemoryJobQueue(), queue_inline_drain=True,
        queue_poll=0.01,
    )
    assert rescue.submit(two_cycle()).ok


def test_service_and_worker_share_a_sqlite_queue_file(tmp_path):
    path = tmp_path / "shared.db"
    worker = Worker(
        SQLiteJobQueue(path), cache=None, worker_id="fs-worker",
        chunk_size=2, poll_interval=0.02,
    )
    thread = worker.run_in_thread()
    try:
        service = ThroughputService(
            queue=SQLiteJobQueue(path), queue_poll=0.02,
        )
        outcome = service.submit(two_cycle())
        assert outcome.ok and outcome.period == 2
    finally:
        worker.stop()
        thread.join(timeout=10)
    assert worker.stats.acks == 1


def test_service_accepts_bare_cache_backend(tmp_path):
    backend_file = tmp_path / "cache.db"
    with ThroughputService(
        cache=SQLiteCacheBackend(backend_file)
    ) as first:
        assert first.submit(two_cycle()).cache_hit == ""
    # a fresh process-equivalent over the same SQLite file
    with ThroughputService(
        cache=SQLiteCacheBackend(backend_file)
    ) as second:
        hit = second.submit(two_cycle())
        assert hit.ok and hit.cache_hit == "sqlite"


# ----------------------------------------------------------------------
# End to end over localhost HTTP
# ----------------------------------------------------------------------
def _start_workers(url, count, **kwargs):
    workers = [
        Worker(CoordinatorClient(url), worker_id=f"w{i}",
               poll_interval=0.02, **kwargs)
        for i in range(count)
    ]
    threads = [w.run_in_thread() for w in workers]
    return workers, threads


def _stop_workers(workers, threads):
    for worker in workers:
        worker.stop()
    for thread in threads:
        thread.join(timeout=10)


@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_coordinator_two_workers_match_sequential_golden_corpus():
    graphs = [load_graph(DATA / name) for name, _ in CASES]
    with CoordinatorServer(
        queue=MemoryJobQueue(visibility_timeout=30)
    ) as server:
        workers, threads = _start_workers(server.url, 2, chunk_size=3)
        try:
            service = ThroughputService(
                queue=CoordinatorClient(server.url), queue_poll=0.02,
            )
            outcomes = service.submit_many(graphs)
        finally:
            _stop_workers(workers, threads)
        assert [o.period for o in outcomes] == [p for _, p in CASES]
        assert all(o.ok and o.cache_hit == "" for o in outcomes)
        # exact Fraction identity with the sequential path
        assert outcomes[0].period == throughput_kiter(graphs[0]).period
        # both workers participated and nothing was double-acked
        assert sum(w.stats.acks for w in workers) == len(graphs)
        assert sum(w.stats.stale for w in workers) == 0

        # A fresh client (new process in real life): served entirely
        # by the coordinator, no local worker needed.
        rerun = ThroughputService(
            queue=CoordinatorClient(server.url), queue_poll=0.02,
        )
        again = rerun.submit_many(graphs)
        assert [o.period for o in again] == [p for _, p in CASES]
        assert all(o.cache_hit == "remote" for o in again)


@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_worker_death_mid_batch_redelivers_without_loss_or_duplicates():
    """The acceptance fault-injection: a worker leases a chunk and
    dies; lease-timeout redelivery completes the batch, the dead
    worker's late ack is rejected."""
    graphs = [load_graph(DATA / name) for name, _ in CASES]
    jobs = [ThroughputJob.from_graph(g) for g in graphs]
    with CoordinatorServer(
        queue=MemoryJobQueue(visibility_timeout=1.0, max_attempts=5)
    ) as server:
        client = CoordinatorClient(server.url)
        client.submit_many([job.payload() for job in jobs])
        # A "worker" leases a chunk and crashes (never acks, never
        # heartbeats) — exactly what SIGKILL looks like to the fabric.
        doomed = client.lease(4, worker_id="doomed")
        assert len(doomed) == 4

        workers, threads = _start_workers(server.url, 1, chunk_size=3)
        try:
            service = ThroughputService(
                queue=CoordinatorClient(server.url), queue_poll=0.02,
            )
            outcomes = service.submit_many(graphs)
        finally:
            _stop_workers(workers, threads)

        assert [o.period for o in outcomes] == [p for _, p in CASES]
        assert all(o.ok for o in outcomes)
        # the doomed chunk really was redelivered, not lost
        queue_stats = server.coordinator.queue.stats()
        assert queue_stats["redeliveries"] >= 4
        assert queue_stats["dead"] == 0
        # the crashed worker's ghost ack must be rejected (the live
        # worker's result already won) — no duplicated results.
        ghost = doomed[0]
        assert client.ack(
            ghost.job_id, ghost.token,
            dict(OK_OUTCOME, digest=ghost.digest),
        ) is False
        assert workers[0].stats.acks == len(graphs)


@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_sigkilled_worker_subprocess_batch_still_completes(tmp_path):
    """Same scenario with a real OS process killed with SIGKILL."""
    graphs = [load_graph(DATA / name) for name, _ in CASES]
    jobs = [ThroughputJob.from_graph(g) for g in graphs]
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with CoordinatorServer(
        queue=MemoryJobQueue(visibility_timeout=1.0, max_attempts=5)
    ) as server:
        client = CoordinatorClient(server.url)
        client.submit_many([job.payload() for job in jobs])
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--coordinator", server.url, "--id", "victim",
             "--chunk-size", str(len(jobs)), "--poll", "0.05",
             "--workers", "1"],  # pool mode: slow enough to die mid-chunk
            env=env, cwd=str(tmp_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own group: SIGKILL takes the
            # forked SolverPool child down too, not just the daemon
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                workers = server.coordinator.stats()["workers"]
                if workers.get("victim", {}).get("leases", 0) > 0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("victim worker never leased anything")
            # SIGKILL the whole group: no goodbye, no acks, and the
            # pool child dies with the daemon instead of leaking.
            os.killpg(victim.pid, 9)
            victim.wait(timeout=30)

            workers, threads = _start_workers(
                server.url, 1, chunk_size=4,
            )
            try:
                service = ThroughputService(
                    queue=CoordinatorClient(server.url),
                    queue_poll=0.02, queue_wait_timeout=120,
                )
                outcomes = service.submit_many(graphs)
            finally:
                _stop_workers(workers, threads)
            assert [o.period for o in outcomes] == [
                p for _, p in CASES
            ]
            assert all(o.ok for o in outcomes)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                os.killpg(victim.pid, 9)


def test_worker_heartbeat_interval_follows_lease_deadlines():
    # The coordinator's visibility timeout, not a client-side default,
    # must set the heartbeat cadence: a 1.5 s lease needs ~0.5 s beats.
    with CoordinatorServer(
        queue=MemoryJobQueue(visibility_timeout=1.5)
    ) as server:
        client = CoordinatorClient(server.url)
        client.submit(_payload(1))
        worker = Worker(client, worker_id="short-lease")
        jobs = client.lease(1, worker_id="short-lease")
        interval = worker._heartbeat_interval(jobs)
        assert interval <= 0.51
        # ...and the batched heartbeat keeps the lease alive well past
        # its original deadline.
        done = threading.Event()
        beat = threading.Thread(
            target=worker._heartbeat_loop, args=(jobs, done),
            daemon=True,
        )
        beat.start()
        time.sleep(2.2)
        assert client.lease(1, worker_id="thief") == []  # not expired
        done.set()
        beat.join(timeout=5)
        assert worker.stats.heartbeats >= 2


def test_worker_ids_with_reserved_url_characters_survive():
    with CoordinatorServer() as server:
        client = CoordinatorClient(server.url)
        client.submit(_payload(1))
        weird = "host 1&rack=2#a"
        jobs = client.lease(1, worker_id=weird)
        assert len(jobs) == 1
        assert weird in server.coordinator.stats()["workers"]


def test_batch_reports_errors_when_coordinator_never_answers():
    service = ThroughputService(
        queue=CoordinatorClient("http://127.0.0.1:1", timeout=0.2),
        queue_poll=0.05, queue_wait_timeout=0.6,
    )
    outcome = service.submit(two_cycle())
    assert outcome.status == "ERROR"
    assert "enqueue" in outcome.error
    assert not outcome.cacheable


def test_worker_survives_coordinator_outage():
    # Nothing listens on this port: every lease raises. The daemon
    # must back off and keep retrying, not die on the first error.
    worker = Worker(
        CoordinatorClient("http://127.0.0.1:1", timeout=0.2),
        worker_id="patient", poll_interval=0.01,
    )
    thread = worker.run_in_thread()
    time.sleep(0.4)
    assert thread.is_alive(), "worker died on a transport error"
    assert worker.stats.queue_errors >= 1
    worker.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_inline_drain_nacks_poisoned_payloads_instead_of_crashing():
    queue = MemoryJobQueue(max_attempts=1)
    # Someone else enqueued garbage on the shared queue: no "graph"
    # key at all, so the solve entry point raises instead of returning
    # an ERROR outcome.
    queue.submit({"digest": _digest(66)})
    service = ThroughputService(
        queue=queue, queue_inline_drain=True, queue_poll=0.01,
    )
    outcome = service.submit(two_cycle())
    assert outcome.ok and outcome.period == 2
    dead = queue.dead_letters()
    assert [d["digest"] for d in dead] == [_digest(66)]


def test_worker_nacks_only_the_poisoned_payload_of_a_chunk():
    queue = MemoryJobQueue(max_attempts=1)
    queue.submit({"digest": _digest(66)})  # no "graph": cannot decode
    good = ThroughputJob.from_graph(two_cycle()).payload()
    queue.submit(good)
    worker = Worker(queue, chunk_size=2, drain=True, poll_interval=0.01)
    stats = worker.run()
    assert queue.counters.leases == 2  # both rode one chunk
    assert [d["digest"] for d in queue.dead_letters()] == [_digest(66)]
    outcome = queue.result(good["digest"])
    assert outcome["status"] == "OK" and outcome["period"] == [2, 1]
    assert (stats.nacks, stats.acks) == (1, 1)


def _cycles(count):
    return [
        sdf({"A": d, "B": 1}, [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
            name=f"cycle{d}")
        for d in range(1, count + 1)
    ]


class _CountingClient(CoordinatorClient):
    def __init__(self, url):
        super().__init__(url)
        self.calls = {"lease": 0, "report": 0, "results_fetch": 0}

    def lease(self, *args, **kwargs):
        self.calls["lease"] += 1
        return super().lease(*args, **kwargs)

    def report(self, *args, **kwargs):
        self.calls["report"] += 1
        return super().report(*args, **kwargs)

    def results_fetch(self, *args, **kwargs):
        self.calls["results_fetch"] += 1
        return super().results_fetch(*args, **kwargs)


def test_inline_drain_leases_and_reports_a_batch_in_one_round_trip_each():
    with CoordinatorServer() as server:
        client = _CountingClient(server.url)
        service = ThroughputService(queue=client, queue_inline_drain=True,
                                    queue_poll=0.01)
        outcomes = service.submit_many(_cycles(16))
    assert [o.period for o in outcomes] == [d + 1 for d in range(1, 17)]
    # the drain runs before the first poll, so one poll finds everything
    assert client.calls == {"lease": 1, "report": 1, "results_fetch": 1}


def test_inline_drain_heartbeats_keep_a_long_fleet_leased(monkeypatch):
    from repro.service import pool as pool_mod

    real_solve_chunk = pool_mod.solve_chunk

    def slow_solve_chunk(payloads):
        time.sleep(1.0)  # outlives the 0.6 s lease unless heartbeated
        return real_solve_chunk(payloads)

    monkeypatch.setattr(pool_mod, "solve_chunk", slow_solve_chunk)
    queue = MemoryJobQueue(visibility_timeout=0.6)
    service = ThroughputService(queue=queue, queue_inline_drain=True,
                                queue_poll=0.01)
    outcomes = service.submit_many(_cycles(4))
    assert all(o.ok for o in outcomes)
    assert queue.counters.leases == 4
    assert queue.counters.redeliveries == 0
    assert queue.counters.stale_acks == 0


def test_submit_async_tags_remote_hits_and_does_not_count_a_solve():
    with CoordinatorServer() as server:
        workers, threads = _start_workers(server.url, 1, chunk_size=2)
        try:
            first = ThroughputService(
                queue=CoordinatorClient(server.url), queue_poll=0.02,
            )
            assert first.submit(two_cycle()).ok
        finally:
            _stop_workers(workers, threads)
        rerun = ThroughputService(
            queue=CoordinatorClient(server.url), queue_poll=0.02,
        )
        outcome = rerun.submit_async(two_cycle()).result(timeout=30)
        assert outcome.ok and outcome.cache_hit == "remote"
        stats = rerun.stats()
        assert stats.solves == 0
        # ...and the batched path agrees on the accounting
        assert rerun.submit(two_cycle()).cache_hit == "memory"
        assert rerun.stats().solves == 0


def test_http_cache_backend_against_live_coordinator():
    with CoordinatorServer() as server:
        backend = HTTPCacheBackend(server.url)
        with ThroughputService(cache=backend) as first:
            assert first.submit(two_cycle()).cache_hit == ""
        # a second host sharing nothing but the coordinator URL
        with ThroughputService(
            cache=HTTPCacheBackend(server.url)
        ) as second:
            hit = second.submit(two_cycle())
            assert hit.ok and hit.period == 2
            assert hit.cache_hit == "http"
        remote = server.coordinator.cache.stats()
        assert remote["puts"] == 1


def test_http_cache_backend_degrades_to_misses_when_unreachable():
    backend = HTTPCacheBackend("http://127.0.0.1:1")  # nothing listens
    assert backend.get(_digest(1)) is None
    assert backend.put(_digest(1), OK_OUTCOME) is True  # swallowed
    assert not backend.contains(_digest(1))
    assert backend.stats()["errors"] >= 3


def test_coordinator_healthz_and_unknown_routes():
    with CoordinatorServer() as server:
        client = CoordinatorClient(server.url)
        health = client.healthz()
        assert health["ok"] is True
        from repro.distributed.client import CoordinatorError, http_json

        status, body = http_json(f"{server.url}/no/such/route")
        assert status == 404 and "error" in body
        with pytest.raises(CoordinatorError):
            CoordinatorClient("http://127.0.0.1:1").healthz()


# ----------------------------------------------------------------------
# Kept connections
# ----------------------------------------------------------------------
def test_kept_connection_round_trip_has_no_nagle_stall():
    # With a kept connection, Nagle's algorithm on either end holds a
    # small reply behind the peer's delayed ACK (~40 ms a request);
    # TCP_NODELAY on both ends brings it well under a millisecond.
    import statistics

    with CoordinatorServer() as server:
        client = CoordinatorClient(server.url)
        client.healthz()  # connect
        trips = []
        for _ in range(50):
            started = time.perf_counter()
            client.healthz()
            trips.append(time.perf_counter() - started)
        client.close()
    assert statistics.median(trips) < 0.010


def test_call_after_shutdown_raises_coordinator_error():
    from repro.distributed.client import CoordinatorError

    server = CoordinatorServer().start()
    client = CoordinatorClient(server.url, timeout=2.0)
    assert client.healthz()["ok"] is True  # the connection is now kept
    server.shutdown()
    with pytest.raises(CoordinatorError):
        client.healthz()


def test_client_reaches_a_coordinator_restarted_on_the_same_port():
    first = CoordinatorServer().start()
    client = CoordinatorClient(first.url, timeout=2.0)
    client.submit_many([_payload(1)])
    assert client.depth()["pending"] == 1
    port = first.port
    first.shutdown()
    second = CoordinatorServer(port=port).start()
    try:
        # the kept connection died with the first coordinator: the next
        # call, even a lease (never resent), goes out on a fresh one
        assert client.lease(1, worker_id="w") == []
        assert client.depth()["pending"] == 0
        assert client.healthz()["ok"] is True
    finally:
        client.close()
        second.shutdown()


class _AnswerOncePerConnection(BaseHTTPRequestHandler):
    """Answers the first request on each connection, then reads the next
    one and drops the connection without a reply."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def do_GET(self):
        self.server.paths.append(self.path)
        if getattr(self, "answered", False):
            self.close_connection = True
            return
        self.answered = True
        body = json.dumps({"ok": True, "jobs": []}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def dropping_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AnswerOncePerConnection)
    server.daemon_threads = True
    server.paths = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_a_lease_broken_mid_request_on_a_kept_connection_is_not_resent(
        dropping_server):
    from repro.distributed.client import CoordinatorError

    client = CoordinatorClient(
        f"http://127.0.0.1:{dropping_server.server_port}", timeout=5.0)
    assert client.healthz()["ok"] is True  # the connection is now kept
    with pytest.raises(CoordinatorError):
        client.lease(1, worker_id="w")
    # the coordinator may have leased the jobs before the connection
    # broke: a second lease would strand them until the timeout
    assert [path.partition("?")[0] for path in dropping_server.paths] == [
        "/healthz", "/jobs/lease"]
    client.close()


def test_a_read_broken_mid_request_on_a_kept_connection_is_resent_once(
        dropping_server):
    client = CoordinatorClient(
        f"http://127.0.0.1:{dropping_server.server_port}", timeout=5.0)
    assert client.healthz()["ok"] is True
    assert client.healthz()["ok"] is True  # dropped, resent on a fresh one
    assert dropping_server.paths == ["/healthz"] * 3
    client.close()


def test_shutdown_answers_a_request_already_in_flight():
    server = CoordinatorServer().start()
    client = CoordinatorClient(server.url, timeout=10.0)
    client.submit_many([_payload(1)])
    entered, release = threading.Event(), threading.Event()
    lease = server.coordinator.lease

    def slow_lease(*args, **kwargs):
        entered.set()
        release.wait(5)
        return lease(*args, **kwargs)

    server.coordinator.lease = slow_lease
    leased = []
    caller = threading.Thread(
        target=lambda: leased.append(client.lease(1, worker_id="w")))
    caller.start()
    assert entered.wait(5)
    stopper = threading.Thread(target=server.shutdown)
    stopper.start()
    deadline = time.monotonic() + 5
    while not server._http._closing and time.monotonic() < deadline:
        time.sleep(0.005)
    release.set()  # the coordinator acts on the lease mid-shutdown ...
    caller.join(timeout=10)
    stopper.join(timeout=10)
    # ... and its reply still reaches the worker
    assert [job.digest for job in leased[0]] == [_digest(1)]


def _handler_threads():
    return {t for t in threading.enumerate()
            if "process_request_thread" in t.name}


def test_no_handler_thread_outlives_close_and_shutdown():
    before = _handler_threads()
    server = CoordinatorServer().start()
    client = CoordinatorClient(server.url)
    client.healthz()
    other = threading.Thread(target=client.stats)  # a second connection
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    assert _handler_threads() - before  # kept connections hold threads
    client.close()
    server.shutdown()
    assert not {t for t in _handler_threads() - before if t.is_alive()}


def test_heartbeat_thread_and_main_thread_share_one_client(monkeypatch):
    class _CheckedClient(CoordinatorClient):
        """Records every heartbeat reply that does not fit its request."""

        def __init__(self, url):
            super().__init__(url)
            self.heartbeats = 0
            self.mismatches = []

        def heartbeat_many(self, leases, **kwargs):
            try:
                accepted = super().heartbeat_many(leases, **kwargs)
            except Exception as exc:  # the loop would swallow it
                self.mismatches.append(repr(exc))
                raise
            if accepted != [True] * len(leases):
                self.mismatches.append(accepted)
            self.heartbeats += 1
            return accepted

    with CoordinatorServer() as server:
        client = _CheckedClient(server.url)
        client.submit_many([_payload(i) for i in range(6)])
        jobs = client.lease(6, worker_id="w-shared")
        worker = Worker(client, worker_id="w-shared")
        monkeypatch.setattr(worker, "_heartbeat_interval",
                            lambda jobs: 0.001)
        done = threading.Event()
        beat = threading.Thread(target=worker._heartbeat_loop,
                                args=(jobs, done))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-exchange
        beat.start()
        try:
            digests = [job.digest for job in jobs]
            for i in range(150):
                asked = digests[: 1 + i % len(digests)]
                found = client.results_fetch(asked)
                assert sorted(found) == sorted(asked)
                assert all(outcome is None for outcome in found.values())
                assert client.trace(f"trace-{i}") == []
        finally:
            sys.setswitchinterval(interval)
            done.set()
            beat.join(timeout=10)
        assert not beat.is_alive()
        client.close()
    assert client.heartbeats > 0
    assert client.mismatches == []


def test_inline_drain_nacks_a_payload_whose_graph_does_not_decode():
    queue = MemoryJobQueue(max_attempts=1)
    queue.submit({"digest": _digest(67), "graph_digest": _digest(68),
                  "graph": {"format": "not-a-graph"}})
    service = ThroughputService(
        queue=queue, queue_inline_drain=True, queue_poll=0.01,
    )
    outcome = service.submit(two_cycle())
    assert outcome.ok and outcome.period == 2
    assert [d["digest"] for d in queue.dead_letters()] == [_digest(67)]


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_cli_worker_requires_exactly_one_source(capsys):
    from repro.cli import main

    assert main(["worker"]) == 2
    assert "job source" in capsys.readouterr().err


def test_cli_worker_drains_a_sqlite_queue(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "queue.db"
    cache_path = tmp_path / "cache.db"
    feeder = SQLiteJobQueue(path)
    job = ThroughputJob.from_graph(two_cycle())
    feeder.submit(job.payload())
    assert main([
        "worker", "--queue", f"sqlite:{path}",
        "--cache", f"sqlite:{cache_path}", "--drain", "--poll", "0.02",
    ]) == 0
    out = capsys.readouterr().out
    assert "1 job(s)" in out and "1 acked" in out
    outcome = feeder.result(job.digest)
    assert outcome["status"] == "OK"
    assert Fraction(*outcome["period"]) == 2
    # the worker's write-through cache got the deterministic outcome
    side_cache = SQLiteCacheBackend(cache_path)
    assert side_cache.get(job.digest)["status"] == "OK"
    side_cache.close()
    feeder.close()


@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_cli_batch_coordinator_roundtrip(tmp_path, capsys):
    from repro.cli import main

    with CoordinatorServer() as server:
        workers, threads = _start_workers(server.url, 2, chunk_size=3)
        try:
            out_path = tmp_path / "batch.jsonl"
            code = main([
                "batch", str(DATA / "golden_index.json"),
                "-o", str(out_path), "--coordinator", server.url,
                "--check", "--poll", "0.02",
            ])
        finally:
            _stop_workers(workers, threads)
        assert code == 0
        printed = capsys.readouterr().out
        assert "coordinator:" in printed
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        golden = {name: period for name, period in CASES}
        assert len(records) == len(golden)
        for record in records:
            assert record["status"] == "OK"
            assert record["matched"] is True
            assert Fraction(*record["period"]) == golden[record["file"]]


def test_cli_serve_stats_coordinator_mode(capsys):
    from repro.cli import main

    with CoordinatorServer() as server:
        coordinator = server.coordinator
        coordinator.submit_jobs([_payload(1)])
        [job] = coordinator.lease(1, worker_id="w1")
        coordinator.report(
            [{"job_id": job["job_id"], "token": job["token"],
              "digest": job["digest"], "outcome": OK_OUTCOME}],
            worker_id="w1",
        )
        assert main(["serve-stats", "--coordinator", server.url]) == 0
    out = capsys.readouterr().out
    assert "queue [memory]" in out
    assert "cache [memory]" in out
    assert "w1:" in out
    assert "dead letters: none" in out
