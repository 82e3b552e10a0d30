"""The throughput service: cache semantics, pool fault handling, parity.

Covers the serving-layer contract end to end:

* two-tier cache hit/miss semantics (memory LRU, disk promotion,
  non-cacheable statuses never stored);
* batch results equal sequential K-Iter on the golden corpus, with
  in-batch dedup for repeated graphs;
* pool fault containment — a crashing worker poisons only its chunk, a
  hung worker is timed out and the batch continues on a recycled
  executor, cancellation stops between chunks;
* no-``fork``-assumption smoke test: the full service path under an
  explicit ``spawn`` context;
* engine fallback: a failing primary engine falls through to the next
  one in the chain.

The fault-injection workers are module-level functions (picklable); the
fault tests pin the ``fork`` start method so they do not depend on this
test module being importable from a fresh interpreter.
"""

import json
import multiprocessing
import os
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.io import load_graph
from repro.kperiodic import solve_kiter_payload, throughput_kiter
from repro.model import sdf
from repro.service import (
    ResultCache,
    SolverPool,
    ThroughputJob,
    ThroughputService,
    graph_digest,
)

from tests.conftest import golden_corpus_cases

DATA = Path(__file__).parent / "data"
HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
CASES = golden_corpus_cases()


def two_cycle():
    return sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
        name="two_cycle",
    )


# ----------------------------------------------------------------------
# Fault-injection worker functions (must be top-level for pickling)
# ----------------------------------------------------------------------
def _stub_outcome():
    return {
        "status": "OK", "period": [2, 1], "K": {}, "rounds": 1,
        "engine_iterations": 0, "critical_tasks": [],
        "engine_used": "stub", "fallback": False,
        "wall_time": 0.0, "worker_pid": os.getpid(),
    }


def flaky_chunk(payloads):
    if any(p.get("crash") for p in payloads):
        os._exit(23)
    return [_stub_outcome() for _ in payloads]


def sleepy_chunk(payloads):
    if any(p.get("sleep") for p in payloads):
        time.sleep(30)
    return [_stub_outcome() for _ in payloads]


def slow_chunk(payloads):
    time.sleep(0.4)
    return [_stub_outcome() for _ in payloads]


# ----------------------------------------------------------------------
# Cache semantics
# ----------------------------------------------------------------------
def test_memory_cache_hit_and_miss():
    service = ThroughputService()
    first = service.submit(two_cycle())
    assert first.ok and first.period == 2 and first.cache_hit == ""
    second = service.submit(two_cycle())
    assert second.ok and second.period == 2
    assert second.cache_hit == "memory"
    stats = service.stats()
    assert stats.solves == 1
    assert stats.cache["memory_hits"] == 1
    assert stats.cache["misses"] == 1


def test_disk_cache_survives_process_state(tmp_path):
    with ThroughputService(cache=ResultCache(disk_root=tmp_path)) as first:
        assert first.submit(two_cycle()).cache_hit == ""
    # A brand-new service (fresh memory tier) over the same directory:
    with ThroughputService(cache=ResultCache(disk_root=tmp_path)) as second:
        hit = second.submit(two_cycle())
        assert hit.ok and hit.period == 2
        assert hit.cache_hit == "disk"
        # promoted to memory on the way through
        assert second.submit(two_cycle()).cache_hit == "memory"


def test_lru_eviction_bounds_memory_tier():
    cache = ResultCache(memory_size=2)
    for digest in ("a" * 64, "b" * 64, "c" * 64):
        cache.put(digest, {"status": "OK"})
    assert cache.get("a" * 64) is None  # evicted
    assert cache.get("c" * 64) is not None


def test_timeouts_are_never_cached():
    slow = DATA / "golden_synthetic2.json"
    if not slow.exists():
        pytest.skip("golden corpus not present")
    graph = load_graph(slow)
    service = ThroughputService()
    timed_out = service.submit(graph, time_budget=1e-9)
    assert timed_out.status == "TIMEOUT"
    assert not timed_out.cacheable
    # Same digest (budgets are excluded from it), but the poisoned
    # outcome was not stored: the retry really solves.
    solved = service.submit(graph, time_budget=None)
    assert solved.ok
    assert solved.cache_hit == ""


def test_deadlock_is_deterministic_and_cached():
    dead = sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 0)],
        name="dead",
    )
    service = ThroughputService()
    first = service.submit(dead)
    assert first.status == "DEADLOCK" and first.cacheable
    assert service.submit(dead).cache_hit == "memory"


# ----------------------------------------------------------------------
# Batch = sequential on the golden corpus; dedup
# ----------------------------------------------------------------------
@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_batch_matches_golden_corpus_with_pool():
    graphs = [load_graph(DATA / name) for name, _ in CASES]
    with ThroughputService(workers=2, chunk_size=3) as service:
        outcomes = service.submit_many(graphs)
    assert [o.period for o in outcomes] == [p for _, p in CASES]
    assert all(o.ok for o in outcomes)
    # exact Fraction identity with the direct solver, not just equality
    direct = throughput_kiter(graphs[0]).period
    assert outcomes[0].period == direct


@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_in_batch_dedup_solves_once():
    graphs = [load_graph(DATA / name) for name, _ in CASES[:4]]
    doubled = graphs + list(reversed(graphs))
    service = ThroughputService()
    outcomes = service.submit_many(doubled)
    assert [o.period for o in outcomes[:4]] == [p for _, p in CASES[:4]]
    assert [o.period for o in outcomes[4:]] == [
        p for _, p in reversed(CASES[:4])
    ]
    assert all(o.cache_hit == "batch" for o in outcomes[4:])
    assert service.stats().solves == 4


def test_mutating_an_outcome_does_not_poison_the_cache():
    service = ThroughputService()
    first = service.submit(two_cycle())
    first.K["A"] = 999  # caller scribbles on its own copy
    again = service.submit(two_cycle())
    assert again.cache_hit == "memory"
    assert again.K == {"A": 1, "B": 1}


def test_payload_carries_graph_digest_for_worker_reuse():
    graph = two_cycle()
    a = ThroughputJob.from_graph(graph, engine="karp")
    b = ThroughputJob.from_graph(graph, engine="ratio-iteration")
    assert a.digest != b.digest  # different jobs...
    assert a.graph_digest == b.graph_digest == graph_digest(graph)
    assert a.payload()["graph_digest"] == a.graph_digest


def test_bad_update_policy_fails_once_without_engine_blame():
    service = ThroughputService(update_policy="typo")
    outcome = service.submit(two_cycle())
    assert outcome.status == "ERROR"
    assert "update_policy" in outcome.error
    assert outcome.engine_used == ""
    assert not outcome.fallback


def test_digest_distinguishes_solve_parameters():
    graph = two_cycle()
    base = ThroughputJob.from_graph(graph)
    assert base.digest == ThroughputJob.from_graph(graph).digest
    assert base.digest != ThroughputJob.from_graph(
        graph, engine="karp"
    ).digest
    assert base.digest != ThroughputJob.from_graph(
        graph, update_policy="full-q"
    ).digest
    # labels and budgets are reporting-only
    assert base.digest == ThroughputJob.from_graph(
        graph, label="elsewhere", time_budget=5.0
    ).digest


# ----------------------------------------------------------------------
# Pool fault handling
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_worker_crash_poisons_only_its_chunk():
    with SolverPool(1, chunk_size=1, worker_fn=flaky_chunk,
                    mp_context="fork") as pool:
        results = pool.solve([{}, {"crash": True}, {}])
    assert [r["status"] for r in results] == ["OK", "ERROR", "OK"]
    assert "crashed" in results[1]["error"]
    assert pool.stats.crashes == 1
    assert pool.stats.recycles == 1


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_hung_worker_times_out_and_batch_continues():
    start = time.perf_counter()
    with SolverPool(1, chunk_size=1, job_timeout=0.5,
                    worker_fn=sleepy_chunk, mp_context="fork") as pool:
        results = pool.solve([{"sleep": True}, {}])
    elapsed = time.perf_counter() - start
    assert [r["status"] for r in results] == ["TIMEOUT", "OK"]
    assert elapsed < 20, "timeout did not preempt the 30s sleep"
    assert pool.stats.timeouts == 1
    assert pool.stats.recycles == 1


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_cancellation_stops_between_chunks():
    with SolverPool(1, chunk_size=1, worker_fn=slow_chunk,
                    mp_context="fork") as pool:
        timer = threading.Timer(0.2, pool.cancel)
        timer.start()
        try:
            results = pool.solve([{} for _ in range(8)])
        finally:
            timer.cancel()
    statuses = [r["status"] for r in results]
    assert statuses[0] == "OK"
    assert "CANCELLED" in statuses
    assert len(results) == 8


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_pool_survives_crash_then_solves_real_jobs():
    with SolverPool(1, chunk_size=1, worker_fn=flaky_chunk,
                    mp_context="fork") as pool:
        broken = pool.solve([{"crash": True}])
        assert broken[0]["status"] == "ERROR"
    job = ThroughputJob.from_graph(two_cycle(), engine="ratio-iteration")
    with SolverPool(1, mp_context="fork") as pool:
        result = pool.solve([job.payload()])
    assert result[0]["status"] == "OK"
    assert Fraction(*result[0]["period"]) == 2


# ----------------------------------------------------------------------
# spawn-context smoke test (no fork assumptions anywhere in the path)
# ----------------------------------------------------------------------
def test_service_under_spawn_context(monkeypatch):
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH",
        src_dir + (os.pathsep + existing if existing else ""),
    )
    graphs = [
        two_cycle(),
        sdf({"A": 1, "B": 2}, [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)],
            name="multirate"),
    ]
    with ThroughputService(workers=2, mp_context="spawn") as service:
        outcomes = service.submit_many(graphs)
    assert [o.status for o in outcomes] == ["OK", "OK"]
    assert [o.period for o in outcomes] == [
        throughput_kiter(g).period for g in graphs
    ]
    pids = {o.worker_pid for o in outcomes}
    assert os.getpid() not in pids, "jobs ran inline, not in the pool"


# ----------------------------------------------------------------------
# Engine fallback and the worker entry point
# ----------------------------------------------------------------------
def test_engine_fallback_on_solver_error():
    service = ThroughputService(
        engine="no-such-engine",
        fallback_engines=("ratio-iteration",),
    )
    outcome = service.submit(two_cycle())
    assert outcome.ok and outcome.period == 2
    assert outcome.fallback
    assert outcome.engine_used == "ratio-iteration"
    assert outcome.engine == "no-such-engine"


@pytest.mark.parametrize("filename,period", CASES,
                         ids=[c[0] for c in CASES])
def test_queued_hybrid_job_is_answered_by_its_fallback(filename, period):
    """A job queued by an older client still names the retired ``hybrid``
    engine, with ``ratio-iteration`` as its fallback. In a fleet chunk
    next to a default job for the same graph, only the old job takes the
    fallback, and both report the exact golden period and the same K."""
    from repro.kperiodic.fleet import solve_fleet_payloads

    graph = load_graph(DATA / filename)
    default = ThroughputJob.from_graph(graph).payload()
    queued = ThroughputJob.from_graph(
        graph, engine="hybrid", fallback_engines=("ratio-iteration",),
    ).payload()
    fresh, old = solve_fleet_payloads([default, queued])
    for outcome in (fresh, old):
        assert outcome["status"] == "OK", outcome
        assert Fraction(*outcome["period"]) == period
        assert outcome["engine_used"] == "ratio-iteration"
    assert fresh["fallback"] is False
    assert old["fallback"] is True
    assert old["K"] == fresh["K"]


@pytest.mark.parametrize("surface", ["job", "service", "cli-batch"])
def test_every_surface_defaults_to_the_registry_default(surface):
    """The job, the service and ``repro batch`` share one default engine
    and no fallback chain: a fallback to the same deterministic engine
    would only rerun the failed solve."""
    from repro.cli import build_parser
    from repro.mcrp.registry import DEFAULT_ENGINE

    if surface == "job":
        job = ThroughputJob.from_graph(two_cycle())
        engine, fallbacks = job.engine, job.fallback_engines
    elif surface == "service":
        service = ThroughputService(workers=0)
        engine, fallbacks = service.engine, service.fallback_engines
    else:
        args = build_parser().parse_args(
            ["batch", "manifest.json", "-o", "out.jsonl"])
        engine, fallbacks = args.engine, tuple(args.fallback or ())
    assert engine == DEFAULT_ENGINE == "ratio-iteration"
    assert fallbacks == ()


def test_exhausted_fallback_chain_reports_error():
    service = ThroughputService(
        engine="no-such-engine", fallback_engines=(),
    )
    outcome = service.submit(two_cycle())
    assert outcome.status == "ERROR"
    assert "no-such-engine" in outcome.error
    assert not outcome.cacheable


def test_solve_kiter_payload_round_trips_plain_dicts():
    payload = ThroughputJob.from_graph(
        two_cycle(), engine="karp"
    ).payload()
    result = solve_kiter_payload(json.loads(json.dumps(payload)))
    assert result["status"] == "OK"
    assert Fraction(*result["period"]) == 2
    assert result["engine_used"] == "karp"
    assert result["K"] == {"A": 1, "B": 1}


def test_submit_async_resolves_and_caches():
    service = ThroughputService()
    outcome = service.submit_async(two_cycle()).result(timeout=30)
    assert outcome.ok and outcome.period == 2
    again = service.submit_async(two_cycle()).result(timeout=30)
    assert again.cache_hit == "memory"


def test_map_streams_in_order():
    graphs = [two_cycle() for _ in range(5)]
    service = ThroughputService()
    outcomes = list(service.map(graphs, batch_size=2))
    assert len(outcomes) == 5
    assert all(o.period == 2 for o in outcomes)


def test_graph_digest_insertion_order_independent_service_view():
    g1 = sdf({"A": 1, "B": 2}, [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)])
    g2 = sdf({"B": 2, "A": 1}, [("B", "A", 3, 2, 6), ("A", "B", 2, 3, 0)])
    assert graph_digest(g1) == graph_digest(g2)
    service = ThroughputService()
    assert service.submit(g1).cache_hit == ""
    assert service.submit(g2).cache_hit == "memory"


# ----------------------------------------------------------------------
# One decode per job
# ----------------------------------------------------------------------
def _decode_spy(monkeypatch):
    """Count ``CsdfGraph.from_dict`` calls for the rest of the test."""
    from repro.model.graph import CsdfGraph

    calls = []
    decode = CsdfGraph.from_dict.__func__

    def counting(cls, payload):
        calls.append(payload.get("name"))
        return decode(cls, payload)

    monkeypatch.setattr(CsdfGraph, "from_dict", classmethod(counting))
    return calls


def _cycle_dicts(count):
    """``count`` distinct two-task cycles, as plain graph dicts."""
    return [
        sdf({"A": d, "B": 1}, [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
            name=f"decode{d}").to_dict()
        for d in range(1, count + 1)
    ]


def test_inline_route_decodes_each_job_once(monkeypatch):
    docs = _cycle_dicts(16)
    calls = _decode_spy(monkeypatch)
    outcomes = ThroughputService().submit_many(docs)
    assert [o.period for o in outcomes] == [d + 1 for d in range(1, 17)]
    assert sorted(calls) == sorted(doc["name"] for doc in docs)


def test_queue_inline_route_decodes_each_job_once(monkeypatch):
    from repro.distributed import CoordinatorClient, CoordinatorServer

    docs = _cycle_dicts(16)
    with CoordinatorServer() as server:
        client = CoordinatorClient(server.url)
        service = ThroughputService(queue=client, queue_inline_drain=True,
                                    queue_poll=0.01)
        calls = _decode_spy(monkeypatch)
        outcomes = service.submit_many(docs)
        client.close()
    assert [o.period for o in outcomes] == [d + 1 for d in range(1, 17)]
    assert sorted(calls) == sorted(doc["name"] for doc in docs)


def test_job_payload_keeps_the_callers_dict():
    doc = dict(two_cycle().to_dict(), note="kept")
    job = ThroughputService().job_for(doc)
    assert job.payload()["graph"] == doc
    assert job.digest == ThroughputJob.from_graph(two_cycle()).digest


def test_undecodable_dict_fails_submit_many():
    from repro.exceptions import ModelError

    bad = dict(two_cycle().to_dict(), format="not-a-graph")
    with pytest.raises(ModelError):
        ThroughputService().submit_many([two_cycle(), bad])
