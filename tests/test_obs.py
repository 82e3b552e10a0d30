"""The flight recorder: metrics registry, span tracer, summarizer.

Four layers of coverage:

* **Registry semantics** — declaration enforcement, parent chaining
  (a child cell increment IS a parent increment — the no-drift
  property behind every ``stats()`` view), snapshots, cross-process
  merging, and the Prometheus text rendering.
* **Tracer semantics** — contextvar span nesting, payload-context
  adoption, the disabled no-op path, and the ``REPRO_TRACE`` env
  bootstrap that pool children rely on.
* **Overhead guard** — the golden-corpus batch with tracing on must
  stay within 5% of tracing off, with byte-identical λ* outcomes.
* **Distributed propagation** — two in-process workers against a live
  coordinator: every solved job's spans reconstruct one
  client → coordinator → worker tree under a single trace id, a
  nack/retry survives inside the same trace, and ``GET /metrics``
  exposes solver, cache, queue, and worker families.
"""

import gc
import json
import os
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.model import sdf
from repro.obs.bench import BENCH_SCHEMA, emit_bench
from repro.obs.metrics import (
    METRICS,
    REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs import trace as trace_mod
from repro.obs.trace import (
    collect_events,
    configure_tracing,
    current_trace,
    new_trace_id,
    span,
    trace_path,
    tracing_enabled,
)
from repro.obs.summary import (
    aggregate,
    build_trees,
    load_events,
    render_summary,
)
from repro.service import ThroughputService

from tests.conftest import (
    golden_corpus_cases,
    median_overhead_ratio,
)

DATA = Path(__file__).parent / "data"
CASES = golden_corpus_cases()


@contextmanager
def _tracing(path):
    """Enable tracing to ``path`` (or disable with None), then restore
    whatever the suite-level setting was (e.g. the CI tracing job)."""
    prior = trace_path() if tracing_enabled() else None
    collect_events(clear=True)
    configure_tracing(str(path) if path else None)
    try:
        yield
    finally:
        configure_tracing(prior)
        collect_events(clear=True)


@pytest.fixture
def traced(tmp_path):
    out = tmp_path / "trace.jsonl"
    with _tracing(out):
        yield out


def ring(delay, name):
    return sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, delay)],
        name=name,
    )


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_only_declared_metrics_exist():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.counter("repro_made_up_total")
    with pytest.raises(TypeError):
        reg.gauge("repro_worker_acks_total")  # declared as a counter


def test_child_registry_cell_is_the_parent_cell():
    parent = MetricsRegistry()
    child = MetricsRegistry(parent=parent)
    cell = child.counter("repro_worker_acks_total").labels()
    cell.inc()
    cell.inc(2)
    # the no-drift property: one increment, both views
    assert child.value("repro_worker_acks_total") == 3
    assert parent.value("repro_worker_acks_total") == 3
    # labelled families keep cells separate per label set
    hits = child.counter("repro_result_cache_hits_total")
    hits.labels(tier="memory").inc()
    hits.labels(tier="disk").inc(5)
    assert parent.value("repro_result_cache_hits_total", tier="disk") == 5
    assert parent.samples("repro_result_cache_hits_total") == {
        ("memory",): 1, ("disk",): 5,
    }


def test_histogram_observations_and_snapshot_roundtrip():
    reg = MetricsRegistry()
    hist = reg.histogram("repro_solver_seconds")
    for value in (0.001, 0.5, 1000.0):  # 1000s overflows into +Inf
        hist.observe(value)
    snap = reg.snapshot()
    json.dumps(snap)  # heartbeat-shippable
    ((labels, data),) = snap["repro_solver_seconds"]["samples"]
    assert labels == {}
    assert data["count"] == 3
    assert data["sum"] == pytest.approx(1000.501)
    assert sum(data["buckets"]) == 3
    assert data["buckets"][-1] == 1  # the +Inf bucket


def test_merge_snapshots_sums_counters_last_writes_gauges():
    a, b = MetricsRegistry(), MetricsRegistry()
    for reg, n in ((a, 2), (b, 3)):
        reg.counter("repro_worker_jobs_total").inc(n)
        reg.gauge("repro_workers_known").set(n)
        reg.histogram("repro_solver_seconds").observe(0.25)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    ((_, jobs),) = merged["repro_worker_jobs_total"]["samples"]
    assert jobs == 5
    ((_, known),) = merged["repro_workers_known"]["samples"]
    assert known == 3  # gauge: last write wins
    ((_, hist),) = merged["repro_solver_seconds"]["samples"]
    assert hist["count"] == 2 and hist["sum"] == pytest.approx(0.5)


def test_render_prometheus_format():
    reg = MetricsRegistry()
    reg.counter("repro_result_cache_hits_total").labels(
        tier='we"ird\\tier').inc()
    reg.histogram("repro_solver_seconds").observe(0.25)
    reg.gauge("repro_queue_depth").labels(state="pending").set(7)
    text = render_prometheus(reg.snapshot())
    assert "# HELP repro_result_cache_hits_total " in text
    assert "# TYPE repro_result_cache_hits_total counter" in text
    assert "# TYPE repro_solver_seconds histogram" in text
    assert '\\"ird\\\\tier' in text  # label escaping
    assert 'repro_queue_depth{state="pending"} 7' in text
    assert "repro_solver_seconds_count 3" not in text
    assert "repro_solver_seconds_count 1" in text
    assert 'le="+Inf"} 1' in text
    # cumulative le buckets never decrease
    buckets = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
               if line.startswith("repro_solver_seconds_bucket")]
    assert buckets == sorted(buckets) and buckets[-1] == 1
    # every sample line parses as <name>{labels}? <number>
    sample = re.compile(
        r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? -?[0-9][0-9.e+-]*$")
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            assert sample.match(line), line


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_span_is_noop_when_disabled(tmp_path):
    with _tracing(None):
        assert not tracing_enabled()
        before = len(collect_events())
        with span("kiter.round", K=3) as sp:
            sp.attrs["extra"] = 1  # throwaway dict: must not raise
            assert sp.ctx() == {}
            assert current_trace() is None
        assert len(collect_events()) == before


def test_span_nesting_adoption_and_error(traced):
    with span("outer", a=1) as outer:
        assert current_trace() == {
            "trace_id": outer.trace_id, "parent_id": outer.span_id,
        }
        with span("inner") as inner:
            pass
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None

    ctx = {"trace_id": "t" * 16, "parent_id": "p" * 16}
    with span("adopted", trace=ctx) as adopted:
        pass
    assert adopted.trace_id == "t" * 16
    assert adopted.parent_id == "p" * 16

    with pytest.raises(ValueError):
        with span("boom"):
            raise ValueError("nope")

    events = load_events(traced)
    by_name = {e["name"]: e for e in events}
    assert set(by_name) == {"outer", "inner", "adopted", "boom"}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["attrs"] == {"a": 1}
    assert by_name["boom"]["attrs"]["error"] == "ValueError"
    assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0
    for event in events:
        assert event["pid"] == os.getpid()
        assert len(event["span_id"]) == 16


def test_collect_events_filters_and_drains(traced):
    keep, ship = new_trace_id(), new_trace_id()
    trace_mod.emit_event("a", trace_id=keep)
    trace_mod.emit_event("b", trace_id=ship)
    shipped = collect_events([ship], clear=True)
    assert [e["name"] for e in shipped] == ["b"]
    left = collect_events()
    assert [e["name"] for e in left] == ["a"]


def test_env_bootstrap_enables_tracing_in_children(tmp_path):
    out = tmp_path / "child.jsonl"
    env = dict(os.environ)
    env["REPRO_TRACE"] = str(out)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src")
    code = (
        "from repro.obs.trace import span, tracing_enabled\n"
        "assert tracing_enabled()\n"
        "with span('child.work'):\n"
        "    pass\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   cwd=tmp_path)
    events = load_events(out)
    assert [e["name"] for e in events] == ["child.work"]


# ----------------------------------------------------------------------
# Summarizer
# ----------------------------------------------------------------------
def _fake_events():
    return [
        {"trace_id": "t1", "span_id": "r", "parent_id": None,
         "name": "client.job", "t0": 0.0, "wall": 1.0, "dur": 1.0,
         "pid": 1, "attrs": {}},
        {"trace_id": "t1", "span_id": "c1", "parent_id": "r",
         "name": "job.solve", "t0": 0.1, "wall": 1.1, "dur": 0.6,
         "pid": 1, "attrs": {"engine": "karp"}},
        {"trace_id": "t1", "span_id": "c2", "parent_id": "r",
         "name": "coordinator.result", "t0": 0.8, "wall": 1.8,
         "dur": 0.1, "pid": 2, "attrs": {}},
        # orphan: its parent was recorded by a non-tracing process
        {"trace_id": "t2", "span_id": "x", "parent_id": "gone",
         "name": "worker.solve", "t0": 0.0, "wall": 2.0, "dur": 0.5,
         "pid": 3, "attrs": {}},
    ]


def test_build_trees_links_children_and_roots_orphans():
    trees = build_trees(_fake_events())
    (root,) = trees["t1"]
    assert root.name == "client.job"
    assert [c.name for c in root.children] == [
        "job.solve", "coordinator.result"]
    assert root.self_time == pytest.approx(0.3)
    (orphan,) = trees["t2"]
    assert orphan.name == "worker.solve" and not orphan.children


def test_aggregate_and_render_summary():
    events = _fake_events()
    rows = {r["name"]: r for r in aggregate(events)}
    assert rows["job.solve"]["self"] == pytest.approx(0.6)
    assert rows["client.job"]["total"] == pytest.approx(1.0)
    assert rows["client.job"]["self"] == pytest.approx(0.3)
    text = render_summary(events, top=3)
    assert "trace t1" in text and "client.job" in text
    assert "top 3 spans by self time:" in text
    assert render_summary([]) == "no trace events\n"


def test_load_events_skips_malformed_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"name": "ok", "trace_id": "t"}\nnot json\n\n'
                    '{"no_name": 1}\n', encoding="utf-8")
    assert [e["name"] for e in load_events(path)] == ["ok"]


# ----------------------------------------------------------------------
# Bench emission schema
# ----------------------------------------------------------------------
def test_emit_bench_schema_and_gauge(tmp_path):
    emit_bench(
        "selftest",
        [{"name": "speedup", "value": 2.5, "unit": "x"}],
        extra={"cases": 4},
        out_dir=str(tmp_path),
    )
    data = json.loads((tmp_path / "BENCH_selftest.json").read_text())
    assert data["bench"] == "selftest"
    assert data["schema"] == BENCH_SCHEMA
    assert data["cases"] == 4
    (row,) = data["metrics"]
    assert set(row) == {"name", "value", "unit", "commit"}
    assert row["commit"] == data["commit"]
    assert REGISTRY.value(
        "repro_bench_value", bench="selftest", name="speedup") == 2.5


# ----------------------------------------------------------------------
# Service stats ride the registry (no ad-hoc counter drift)
# ----------------------------------------------------------------------
def test_service_stats_equal_registry_cells():
    service = ThroughputService()
    service.submit_many([ring(1, "r1"), ring(2, "r2"), ring(1, "r1")])
    stats = service.stats()
    reg = service._registry
    assert stats.by_status == {"OK": 3}
    assert stats.jobs == reg.value("repro_service_jobs_total", status="OK")
    assert stats.solves == reg.value("repro_service_solves_total")
    assert stats.batch_dedup == reg.value("repro_service_batch_dedup_total")
    assert stats.cache == service.cache.stats.as_dict()


# ----------------------------------------------------------------------
# Overhead guard: tracing must be ≤5% on the golden corpus, as the
# median CPU-time ratio of interleaved pairs of batches
# ----------------------------------------------------------------------
@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_tracing_overhead_within_five_percent(tmp_path):
    from repro.io import load_graph

    graphs = [load_graph(DATA / name) for name, _ in CASES]
    trace_file = tmp_path / "t.jsonl"  # traced runs append to one file

    def batch(on):
        with _tracing(trace_file if on else None):
            service = ThroughputService()  # fresh → cold cache each run
            gc.collect()  # no collection debt carried into the run
            start = time.process_time()
            outcomes = service.submit_many(graphs)
            elapsed = time.process_time() - start
        digest = json.dumps(
            [[o.status, str(o.period)] for o in outcomes])
        return elapsed, digest

    ratio = median_overhead_ratio(batch, bound=1.05)
    names = {e["name"] for e in load_events(trace_file)}
    assert "service.batch" in names  # tracing really was on
    assert ratio <= 1.05, f"tracing overhead too high: median ratio {ratio}"


# ----------------------------------------------------------------------
# Distributed propagation: one trace id across client/coordinator/worker
# ----------------------------------------------------------------------
REQUIRED_SPANS = {
    "client.job", "coordinator.enqueue", "worker.solve", "job.solve",
    "coordinator.result",
}


def _await_trace(client, trace_id, names=REQUIRED_SPANS, timeout=10.0):
    """Workers ship spans just after acking results — poll briefly."""
    deadline = time.monotonic() + timeout
    events = []
    while time.monotonic() < deadline:
        events = client.trace(trace_id)
        if names <= {e["name"] for e in events}:
            return events
        time.sleep(0.05)
    return events


def test_two_worker_trace_propagation_with_nack_retry(
        traced, monkeypatch):
    from repro.distributed import (
        CoordinatorClient, CoordinatorServer, MemoryJobQueue, Worker,
    )
    from repro.service import pool as pool_mod

    real_solve_chunk = pool_mod.solve_chunk
    lock = threading.Lock()
    sabotaged = []

    def flaky_solve_chunk(payloads):
        with lock:
            if not sabotaged:  # exactly one chunk fails, then retries
                sabotaged.append(len(payloads))
                raise RuntimeError("injected chunk failure")
        return real_solve_chunk(payloads)

    monkeypatch.setattr(pool_mod, "solve_chunk", flaky_solve_chunk)

    graphs = [ring(d, f"ring{d}") for d in (1, 2, 3, 4)]
    with CoordinatorServer(
        queue=MemoryJobQueue(visibility_timeout=30)
    ) as server:
        workers = [
            Worker(CoordinatorClient(server.url), worker_id=f"tw{i}",
                   poll_interval=0.02, chunk_size=2)
            for i in range(2)
        ]
        threads = [w.run_in_thread() for w in workers]
        try:
            from repro.service import ThroughputService as Service
            service = Service(
                queue=CoordinatorClient(server.url), queue_poll=0.02,
            )
            outcomes = service.submit_many(graphs)
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=10)

        assert all(o.ok for o in outcomes)
        assert sabotaged, "the injected chunk failure never fired"
        assert sum(w.stats.nacks for w in workers) == sabotaged[0]

        client = CoordinatorClient(server.url)
        nacks_seen = 0
        for outcome in outcomes:
            assert outcome.trace_id, "outcome lost its trace id"
            events = _await_trace(client, outcome.trace_id)
            by_name = {}
            for event in events:
                assert event["trace_id"] == outcome.trace_id
                by_name.setdefault(event["name"], event)
            assert REQUIRED_SPANS <= set(by_name), (
                outcome.trace_id, sorted(by_name))
            root = by_name["client.job"]["span_id"]
            # coordinator milestones and the worker chunk span hang
            # off the client's per-job root; the solve nests under
            # the worker span — client → coordinator → worker.
            assert by_name["coordinator.enqueue"]["parent_id"] == root
            assert by_name["coordinator.result"]["parent_id"] == root
            assert by_name["worker.solve"]["parent_id"] == root
            assert (by_name["job.solve"]["parent_id"]
                    == by_name["worker.solve"]["span_id"])
            assert by_name["coordinator.result"]["attrs"]["state"] == "OK"
            if "worker.nack" in by_name:
                nacks_seen += 1
                assert by_name["worker.nack"]["parent_id"] == root
        assert nacks_seen == sabotaged[0], (
            "every nacked job's retry must stay in its original trace")

        # /metrics over live HTTP: all four families, parseable text
        text = client.metrics_text()
        for family in ("repro_solver_jobs_total",
                       "repro_result_cache_misses_total",
                       "repro_queue_depth",
                       "repro_worker_acks_total",
                       "repro_coordinator_jobs_submitted_total"):
            assert f"# TYPE {family} " in text, family
        sample = re.compile(
            r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? -?[0-9][0-9.e+-]*$")
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line
