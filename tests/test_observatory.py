"""The performance observatory: profiler, slowlog, history, report.

Five layers of coverage:

* **Quantile math and merge edges** — exact rolling-quantile values,
  empty/unknown/mismatched snapshot merging, and the snapshot-identity
  dedupe that fixes the in-process ``/metrics`` double-count.
* **Trace drops** — a full ring buffer counts evictions instead of
  losing them silently, and summaries surface the count.
* **Sampling profiler** — span attribution, the JSONL envelope
  round-trip, the profile-without-tracing path, the sampler idling
  while no profiled span is open, and the ≤5 % overhead guard with
  bit-identical λ* on the golden corpus.
* **Slowlog** — outlier capture against the rolling threshold, the
  entry bound, and `repro replay` reproducing captured λ* exactly
  (nonzero exit when a tampered capture diverges).
* **Bench history + report** — emit_bench appends trajectories,
  `repro bench-report` flags a synthetic 30 % regression while passing
  on honest numbers, and the HTML ops report renders locally and from
  a live coordinator's ``GET /report``.
"""

import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.model import sdf
from repro.obs import profiler as profiler_mod
from repro.obs import trace as trace_mod
from repro.obs.bench import emit_bench
from repro.obs.history import (
    append_history,
    bench_report,
    history_path,
    load_history,
    metric_direction,
    render_bench_report,
)
from repro.obs.metrics import (
    METRICS,
    REGISTRY,
    MetricsRegistry,
    SNAPSHOT_IDENTITY_KEY,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.profiler import (
    configure_profiling,
    profiling_enabled,
    take_profile,
    write_profile,
)
from repro.obs.report import build_report
from repro.obs.slowlog import (
    RollingQuantile,
    configure_slowlog,
    observe_solve,
    replay_entry,
    slowlog_entries,
)
from repro.obs.summary import load_profiles, render_profile, render_summary
from repro.obs.trace import collect_events, configure_tracing, span

from tests.conftest import (
    golden_corpus_cases,
    median_overhead_ratio,
)

DATA = Path(__file__).parent / "data"
CASES = golden_corpus_cases()


def ring(delay, name):
    return sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, delay)],
        name=name,
    )


def ring_payload(delay=1, **extra):
    payload = {
        "graph": ring(delay, f"ring{delay}").to_dict(),
        "engine": "ratio-iteration",
        "digest": f"digest-{delay}",
    }
    payload.update(extra)
    return payload


@contextmanager
def _profiling(path, interval=0.001):
    prior = os.environ.get("REPRO_PROFILE")
    configure_profiling(str(path) if path else None, interval=interval)
    try:
        yield
    finally:
        configure_profiling(None)
        take_profile(clear=True)
        if prior is not None:  # pragma: no cover - suite-level profiling
            os.environ["REPRO_PROFILE"] = prior


@contextmanager
def _slowlog(root, **options):
    configure_slowlog(str(root) if root else None, **options)
    try:
        yield
    finally:
        configure_slowlog(None)


# ----------------------------------------------------------------------
# Rolling quantile: exact math
# ----------------------------------------------------------------------
def test_rolling_quantile_exact_interpolation():
    rq = RollingQuantile(window=8)
    assert rq.quantile(0.5) is None
    for value in (1.0, 2.0, 3.0, 4.0):
        rq.add(value)
    assert rq.quantile(0.0) == 1.0
    assert rq.quantile(1.0) == 4.0
    assert rq.quantile(0.5) == pytest.approx(2.5)
    assert rq.quantile(0.25) == pytest.approx(1.75)
    assert rq.quantile(0.99) == pytest.approx(3.97)


def test_rolling_quantile_window_eviction_and_validation():
    rq = RollingQuantile(window=3)
    for value in (10.0, 1.0, 2.0, 3.0):
        rq.add(value)  # the 10.0 falls out of the window
    assert len(rq) == 3
    assert rq.quantile(1.0) == 3.0
    assert rq.quantile(0.5) == 2.0
    with pytest.raises(ValueError):
        rq.quantile(1.5)
    with pytest.raises(ValueError):
        RollingQuantile(window=0)


# ----------------------------------------------------------------------
# merge_snapshots / render_prometheus edge cases
# ----------------------------------------------------------------------
def test_merge_empty_snapshots():
    assert merge_snapshots([]) == {}
    assert merge_snapshots([{}, {}]) == {}
    reg = MetricsRegistry()
    # an untouched registry still stamps its identity, nothing else
    snap = reg.snapshot()
    assert set(snap) == {SNAPSHOT_IDENTITY_KEY}
    assert merge_snapshots([snap]) == {}


def test_merge_unknown_family_from_newer_worker():
    newer = {
        "repro_future_widgets_total": {
            "type": "counter", "samples": [[{"kind": "x"}, 7]],
        },
    }
    merged = merge_snapshots([newer, newer])
    assert merged["repro_future_widgets_total"]["samples"] == [
        [{"kind": "x"}, 14],
    ]
    text = render_prometheus(merged)
    assert "# TYPE repro_future_widgets_total counter" in text
    assert 'repro_future_widgets_total{kind="x"} 14' in text


def test_merge_histogram_bucket_length_mismatch():
    short = {"repro_solver_seconds": {
        "type": "histogram",
        "samples": [[{}, {"buckets": [1, 2], "sum": 0.5, "count": 3}]],
    }}
    longer = {"repro_solver_seconds": {
        "type": "histogram",
        "samples": [[{}, {"buckets": [1, 1, 4], "sum": 1.0, "count": 6}]],
    }}
    merged = merge_snapshots([short, longer])
    value = merged["repro_solver_seconds"]["samples"][0][1]
    assert value["buckets"] == [2, 3, 4]
    assert value["sum"] == pytest.approx(1.5)
    assert value["count"] == 9


def test_merge_dedupes_same_registry_last_ship_wins():
    reg = MetricsRegistry()
    cell = reg.counter("repro_worker_acks_total").labels()
    cell.inc(3)
    stale = reg.snapshot()
    cell.inc(2)
    live = reg.snapshot()
    other = MetricsRegistry()
    other.counter("repro_worker_acks_total").labels().inc(10)
    merged = merge_snapshots([stale, other.snapshot(), live])
    samples = dict(
        (tuple(sorted(labels.items())), value)
        for labels, value in merged["repro_worker_acks_total"]["samples"]
    )
    # stale ship of the same registry dedupes away; distinct one sums
    assert samples[()] == 15


def test_snapshot_identity_distinct_per_instance_and_json_safe():
    a, b = MetricsRegistry(), MetricsRegistry()
    ida = a.snapshot()[SNAPSHOT_IDENTITY_KEY]
    idb = b.snapshot()[SNAPSHOT_IDENTITY_KEY]
    assert ida != idb
    assert ida == a.snapshot()[SNAPSHOT_IDENTITY_KEY]  # stable
    json.dumps(a.snapshot())  # heartbeat-shippable


def test_coordinator_metrics_dedupe_own_registry_exact_value():
    """The PR-7 caveat, closed: an in-process worker shipping the
    global registry must not double the coordinator's scrape."""
    from repro.distributed.server import Coordinator

    label = "observatory-dedupe-test"
    cell = REGISTRY.counter(
        "repro_kiter_escalations_total").labels(kind=label)
    base = cell.value
    cell.inc(7)
    coordinator = Coordinator()
    # the worker ships a snapshot of the SAME global registry twice
    coordinator._store_worker_metrics("w0", REGISTRY.snapshot())
    coordinator._store_worker_metrics("w1", REGISTRY.snapshot())
    text = coordinator.metrics_text()
    expected = int(base + 7)
    assert (f'repro_kiter_escalations_total{{kind="{label}"}} '
            f'{expected}') in text


# ----------------------------------------------------------------------
# Trace ring-buffer drops
# ----------------------------------------------------------------------
def test_ring_buffer_counts_drops(tmp_path):
    tracer = trace_mod._Tracer(buffer_size=4)
    tracer.configure(str(tmp_path / "t.jsonl"))
    dropped_before = REGISTRY.value("repro_trace_dropped_total")
    for index in range(7):
        tracer.emit({"trace_id": "t", "span_id": str(index),
                     "name": "x", "dur": 0.0})
    assert tracer.dropped == 3
    assert len(tracer.buffer) == 4
    assert REGISTRY.value("repro_trace_dropped_total") \
        == dropped_before + 3
    # the file still has every event — only the ring buffer evicts
    lines = (tmp_path / "t.jsonl").read_text().strip().splitlines()
    assert len(lines) == 7
    tracer.configure(None)


def test_render_summary_surfaces_drops():
    events = [{"trace_id": "t", "span_id": "s", "parent_id": None,
               "name": "job.solve", "t0": 0.0, "wall": 0.0,
               "dur": 0.01, "attrs": {}}]
    text = render_summary(events, dropped=5)
    assert "dropped 5 events" in text
    assert "dropped" not in render_summary(events)
    assert "dropped 2" in render_summary([], dropped=2)


def test_coordinator_stats_expose_trace_dropped():
    from repro.distributed.server import Coordinator

    stats = Coordinator().stats()
    assert "trace_dropped" in stats
    assert stats["trace_dropped"] == trace_mod.trace_dropped_total()


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
def _spin(seconds):
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(index * index for index in range(200))
    return total


def test_profiler_attributes_samples_to_spans(tmp_path):
    with _profiling(tmp_path / "p.jsonl"):
        assert profiling_enabled()
        with span("job.solve", profile=True):
            _spin(0.15)
        envelope = take_profile()
    assert envelope["schema"] == "repro-profile/1"
    spans = envelope["spans"]
    assert "job.solve" in spans
    assert spans["job.solve"]["samples"] > 0
    frames = spans["job.solve"]["frames"]
    assert frames, "no frames attributed"
    assert all(len(row) == 3 for row in frames)
    assert REGISTRY.value(
        "repro_profile_samples_total", span="job.solve") > 0


def test_profiler_envelope_roundtrip_and_render(tmp_path):
    path = tmp_path / "p.jsonl"
    with _profiling(path):
        with span("job.solve", profile=True):
            _spin(0.1)
        assert write_profile() == str(path)
    envelopes = load_profiles(path)
    assert len(envelopes) == 1
    text = render_profile(envelopes)
    assert "span job.solve" in text
    assert "samples" in text
    # a second write after reset appends nothing (already flushed)
    assert write_profile(str(path)) is None


def test_profile_without_tracing_emits_no_events(tmp_path):
    collect_events(clear=True)
    with _profiling(tmp_path / "p.jsonl"):
        assert not trace_mod.tracing_enabled()
        opened = span("job.solve", profile=True)
        assert isinstance(opened, trace_mod._ProfileOnlySpan)
        with opened:
            _spin(0.05)
    assert collect_events() == []  # profiled, never traced


def test_unprofiled_spans_stay_noop_when_disabled():
    assert span("job.solve", profile=True) is trace_mod._NOOP
    assert span("job.solve") is trace_mod._NOOP


def test_sampler_waits_while_no_profiled_span_is_open(tmp_path,
                                                      monkeypatch):
    """The sampler thread blocks on an event while no profiled span is
    open: the only samples that find nothing to sample are one already
    in flight when profiling was enabled (a sampler left from an
    earlier enable) and one in flight when the span closes."""
    profiler = profiler_mod._PROFILER
    seen = []  # per sample: was a profiled span open?
    sample = profiler._sample
    monkeypatch.setattr(
        profiler, "_sample",
        lambda *args: seen.append(bool(profiler._active)) or sample(*args))
    with _profiling(tmp_path / "p.jsonl", interval=0.002):
        time.sleep(0.1)  # enabled, but nothing to sample
        with span("job.solve", profile=True):
            deadline = time.monotonic() + 10
            while True not in seen and time.monotonic() < deadline:
                _spin(0.01)
        assert not profiler._busy.is_set()
        time.sleep(0.1)
        assert True in seen
        assert seen.count(False) <= 2
        assert take_profile()["spans"]["job.solve"]["samples"] > 0


@pytest.mark.skipif(not CASES, reason="golden corpus not present")
def test_profiling_overhead_within_five_percent(tmp_path):
    from repro.io import load_graph
    from repro.service import ThroughputService

    graphs = [load_graph(DATA / name) for name, _ in CASES]
    profile = tmp_path / "p.jsonl"  # profiled runs append to one file

    def batch(on):
        if on:
            configure_profiling(str(profile), interval=0.005)
        try:
            service = ThroughputService()  # fresh → cold cache each run
            gc.collect()  # no collection debt carried into the run
            start = time.process_time()
            outcomes = service.submit_many(graphs)
            elapsed = time.process_time() - start
        finally:
            if on:
                write_profile()
                configure_profiling(None)
        digest = json.dumps(
            [[o.status, str(o.period)] for o in outcomes])
        return elapsed, digest

    ratio = median_overhead_ratio(batch, bound=1.05)
    assert ratio <= 1.05, (
        f"profiling overhead too high: median ratio {ratio}"
    )


# ----------------------------------------------------------------------
# Slowlog capture + replay
# ----------------------------------------------------------------------
def _capture_one(root, **options):
    """Warm the tracker with fast observations, then inject one slow."""
    from repro.kperiodic.kiter import solve_kiter_payload

    defaults = dict(warmup=3, min_seconds=0.0, factor=2.0, window=8,
                    max_entries=5)
    defaults.update(options)
    payload = ring_payload(1)
    with _slowlog(root, **defaults):
        outcome = solve_kiter_payload(dict(payload))
        for _ in range(4):
            observe_solve(0.001, payload, outcome)
        observe_solve(5.0, payload, outcome)
        entries = slowlog_entries()
    return entries


def test_slowlog_captures_outliers(tmp_path):
    entries_before = REGISTRY.value("repro_slowlog_entries_total")
    entries = _capture_one(tmp_path / "slowlog")
    assert len(entries) == 1
    entry = json.loads(entries[0].read_text())
    assert entry["schema"] == "repro-slowlog/1"
    assert entry["seconds"] == 5.0
    assert entry["seconds"] > entry["threshold"]
    assert entry["payload"]["digest"] == "digest-1"
    assert "trace" not in entry["payload"]
    assert entry["outcome"]["status"] == "OK"
    assert SNAPSHOT_IDENTITY_KEY in entry["metrics"]
    assert REGISTRY.value("repro_slowlog_entries_total") \
        == entries_before + 1


def test_slowlog_respects_warmup_and_bound(tmp_path):
    from repro.kperiodic.kiter import solve_kiter_payload

    root = tmp_path / "slowlog"
    payload = ring_payload(2)
    with _slowlog(root, warmup=100, min_seconds=0.0, window=8):
        outcome = solve_kiter_payload(dict(payload))
        observe_solve(10.0, payload, outcome)  # tracker not warm yet
        assert slowlog_entries() == []
    with _slowlog(root, warmup=2, min_seconds=0.0, factor=1.5,
                  window=16, max_entries=3):
        for _ in range(3):
            observe_solve(0.001, payload, outcome)
        # each outlier feeds the tracker, so escalate past the new p99
        for seconds in (5.0, 50.0, 500.0, 5000.0):
            observe_solve(seconds, payload, outcome)
        assert len(slowlog_entries()) == 3  # four captures, bound of 3


def test_slowlog_disabled_is_a_noop(tmp_path):
    assert observe_solve(100.0, ring_payload(1), {"status": "OK"}) is None
    assert slowlog_entries(tmp_path / "nowhere") == []


def test_replay_reproduces_captured_lambda_exactly(tmp_path, capsys):
    entries = _capture_one(tmp_path / "slowlog")
    report = replay_entry(entries[0])
    assert report["match"]
    assert report["captured"]["period"] == [2, 1]
    assert report["replayed"]["period"] == [2, 1]
    assert report["replayed"]["status"] == "OK"
    # the replay traced itself even with tracing globally off
    names = {row["name"] for row in report["replayed_self_time"]}
    assert "job.solve" in names
    assert not trace_mod.tracing_enabled()
    # the CLI wrapper: exit 0 and a MATCH verdict
    assert main(["replay", str(entries[0])]) == 0
    out = capsys.readouterr().out
    assert "replay: MATCH" in out
    assert REGISTRY.value("repro_slowlog_replays_total",
                          outcome="match") >= 1


def test_replay_flags_tampered_capture(tmp_path, capsys):
    entries = _capture_one(tmp_path / "slowlog")
    entry = json.loads(entries[0].read_text())
    entry["outcome"]["period"] = [3, 1]  # tamper: λ* cannot match
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(entry))
    assert main(["replay", str(tampered), "--no-trace"]) == 1
    assert "replay: MISMATCH" in capsys.readouterr().out


def test_replay_rejects_non_slowlog_files(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "nope"}))
    assert main(["replay", str(bogus)]) == 2  # ReproError exit


# ----------------------------------------------------------------------
# Bench history + bench-report
# ----------------------------------------------------------------------
def test_emit_bench_appends_history(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_BENCH_HISTORY", raising=False)
    emit_bench("observatory", [
        {"name": "wall_s", "value": 1.0, "unit": "s"},
        {"name": "speedup", "value": 2.0, "unit": "x"},
        {"name": "label", "value": "text", "unit": ""},  # non-numeric
    ])
    rows = load_history(history_path())
    assert len(rows) == 2  # the text row cannot trend
    assert {row["name"] for row in rows} == {"wall_s", "speedup"}
    assert all(row["bench"] == "observatory" for row in rows)
    assert all("ts" in row and "commit" in row for row in rows)


def test_history_env_disable_and_redirect(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_HISTORY", "0")
    assert history_path() is None
    assert append_history({"metrics": [
        {"name": "x", "value": 1.0, "unit": "s"}]}) is None
    target = tmp_path / "custom.jsonl"
    monkeypatch.setenv("REPRO_BENCH_HISTORY", str(target))
    assert history_path() == target
    append_history({"bench": "b", "metrics": [
        {"name": "x", "value": 1.0, "unit": "s"}]})
    assert len(load_history(target)) == 1


def test_metric_direction_inference():
    assert metric_direction({"unit": "s"}) == "lower"
    assert metric_direction({"unit": "ms", "name": "lat"}) == "lower"
    assert metric_direction({"unit": "", "name": "cold_wall_seconds"}) \
        == "lower"
    assert metric_direction({"unit": "x", "name": "speedup"}) == "higher"
    assert metric_direction({"unit": "s", "direction": "higher"}) \
        == "higher"


def test_bench_report_flags_synthetic_regression(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_BENCH_HISTORY", raising=False)
    emit_bench("gate", [{"name": "wall_s", "value": 1.0, "unit": "s"},
                        {"name": "speedup", "value": 3.0, "unit": "x"}])
    assert main(["bench-report"]) == 0  # current == best: passes

    # a 30 % regression on the time metric must trip the gate
    emit_bench("gate", [{"name": "wall_s", "value": 1.35, "unit": "s"}])
    assert main(["bench-report"]) == 1
    assert main(["bench-report", "--informational"]) == 0
    assert main(["bench-report", "--threshold", "50"]) == 0

    # an improvement (and a higher-better regression) behave by direction
    emit_bench("gate", [{"name": "wall_s", "value": 0.5, "unit": "s"},
                        {"name": "speedup", "value": 1.5, "unit": "x"}])
    rows = load_history(history_path())
    report = bench_report(sorted(Path(".").glob("BENCH_*.json")), rows)
    by_name = {row["name"]: row for row in report}
    assert not by_name["wall_s"]["regressed"]  # 0.5s beats best 1.0s
    assert by_name["speedup"]["regressed"]  # 1.5x vs best 3.0x = -50 %
    text = render_bench_report(report)
    assert "REGRESSED" in text


def test_bench_report_skips_foreign_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_pytest.json").write_text(
        json.dumps({"machine_info": {}, "benchmarks": []}))
    assert main(["bench-report"]) == 0  # not repro-bench/1 → ignored
    assert "no repro-bench/1 files" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The ops report
# ----------------------------------------------------------------------
def test_build_report_renders_all_sections():
    events = [{"trace_id": "t", "span_id": "s", "parent_id": None,
               "name": "job.solve", "t0": 0.0, "wall": 1.0,
               "dur": 0.25, "attrs": {"engine": "karp"}}]
    history = [
        {"bench": "gate", "name": "wall_s", "value": v, "unit": "s",
         "commit": "", "ts": float(index)}
        for index, v in enumerate((1.0, 0.9, 1.1))
    ]
    slow = [{"captured_at": 1754650000.0, "seconds": 1.5,
             "threshold": 0.2, "outcome": {"status": "OK"},
             "payload": {"digest": "abcdef123456"}, "trace": events}]
    html = build_report(snapshot=REGISTRY.snapshot(), events=events,
                        slowlog_entries=slow, history_rows=history,
                        dropped=3)
    for marker in ("Metric families", "Spans", "Slowlog",
                   "Bench trajectories", "job.solve", "abcdef123456",
                   "<svg", "dropped 3"):
        assert marker in html, marker
    assert "__process__" not in html.replace(
        str(REGISTRY.snapshot()[SNAPSHOT_IDENTITY_KEY]), "")


def test_build_report_empty_observatory_is_valid():
    html = build_report()
    assert "no metrics recorded" in html
    assert "no trace events" in html
    assert "no slow-solve captures" in html
    assert "no bench history recorded" in html


def test_cli_report_writes_html(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.html"
    assert main(["report", "-o", str(out)]) == 0
    html = out.read_text()
    assert html.startswith("<!doctype html>")
    assert "Metric families" in html


class _PinnedReportClock:
    """The report's ``time`` module with its clock stopped at the epoch."""

    strftime = staticmethod(time.strftime)

    @staticmethod
    def gmtime(seconds=None):
        return time.gmtime(0 if seconds is None else seconds)


def test_coordinator_serves_report(tmp_path, monkeypatch):
    from repro.distributed import CoordinatorClient, CoordinatorServer
    from repro.distributed.client import http_text
    from repro.obs import report
    from repro.service import ThroughputService

    # Two fetches render two pages; a stopped clock keeps their
    # ``generated <second>`` stamps equal across a second boundary.
    monkeypatch.setattr(report, "time", _PinnedReportClock)
    with CoordinatorServer() as server:
        status, body = http_text(f"{server.url}/report")
        assert status == 200
        assert body.startswith("<!doctype html>")
        assert "repro coordinator report" in body
        # the CLI fetch path writes the served page verbatim
        out = tmp_path / "coord.html"
        assert main(["report", "--coordinator", server.url,
                     "-o", str(out)]) == 0
        assert out.read_text() == body
