"""Process-local metrics registry: counters, gauges, histograms.

The registry is stdlib-only and cheap enough to be always-on: every
instrumented site pre-binds its cell once (module import or object
construction), so the steady-state cost of a count is one attribute
load plus an integer add — no locks, no string formatting, no dict
lookup on the hot path.

Two pieces matter to the rest of the repo:

``METRICS``
    The central declaration table.  Every metric family the codebase
    emits is declared here (name → type/help/labels), and
    ``docs/observability.md`` plus ``tests/test_docs.py`` pin their
    tables to it — an undeclared metric cannot be emitted, a renamed
    one must update the doc.

``MetricsRegistry``
    Families of labelled cells.  Registries chain: a child registry
    (one per ``ThroughputService`` / ``ResultCache`` / ``Worker``)
    forwards every increment to its parent, so per-object ``stats()``
    views and the process-global :data:`REGISTRY` (the ``/metrics``
    source) are the *same counters* and can never drift apart.

Snapshots are plain JSON-able dicts so worker daemons can ship them
inside heartbeats; :func:`merge_snapshots` sums them and
:func:`render_prometheus` emits the text exposition format
(``text/plain; version=0.0.4``).
"""

from __future__ import annotations

import os
import threading
import uuid
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "METRICS",
    "MetricSpec",
    "MetricsRegistry",
    "REGISTRY",
    "SNAPSHOT_IDENTITY_KEY",
    "merge_snapshots",
    "render_prometheus",
]

#: Reserved snapshot key carrying the producing registry's process
#: identity (``"<pid>-<seed>"``).  Keys starting with ``__`` are
#: metadata, never metric families — :func:`merge_snapshots` and
#: :func:`render_prometheus` skip them.
SNAPSHOT_IDENTITY_KEY = "__process__"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    type: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: Tuple[str, ...] = ()


# Log-scale second buckets: 2**-13 s (~122 µs) .. 2**6 s (64 s).
SECONDS_BUCKETS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-13, 7))


METRICS: Dict[str, MetricSpec] = {
    # --- solver core -------------------------------------------------
    "repro_kiter_rounds_total": MetricSpec(
        "counter", "K-Iter rounds executed (one MCRP solve per round)"),
    "repro_kiter_escalations_total": MetricSpec(
        "counter", "K-vector escalations by trigger", ("kind",)),
    "repro_solver_jobs_total": MetricSpec(
        "counter", "Solver jobs finished, by terminal status", ("status",)),
    "repro_solver_seconds": MetricSpec(
        "histogram", "Per-job solve wall time in seconds"),
    "repro_engine_iterations_total": MetricSpec(
        "counter", "MCRP engine inner iterations", ("engine",)),
    "repro_mcrp_oracle_sweeps_total": MetricSpec(
        "counter", "Jacobi sweeps of the exact positive-cycle oracle, "
                   "by start vector", ("start",)),
    # --- batched fleet kernel ---------------------------------------
    "repro_batched_kernel_rounds_total": MetricSpec(
        "counter", "Batched super-CSR kernel passes", ("engine",)),
    "repro_batched_delegations_total": MetricSpec(
        "counter", "Graphs delegated out of the batched kernel",
        ("engine",)),
    "repro_fleet_jobs_total": MetricSpec(
        "counter", "Fleet jobs by route taken", ("mode",)),
    # --- expansion block cache --------------------------------------
    "repro_expansion_block_cache_total": MetricSpec(
        "counter", "Expansion block cache events", ("event",)),
    "repro_expansion_compiled_total": MetricSpec(
        "counter", "Compiled K-graph memo events", ("event",)),
    # --- result cache ------------------------------------------------
    "repro_result_cache_hits_total": MetricSpec(
        "counter", "Result cache hits by tier", ("tier",)),
    "repro_result_cache_misses_total": MetricSpec(
        "counter", "Result cache misses"),
    "repro_result_cache_puts_total": MetricSpec(
        "counter", "Result cache stores"),
    # --- service facade ----------------------------------------------
    "repro_service_jobs_total": MetricSpec(
        "counter", "Service jobs recorded, by status", ("status",)),
    "repro_service_solves_total": MetricSpec(
        "counter", "Jobs that required a fresh solve"),
    "repro_service_batch_dedup_total": MetricSpec(
        "counter", "Jobs answered by in-batch deduplication"),
    "repro_service_batched_total": MetricSpec(
        "counter", "Jobs answered by the batched fleet kernel"),
    "repro_service_fallback_total": MetricSpec(
        "counter", "Jobs that fell back past the requested engine"),
    "repro_service_wall_seconds_total": MetricSpec(
        "counter", "Cumulative solve wall time in seconds"),
    "repro_service_batch_seconds": MetricSpec(
        "histogram", "submit_many batch wall time in seconds"),
    # --- solver pool -------------------------------------------------
    "repro_pool_chunks_total": MetricSpec(
        "counter", "Chunks submitted to the process pool"),
    "repro_pool_jobs_total": MetricSpec(
        "counter", "Jobs submitted to the process pool"),
    "repro_pool_failures_total": MetricSpec(
        "counter", "Pool chunk failures by kind", ("kind",)),
    "repro_pool_recycles_total": MetricSpec(
        "counter", "Process pool recycles after a crash"),
    # --- distributed worker daemon ----------------------------------
    "repro_worker_chunks_total": MetricSpec(
        "counter", "Chunks leased and solved by the worker"),
    "repro_worker_jobs_total": MetricSpec(
        "counter", "Jobs solved by the worker"),
    "repro_worker_acks_total": MetricSpec(
        "counter", "Results acknowledged by the queue"),
    "repro_worker_stale_total": MetricSpec(
        "counter", "Results rejected as stale (lease expired)"),
    "repro_worker_nacks_total": MetricSpec(
        "counter", "Jobs nacked back to the queue"),
    "repro_worker_batched_total": MetricSpec(
        "counter", "Worker jobs answered by the batched kernel"),
    "repro_worker_heartbeats_total": MetricSpec(
        "counter", "Heartbeats sent while holding leases"),
    "repro_worker_idle_polls_total": MetricSpec(
        "counter", "Lease polls that returned no work"),
    "repro_worker_queue_errors_total": MetricSpec(
        "counter", "Queue/transport errors survived by the worker"),
    # --- coordinator -------------------------------------------------
    "repro_coordinator_jobs_submitted_total": MetricSpec(
        "counter", "Jobs accepted by the coordinator"),
    "repro_coordinator_cache_short_circuits_total": MetricSpec(
        "counter", "Submissions answered straight from the shared cache"),
    "repro_queue_depth": MetricSpec(
        "gauge", "Queue rows by state, sampled at scrape time", ("state",)),
    "repro_cache_entries": MetricSpec(
        "gauge", "Shared result-cache entries, sampled at scrape time"),
    "repro_workers_known": MetricSpec(
        "gauge", "Workers that ever leased or heartbeat against this "
                 "coordinator"),
    # --- DSE sessions ------------------------------------------------
    "repro_session_edits_total": MetricSpec(
        "counter", "DseSession edits applied, by edit kind", ("kind",)),
    "repro_session_block_invalidations_total": MetricSpec(
        "counter", "Expansion blocks dropped by session edits"),
    "repro_session_solves_total": MetricSpec(
        "counter", "DseSession solves, by terminal status", ("status",)),
    "repro_session_warm_starts_total": MetricSpec(
        "counter", "Session re-solve warm starts, by outcome", ("outcome",)),
    "repro_session_rounds_saved_total": MetricSpec(
        "counter", "K-Iter rounds skipped by reusing the certified K"),
    "repro_session_certified_total": MetricSpec(
        "counter", "Session solves proven by the warm certificate, no engine call"),
    # --- benches -----------------------------------------------------
    "repro_bench_value": MetricSpec(
        "gauge", "Latest benchmark gate numbers", ("bench", "name")),
    # --- observatory -------------------------------------------------
    "repro_trace_dropped_total": MetricSpec(
        "counter", "Trace events dropped by the full ring buffer"),
    "repro_profile_samples_total": MetricSpec(
        "counter", "Sampling-profiler stack samples attributed to a span",
        ("span",)),
    "repro_slowlog_entries_total": MetricSpec(
        "counter", "Slow-solve captures persisted to the slowlog"),
    "repro_slowlog_replays_total": MetricSpec(
        "counter", "Slowlog replays, by comparison outcome", ("outcome",)),
}


_HISTOGRAM_BUCKETS: Dict[str, Tuple[float, ...]] = {
    name: SECONDS_BUCKETS
    for name, spec in METRICS.items() if spec.type == "histogram"
}


class _CounterCell:
    __slots__ = ("value", "_parent")

    def __init__(self, parent: Optional["_CounterCell"] = None) -> None:
        self.value = 0
        self._parent = parent

    def inc(self, amount: float = 1) -> None:
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)


class _GaugeCell:
    __slots__ = ("value", "_parent")

    def __init__(self, parent: Optional["_GaugeCell"] = None) -> None:
        self.value = 0
        self._parent = parent

    def set(self, value: float) -> None:
        self.value = value
        if self._parent is not None:
            self._parent.set(value)

    def inc(self, amount: float = 1) -> None:
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)


class _HistogramCell:
    __slots__ = ("buckets", "sum", "count", "_bounds", "_parent")

    def __init__(self, bounds: Sequence[float],
                 parent: Optional["_HistogramCell"] = None) -> None:
        self._bounds = tuple(bounds)
        self.buckets = [0] * (len(self._bounds) + 1)  # +1 → +Inf
        self.sum = 0.0
        self.count = 0
        self._parent = parent

    def observe(self, value: float) -> None:
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.sum += value
        self.count += 1
        if self._parent is not None:
            self._parent.observe(value)


_CELL_TYPES = {
    "counter": _CounterCell,
    "gauge": _GaugeCell,
}


class _Metric:
    """One family: a spec plus its labelled cells."""

    __slots__ = ("name", "spec", "_cells", "_registry")

    def __init__(self, name: str, spec: MetricSpec,
                 registry: "MetricsRegistry") -> None:
        self.name = name
        self.spec = spec
        self._cells: Dict[Tuple[str, ...], object] = {}
        self._registry = registry

    def labels(self, **labelvalues: str) -> object:
        key = tuple(str(labelvalues[label]) for label in self.spec.labels)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._registry._make_cell(self, key)
        return cell

    # label-less convenience -----------------------------------------
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self.labels().set(value)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self.labels().observe(value)  # type: ignore[attr-defined]


class MetricsRegistry:
    """A set of metric families, optionally chained to a parent.

    Child registries forward every increment to the parent, so an
    object-scoped registry doubles as the object's ``stats()`` source
    while the process-global :data:`REGISTRY` stays authoritative for
    ``/metrics``.
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self._parent = parent
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()
        # Per-instance identity seed.  Snapshots stamp this together
        # with the pid (read at snapshot time, so forked children
        # diverge) — merge_snapshots dedupes repeated ships of the
        # *same* registry while still summing distinct registries.
        self._seed = uuid.uuid4().hex[:12]

    # -- family accessors --------------------------------------------
    def counter(self, name: str) -> _Metric:
        return self._family(name, "counter")

    def gauge(self, name: str) -> _Metric:
        return self._family(name, "gauge")

    def histogram(self, name: str) -> _Metric:
        return self._family(name, "histogram")

    def _family(self, name: str, expected: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            return metric
        spec = METRICS.get(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not declared in repro.obs.METRICS")
        if spec.type != expected:
            raise TypeError(
                f"metric {name!r} is a {spec.type}, not a {expected}")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _Metric(name, spec, self)
                self._metrics[name] = metric
        return metric

    def _make_cell(self, metric: _Metric, key: Tuple[str, ...]) -> object:
        with self._lock:
            cell = metric._cells.get(key)
            if cell is not None:
                return cell
            parent_cell = None
            if self._parent is not None:
                parent_metric = self._parent._family(
                    metric.name, metric.spec.type)
                labelvalues = dict(zip(metric.spec.labels, key))
                parent_cell = parent_metric.labels(**labelvalues)
            if metric.spec.type == "histogram":
                bounds = _HISTOGRAM_BUCKETS.get(metric.name, SECONDS_BUCKETS)
                cell = _HistogramCell(bounds, parent_cell)
            else:
                cell = _CELL_TYPES[metric.spec.type](parent_cell)
            metric._cells[key] = cell
        return cell

    # -- reading back -------------------------------------------------
    def value(self, name: str, /, **labelvalues: str) -> float:
        """Current value of one cell (0 if never touched).

        ``name`` is positional-only so families with a ``name`` label
        (``repro_bench_value``) stay addressable.
        """
        spec = METRICS[name]
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        key = tuple(str(labelvalues.get(label, ""))
                    for label in spec.labels)
        cell = metric._cells.get(key)
        if cell is None:
            return 0
        if spec.type == "histogram":
            return cell.count  # type: ignore[union-attr]
        return cell.value  # type: ignore[union-attr]

    def samples(self, name: str) -> Dict[Tuple[str, ...], float]:
        """All cells of one family as ``{label-values: value}``."""
        metric = self._metrics.get(name)
        if metric is None:
            return {}
        spec = METRICS[name]
        out: Dict[Tuple[str, ...], float] = {}
        for key, cell in metric._cells.items():
            if spec.type == "histogram":
                out[key] = cell.count  # type: ignore[union-attr]
            else:
                out[key] = cell.value  # type: ignore[union-attr]
        return out

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dump of every touched cell.

        Shape: ``{name: {"type": t, "samples": [[labels, value], ...]}}``
        where a histogram value is ``{"buckets": [...], "sum": s,
        "count": n}`` (bucket counts are per-bucket, not cumulative).
        The reserved :data:`SNAPSHOT_IDENTITY_KEY` entry identifies the
        producing registry instance so repeated ships of the same
        snapshot dedupe instead of double-counting on merge.
        """
        out: Dict[str, object] = {
            SNAPSHOT_IDENTITY_KEY: f"{os.getpid()}-{self._seed}",
        }
        for name, metric in list(self._metrics.items()):
            spec = metric.spec
            samples: List[List[object]] = []
            for key, cell in list(metric._cells.items()):
                labels = dict(zip(spec.labels, key))
                if spec.type == "histogram":
                    value: object = {
                        "buckets": list(cell.buckets),  # type: ignore
                        "sum": cell.sum,  # type: ignore[union-attr]
                        "count": cell.count,  # type: ignore[union-attr]
                    }
                else:
                    value = cell.value  # type: ignore[union-attr]
                samples.append([labels, value])
            if samples:
                out[name] = {"type": spec.type, "samples": samples}
        return out


#: Process-global registry — the source for ``/metrics`` and the parent
#: of every object-scoped child registry.
REGISTRY = MetricsRegistry()


def merge_snapshots(snapshots: Iterable[Dict[str, object]]
                    ) -> Dict[str, object]:
    """Sum counters/histograms across snapshots; gauges last-write-wins.

    Used by the coordinator to fold worker heartbeat snapshots into its
    own process snapshot before rendering ``/metrics``.

    Snapshots carrying the same :data:`SNAPSHOT_IDENTITY_KEY` identity
    come from the *same registry instance* (e.g. a worker's in-process
    ship of the coordinator's own global registry): only the last one
    is merged, so one registry can never be counted twice.  Snapshots
    without an identity (older producers) always merge.
    """
    distinct: List[Dict[str, object]] = []
    by_identity: Dict[str, int] = {}
    for snap in snapshots:
        identity = snap.get(SNAPSHOT_IDENTITY_KEY)
        if isinstance(identity, str):
            seen = by_identity.get(identity)
            if seen is not None:
                distinct[seen] = snap  # later ship supersedes
                continue
            by_identity[identity] = len(distinct)
        distinct.append(snap)
    merged: Dict[str, Dict[Tuple[Tuple[str, str], ...], object]] = {}
    types: Dict[str, str] = {}
    for snap in distinct:
        for name, family in snap.items():
            if name.startswith("__"):  # reserved metadata keys
                continue
            ftype = family.get("type", "counter")  # type: ignore[union-attr]
            types[name] = ftype
            cells = merged.setdefault(name, {})
            for labels, value in family.get("samples", []):  # type: ignore
                key = tuple(sorted(labels.items()))
                if key not in cells:
                    if isinstance(value, dict):
                        cells[key] = {
                            "buckets": list(value["buckets"]),
                            "sum": value["sum"],
                            "count": value["count"],
                        }
                    else:
                        cells[key] = value
                elif ftype == "gauge":
                    cells[key] = value
                elif isinstance(value, dict):
                    acc = cells[key]
                    buckets = acc["buckets"]  # type: ignore[index]
                    for i, n in enumerate(value["buckets"]):
                        if i < len(buckets):
                            buckets[i] += n
                        else:  # pragma: no cover - mismatched shapes
                            buckets.append(n)
                    acc["sum"] += value["sum"]  # type: ignore[index]
                    acc["count"] += value["count"]  # type: ignore[index]
                else:
                    cells[key] = cells[key] + value  # type: ignore
    out: Dict[str, object] = {}
    for name, cells in merged.items():
        out[name] = {
            "type": types[name],
            "samples": [[dict(key), value] for key, value in cells.items()],
        }
    return out


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a (merged) snapshot in the Prometheus text format."""
    lines: List[str] = []
    # declaration order keeps scrapes stable and diffable
    ordered = [n for n in METRICS if n in snapshot]
    ordered += [n for n in snapshot
                if n not in METRICS and not n.startswith("__")]
    for name in ordered:
        family = snapshot[name]
        ftype = family.get("type", "counter")  # type: ignore[union-attr]
        spec = METRICS.get(name)
        help_text = spec.help if spec else name
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {ftype}")
        for labels, value in family.get("samples", []):  # type: ignore
            if isinstance(value, dict):  # histogram
                bounds = _HISTOGRAM_BUCKETS.get(name, SECONDS_BUCKETS)
                cumulative = 0
                for bound, count in zip(bounds, value["buckets"]):
                    cumulative += count
                    le = _format_labels(labels, f'le="{repr(bound)}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += value["buckets"][len(bounds)] if \
                    len(value["buckets"]) > len(bounds) else 0
                inf = _format_labels(labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {cumulative}")
                suffix = _format_labels(labels)
                lines.append(f"{name}_sum{suffix} "
                             f"{_format_value(value['sum'])}")
                lines.append(f"{name}_count{suffix} {value['count']}")
            else:
                suffix = _format_labels(labels)
                lines.append(f"{name}{suffix} {_format_value(value)}")
    return "\n".join(lines) + "\n"
