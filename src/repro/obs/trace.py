"""Span tracer: JSONL flight-recorder events with parent/trace ids.

Tracing is off unless ``REPRO_TRACE`` is set (``1``/``true`` → a
``trace.jsonl`` in the current directory, anything else → that path) or
:func:`configure_tracing` is called.  When off, :func:`span` returns a
shared no-op context manager — the cost is one module-global attribute
load, cheap enough to leave span sites in the hottest driver loops.

Event schema (one JSON object per line)::

    {"trace_id": "…", "span_id": "…", "parent_id": "…" | null,
     "name": "kiter.round", "t0": <perf_counter>, "wall": <time.time>,
     "dur": <seconds>, "pid": 1234, "attrs": {...}}

``t0`` is a monotonic timestamp (comparable only within one process);
``wall`` anchors the trace across processes.  Parenthood is tracked
with a :mod:`contextvars` stack, so nested spans and thread/worker
boundaries behave.  Trace ids propagate across process and host
boundaries inside job payloads as ``{"trace_id": ..., "parent_id":
...}`` dicts (see :meth:`Span.ctx`); the file is opened with
``O_APPEND`` so pool children can share one trace file safely.
"""

from __future__ import annotations

import contextvars
import io
import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Dict, List, Optional

from .metrics import REGISTRY
from .profiler import _PROFILER

__all__ = [
    "span",
    "emit_event",
    "configure_tracing",
    "tracing_enabled",
    "trace_path",
    "new_trace_id",
    "current_trace",
    "collect_events",
    "trace_dropped_total",
]

_ENV = "REPRO_TRACE"

#: (trace_id, span_id) of the innermost open span, or None.
_current: contextvars.ContextVar[Optional[tuple]] = contextvars.ContextVar(
    "repro_trace_current", default=None)


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class _Tracer:
    """Singleton owning the output file and the in-memory ring buffer."""

    def __init__(self, buffer_size: int = 65536) -> None:
        self.enabled = False
        self.path: Optional[str] = None
        self._fh: Optional[io.TextIOBase] = None
        self._lock = threading.Lock()
        # ring buffer so workers can ship events to the coordinator
        self.buffer: deque = deque(maxlen=buffer_size)
        #: events evicted by the full ring buffer (file output, when
        #: configured, still receives every event).
        self.dropped = 0
        self._dropped_cell = REGISTRY.counter("repro_trace_dropped_total")

    def configure(self, path: Optional[str]) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                self._fh = None
            self.path = path
            self.enabled = path is not None
            if path is not None:
                os.environ[_ENV] = path
            else:
                os.environ.pop(_ENV, None)

    def _handle(self) -> Optional[io.TextIOBase]:
        if self._fh is None and self.path is not None:
            try:
                fd = os.open(self.path,
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                self._fh = os.fdopen(fd, "w", encoding="utf-8")
            except OSError:  # pragma: no cover - unwritable path
                self.enabled = False
                return None
        return self._fh

    def emit(self, event: Dict[str, object]) -> None:
        if not self.enabled:
            return
        if len(self.buffer) == self.buffer.maxlen:
            self.dropped += 1
            self._dropped_cell.inc()
        self.buffer.append(event)
        line = json.dumps(event, separators=(",", ":"))
        with self._lock:
            fh = self._handle()
            if fh is not None:
                fh.write(line + "\n")
                fh.flush()

    def collect(self, trace_ids=None, clear: bool = False) -> List[Dict]:
        """Drain (or copy) buffered events, optionally filtered."""
        with self._lock:
            if trace_ids is None:
                events = list(self.buffer)
                if clear:
                    self.buffer.clear()
                return events
            wanted = set(trace_ids)
            events = [e for e in self.buffer if e.get("trace_id") in wanted]
            if clear and events:
                keep = [e for e in self.buffer
                        if e.get("trace_id") not in wanted]
                self.buffer.clear()
                self.buffer.extend(keep)
            return events


_TRACER = _Tracer()


def _bootstrap_from_env() -> None:
    raw = os.environ.get(_ENV, "").strip()
    if not raw or raw == "0" or raw.lower() == "false":
        return
    path = "trace.jsonl" if raw == "1" or raw.lower() == "true" else raw
    _TRACER.path = path
    _TRACER.enabled = True


_bootstrap_from_env()


def configure_tracing(path: Optional[str]) -> None:
    """Enable tracing to ``path`` (or disable with ``None``).

    Also exports ``REPRO_TRACE`` so spawned pool children inherit the
    setting and append to the same file.
    """
    _TRACER.configure(path)


def tracing_enabled() -> bool:
    return _TRACER.enabled


def trace_path() -> Optional[str]:
    return _TRACER.path


def current_trace() -> Optional[Dict[str, str]]:
    """Propagation context of the innermost open span, or None.

    The returned ``{"trace_id", "parent_id"}`` dict is what job
    payloads carry across process/host boundaries.
    """
    state = _current.get()
    if state is None:
        return None
    return {"trace_id": state[0], "parent_id": state[1]}


def collect_events(trace_ids=None, clear: bool = False) -> List[Dict]:
    """Buffered events (workers ship these to the coordinator)."""
    return _TRACER.collect(trace_ids, clear)


def trace_dropped_total() -> int:
    """Events evicted from the ring buffer since process start."""
    return _TRACER.dropped


def emit_event(name: str, *, trace_id: str, dur: float = 0.0,
               parent_id: Optional[str] = None,
               span_id: Optional[str] = None,
               t0: Optional[float] = None,
               **attrs: object) -> None:
    """Record a point/span event without the context-manager protocol.

    The fleet driver uses this for per-job spans whose lifetimes
    interleave inside one lockstep loop (a context manager can't nest
    them), and the coordinator uses it for enqueue/result milestones.
    """
    if not _TRACER.enabled:
        return
    _TRACER.emit({
        "trace_id": trace_id,
        "span_id": span_id or _new_span_id(),
        "parent_id": parent_id,
        "name": name,
        "t0": time.perf_counter() if t0 is None else t0,
        "wall": time.time(),
        "dur": dur,
        "pid": os.getpid(),
        "attrs": attrs,
    })


class Span:
    """An open span; emitted as one JSONL event on exit."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "_t0", "_wall", "_token", "_profiled")

    def __init__(self, name: str, trace: Optional[Dict[str, str]],
                 attrs: Dict[str, object], profiled: bool = False) -> None:
        self.name = name
        self.attrs = attrs
        self._profiled = profiled
        state = _current.get()
        if trace is not None and trace.get("trace_id"):
            self.trace_id = str(trace["trace_id"])
            self.parent_id = trace.get("parent_id") or None
        elif state is not None:
            self.trace_id = state[0]
            self.parent_id = state[1]
        else:
            self.trace_id = new_trace_id()
            self.parent_id = None
        self.span_id = _new_span_id()
        self._t0 = 0.0
        self._wall = 0.0
        self._token = None

    def ctx(self) -> Dict[str, str]:
        """Propagation dict: children opened elsewhere parent to us."""
        return {"trace_id": self.trace_id, "parent_id": self.span_id}

    def __enter__(self) -> "Span":
        self._token = _current.set((self.trace_id, self.span_id))
        if self._profiled:
            _PROFILER.push(self.name)
        self._t0 = time.perf_counter()
        self._wall = time.time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.perf_counter() - self._t0
        if self._profiled:
            _PROFILER.pop(self.name)
        if self._token is not None:
            _current.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _TRACER.emit({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self._t0,
            "wall": self._wall,
            "dur": dur,
            "pid": os.getpid(),
            "attrs": self.attrs,
        })


class _NoopSpan:
    """Shared disabled span: every field empty, every method a no-op."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None

    @property
    def attrs(self) -> Dict[str, object]:
        # fresh throwaway dict so call sites can annotate unconditionally
        return {}

    def ctx(self) -> Dict[str, str]:
        return {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopSpan()


class _ProfileOnlySpan:
    """Profiler bookkeeping for a span site when tracing is off.

    Emits nothing; its only job is to make ``span(..., profile=True)``
    attribute stack samples even without a trace file configured.
    """

    __slots__ = ("name", "attrs")
    trace_id = ""
    span_id = ""
    parent_id = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.attrs: Dict[str, object] = {}

    def ctx(self) -> Dict[str, str]:
        return {}

    def __enter__(self) -> "_ProfileOnlySpan":
        _PROFILER.push(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _PROFILER.pop(self.name)


def span(name: str, trace: Optional[Dict[str, str]] = None,
         profile: bool = False, **attrs: object):
    """Open a span.  ``with span("kiter.round", K=4, engine="karp"):``

    ``trace`` adopts a propagated ``{"trace_id", "parent_id"}`` context
    (e.g. from a job payload); otherwise the span parents to the
    innermost open span in this execution context, or starts a fresh
    trace.  ``profile=True`` additionally marks the span as a sampling
    target while the profiler is enabled (see
    :mod:`repro.obs.profiler`).  Returns a shared no-op object when
    both tracing and profiling are disabled.
    """
    profiled = profile and _PROFILER.enabled
    if not _TRACER.enabled:
        if profiled:
            return _ProfileOnlySpan(name)
        return _NOOP
    return Span(name, trace, attrs, profiled=profiled)
