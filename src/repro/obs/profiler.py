"""Sampling profiler: low-overhead stack attribution for spans.

A single daemon thread wakes every ``interval`` seconds (5 ms by
default), and for every thread that currently has a profiled span open
(``span(..., profile=True)``) grabs its Python stack via
``sys._current_frames`` and folds it into a per-span table of
``frame → (self samples, cumulative samples)``; while no profiled span
is open it waits on an event instead of waking.  Nothing is paid on
the solve path itself beyond one list append/pop per profiled span, so
the overhead budget (≤5 % CPU, λ* bit-identical — see
``tests/test_observatory.py``) holds even on micro-solves.

Profiling is off unless ``REPRO_PROFILE`` is set (``1``/``true`` → a
``profile.jsonl`` in the current directory, anything else → that path)
or :func:`configure_profiling` is called.  Enabling exports the env
var so spawned pool children inherit the setting and append their own
profile envelopes (one JSON line per process, ``O_APPEND``-safe) to
the same file; ``repro profile <file>`` merges and renders them.

Envelope schema (one JSON object per line)::

    {"schema": "repro-profile/1", "pid": 1234, "interval": 0.005,
     "spans": {"fleet.round": {"samples": 180,
                               "frames": [["batched._jacobi_probe", 12, 170],
                                          ...]}}}

``frames`` rows are ``[key, self, cum]`` where ``key`` is
``<module-stem>.<function>``, ``self`` counts samples with that frame
on top, and ``cum`` counts samples with it anywhere on the stack.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import REGISTRY

__all__ = [
    "PROFILE_SCHEMA",
    "configure_profiling",
    "profiling_enabled",
    "profile_path",
    "take_profile",
    "write_profile",
]

_ENV = "REPRO_PROFILE"
PROFILE_SCHEMA = "repro-profile/1"
_MAX_DEPTH = 64
_MAX_KEYS = 16384
_DEFAULT_INTERVAL = 0.005


class _Profiler:
    """Singleton owning the sampler thread and the per-span tables."""

    def __init__(self) -> None:
        self.enabled = False
        self.path: Optional[str] = None
        self.interval = _DEFAULT_INTERVAL
        self._lock = threading.Lock()
        #: thread ident → stack of open profiled span names.
        self._active: Dict[int, List[str]] = {}
        #: Set while ``_active`` is non-empty (or to release the sampler
        #: on disable): the sampler waits on it instead of polling.
        self._busy = threading.Event()
        #: span name → frame key → [self samples, cumulative samples].
        self._stats: Dict[str, Dict[str, List[int]]] = {}
        #: span name → total samples attributed.
        self._counts: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._atexit_armed = False
        #: code object → frame key (see _frame_key).
        self._keys: Dict[object, str] = {}

    # -- lifecycle ----------------------------------------------------
    def configure(self, path: Optional[str],
                  interval: float = _DEFAULT_INTERVAL) -> None:
        with self._lock:
            self.path = path
            self.interval = max(float(interval), 0.001)
            self.enabled = path is not None
            if path is not None:
                os.environ[_ENV] = path
            else:
                os.environ.pop(_ENV, None)
            if self._active or not self.enabled:
                self._busy.set()
            else:
                self._busy.clear()
        if self.enabled:
            self._ensure_thread()
            if not self._atexit_armed:
                atexit.register(self._flush_atexit)
                self._atexit_armed = True

    def _ensure_thread(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread = thread
        thread.start()

    def _flush_atexit(self) -> None:  # pragma: no cover - process exit
        try:
            self.write()
        except OSError:
            pass

    # -- span bookkeeping (called from trace.Span enter/exit) ---------
    def push(self, name: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            if not self._active:
                self._busy.set()
            self._active.setdefault(ident, []).append(name)

    def pop(self, name: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            stack = self._active.get(ident)
            if not stack:
                return
            if stack[-1] == name:
                stack.pop()
            elif name in stack:  # pragma: no cover - unwound out of order
                stack.remove(name)
            if not stack:
                self._active.pop(ident, None)
                if not self._active and self.enabled:
                    self._busy.clear()

    def _frame_key(self, code) -> str:
        """``<module-stem>.<function>`` of a code object, memoized.

        A sample walks up to ``_MAX_DEPTH`` frames while holding the
        GIL; formatting each key afresh made that walk the profiler's
        main cost on the profiled thread.
        """
        key = self._keys.get(code)
        if key is None:
            if len(self._keys) >= _MAX_KEYS:
                self._keys.clear()
            key = f"{Path(code.co_filename).stem}.{code.co_name}"
            self._keys[code] = key
        return key

    # -- the sampler thread -------------------------------------------
    def _run(self) -> None:
        my_ident = threading.get_ident()
        samples_total = REGISTRY.counter("repro_profile_samples_total")
        while self.enabled:
            self._busy.wait()
            if not self.enabled:
                break
            time.sleep(self.interval)
            self._sample(my_ident, samples_total)

    def _sample(self, my_ident: int, samples_total) -> None:
        with self._lock:
            targets = {ident: stack[-1]
                       for ident, stack in self._active.items()
                       if stack and ident != my_ident}
        if not targets:
            return
        frames = sys._current_frames()
        with self._lock:
            for ident, span_name in targets.items():
                frame = frames.get(ident)
                if frame is None:
                    continue
                keys: List[str] = []
                depth = 0
                while frame is not None and depth < _MAX_DEPTH:
                    keys.append(self._frame_key(frame.f_code))
                    frame = frame.f_back
                    depth += 1
                table = self._stats.setdefault(span_name, {})
                table.setdefault(keys[0], [0, 0])[0] += 1
                for key in set(keys):
                    table.setdefault(key, [0, 0])[1] += 1
                self._counts[span_name] = self._counts.get(span_name, 0) + 1
        for span_name in targets.values():
            samples_total.labels(span=span_name).inc()

    # -- reading back -------------------------------------------------
    def take(self, clear: bool = False) -> Dict[str, object]:
        with self._lock:
            spans: Dict[str, object] = {}
            for name, table in self._stats.items():
                rows = sorted(
                    ([key, cnt[0], cnt[1]] for key, cnt in table.items()),
                    key=lambda row: (-row[1], -row[2], row[0]))
                spans[name] = {
                    "samples": self._counts.get(name, 0),
                    "frames": rows,
                }
            envelope = {
                "schema": PROFILE_SCHEMA,
                "pid": os.getpid(),
                "interval": self.interval,
                "spans": spans,
            }
            if clear:
                self._stats.clear()
                self._counts.clear()
            return envelope

    def write(self, path: Optional[str] = None) -> Optional[str]:
        target = path or self.path
        if target is None:
            return None
        envelope = self.take(clear=True)
        if not envelope["spans"]:
            return None
        line = json.dumps(envelope, separators=(",", ":"))
        fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return target


_PROFILER = _Profiler()


def _bootstrap_from_env() -> None:
    raw = os.environ.get(_ENV, "").strip()
    if not raw or raw == "0" or raw.lower() == "false":
        return
    path = "profile.jsonl" if raw == "1" or raw.lower() == "true" else raw
    _PROFILER.configure(path)


_bootstrap_from_env()


def configure_profiling(path: Optional[str],
                        interval: float = _DEFAULT_INTERVAL) -> None:
    """Enable sampling to ``path`` (or disable with ``None``).

    Also exports ``REPRO_PROFILE`` so spawned pool children inherit the
    setting and append their own envelopes to the same file.
    """
    _PROFILER.configure(path, interval)


def profiling_enabled() -> bool:
    return _PROFILER.enabled


def profile_path() -> Optional[str]:
    return _PROFILER.path


def take_profile(clear: bool = False) -> Dict[str, object]:
    """This process's aggregated profile as a ``repro-profile/1`` dict."""
    return _PROFILER.take(clear)


def write_profile(path: Optional[str] = None) -> Optional[str]:
    """Append this process's envelope to the profile file, then reset.

    Returns the path written, or ``None`` when there is nothing to
    write (no samples, or profiling never configured).
    """
    return _PROFILER.write(path)
