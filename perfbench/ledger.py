"""Traced mode: per-layer self time from wrappers at the import sites.

The benchmark changes nothing under ``src/``. For each traced round it
replaces the public functions a layer is entered through, at the name
the calling module looks up at call time (``compile_expansion`` in
``repro.kperiodic.solver``, for instance), with wrappers that time the
call, and it puts the originals back after the round. A layer's self
time is the time inside its wrappers minus the time of traced layers
nested inside them on the same thread, so the self times of one thread
add up to its time inside any traced layer. The queue runs on the
coordinator's HTTP threads while the client waits for the reply, so the
HTTP share is the client's self time minus the queue's.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(module, attribute, layer)``: the attribute is the name the calling
#: module resolves when it calls, so one wrapper sees every such call.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.model.graph", "CsdfGraph.from_dict", "model.decode"),
    ("repro.kperiodic.kiter", "cached_repetition_vector",
     "analysis.repetition"),
    ("repro.dse.session", "repetition_vector", "analysis.repetition"),
    ("repro.kperiodic.kiter", "throughput_kiter", "kperiodic.driver"),
    ("repro.dse.session", "throughput_kiter", "kperiodic.driver"),
    ("repro.kperiodic.kiter", "prepare_min_period", "kperiodic.prepare"),
    ("repro.kperiodic.solver", "compile_expansion", "kperiodic.compile"),
    ("repro.kperiodic.kiter", "optimality_test", "kperiodic.optimality"),
    ("repro.kperiodic.solver", "solve_mcrp", "mcrp.solve"),
    ("repro.dse.session", "DseSession.set_capacities", "dse.edit"),
    ("repro.dse.session", "DseSession.solve", "dse.solve"),
    ("repro.service.job", "ThroughputJob.digest", "service.digest"),
    ("repro.service.job", "ThroughputJob.graph_digest", "service.digest"),
    ("repro.service.cache", "ResultCache.get_with_tier", "service.cache"),
    ("repro.service.cache", "ResultCache.put", "service.cache"),
    ("repro.distributed.client", "CoordinatorClient.submit_many",
     "distributed.client"),
    ("repro.distributed.client", "CoordinatorClient.lease",
     "distributed.client"),
    ("repro.distributed.client", "CoordinatorClient.report",
     "distributed.client"),
    ("repro.distributed.client", "CoordinatorClient.nack",
     "distributed.client"),
    ("repro.distributed.client", "CoordinatorClient.results_fetch",
     "distributed.client"),
)
#: Methods of the benchmark's own ``MemoryJobQueue`` instance.
QUEUE_METHODS = ("submit", "lease", "ack", "nack", "result")
QUEUE_LAYER = "distributed.queue"

#: Marks a wrapper set on an instance: uninstalling deletes it.
_ON_INSTANCE = object()


class Ledger:
    """Self time and calls per layer, over the rounds it is installed."""

    def __init__(self, queue: Optional[object] = None) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.lease_times: List[float] = []
        self._lock = threading.Lock()
        self._frames = threading.local()
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for module_name, path, layer in SITES:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                print(f"perfbench: {module_name}.{path} not found; "
                      f"{layer} is not traced there", file=sys.stderr)
                continue
            timer = self._timer(layer, None)
            self._patches.append(
                (owner, attribute, original, _wrap(original, timer)))
        if queue is not None:
            for method in QUEUE_METHODS:
                hook = self._leased if method == "lease" else None
                timer = self._timer(QUEUE_LAYER, hook)
                self._patches.append((queue, method, _ON_INSTANCE,
                                      timer(getattr(queue, method))))

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in reversed(self._patches):
            if original is _ON_INSTANCE:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def _timer(self, layer: str, hook: Optional[Callable]) -> Callable:
        """A decorator charging each call's self time to ``layer``."""
        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                stack = self._stack()
                stack.append(0.0)
                started = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    with self._lock:
                        self.self_time[layer] += elapsed - nested
                        self.calls[layer] += 1
                if hook is not None:
                    hook(args, result, elapsed)
                return result
            return timed
        return decorate

    def _stack(self) -> List[float]:
        stack = getattr(self._frames, "stack", None)
        if stack is None:
            stack = self._frames.stack = []
        return stack

    def _leased(self, _args, _jobs, elapsed) -> None:
        self.lease_times.append(elapsed)


def _wrap(original: Any, decorate: Callable) -> Any:
    """``original`` with its function decorated, descriptor kind kept."""
    if isinstance(original, classmethod):
        return classmethod(decorate(original.__func__))
    if isinstance(original, property):
        return property(decorate(original.fget), original.fset,
                        original.fdel, original.__doc__)
    return decorate(original)


def _median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def layer_metrics(ledger: Ledger, traced, plain) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run (see ``WORKLOADS.md``).

    ``traced`` and ``plain`` tally the traced and the untraced rounds.
    Shares are self time over the traced rounds' call time; counts are
    per fresh solve.
    """
    own = ledger.self_time
    counts = traced.counters
    wall = traced.wall

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def share(layer: str) -> Tuple[float, str]:
        return ratio(own[layer], wall), "share"

    def per_solve(count: float) -> Tuple[float, str]:
        return ratio(count, traced.solves), "count/solve"

    client_side = sum(
        seconds for layer, seconds in own.items() if layer != QUEUE_LAYER)
    leases = ledger.lease_times
    tenth = max(1, len(leases) // 10)
    block_hits = counts.get("block_hits", 0)
    traced_rate = ratio(traced.answers, traced.wall)
    plain_rate = ratio(plain.answers, plain.wall)
    return {
        "model.decode_share": share("model.decode"),
        "analysis.repetition_share": share("analysis.repetition"),
        "kperiodic.compile_share": share("kperiodic.compile"),
        "kperiodic.compile_calls":
            per_solve(ledger.calls["kperiodic.compile"]),
        "kperiodic.prepare_share": share("kperiodic.prepare"),
        "kperiodic.optimality_share": share("kperiodic.optimality"),
        "kperiodic.driver_share": share("kperiodic.driver"),
        "kperiodic.rounds": per_solve(traced.rounds),
        "kperiodic.block_hit_ratio": (ratio(
            block_hits, block_hits + counts.get("block_misses", 0)),
            "ratio"),
        "mcrp.solve_share": share("mcrp.solve"),
        "mcrp.solve_calls": per_solve(ledger.calls["mcrp.solve"]),
        "mcrp.engine_iterations": per_solve(traced.engine_iterations),
        "dse.edit_share": share("dse.edit"),
        "dse.solve_share": share("dse.solve"),
        "dse.invalidated_blocks":
            per_solve(counts.get("invalidated_blocks", 0)),
        "dse.warm_starts": per_solve(counts.get("warm_hits", 0)),
        "service.digest_share": share("service.digest"),
        "service.cache_share": share("service.cache"),
        "distributed.http_share": (ratio(
            own["distributed.client"] - own[QUEUE_LAYER], wall), "share"),
        "distributed.queue_share": share(QUEUE_LAYER),
        "distributed.lease_ms_first": (_median_ms(leases[:tenth]), "ms"),
        "distributed.lease_ms_last": (_median_ms(leases[-tenth:]), "ms"),
        "trace.overhead_share": (
            1 - traced_rate / plain_rate if traced_rate and plain_rate
            else 0.0, "share"),
        "trace.unattributed_share": (
            1 - client_side / wall if wall else 0.0, "share"),
    }
