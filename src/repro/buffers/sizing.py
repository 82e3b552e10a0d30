"""Throughput / storage trade-off exploration.

The buffer-sizing companion problem (the paper's reference [16] explores
it exhaustively): how does the maximum throughput degrade as buffer
capacities shrink? The helpers here sweep a uniform capacity scale and
binary-search the smallest scale that preserves liveness or a target
throughput — they power the ``buffer_sizing`` example and one ablation
bench.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.dse.session import DseSession
from repro.exceptions import DeadlockError, ModelError
from repro.kperiodic.kiter import throughput_kiter
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph


def _capacities_at_scale(graph: CsdfGraph, scale: int) -> Dict[str, int]:
    """Per-buffer capacity ``scale × structural minimum``."""
    return {
        b.name: scale * minimal_buffer_capacity(b)
        for b in graph.buffers()
        if not b.is_self_loop()
    }


def throughput_storage_curve(
    graph: CsdfGraph,
    scales: List[int],
    *,
    engine: str = DEFAULT_ENGINE,
) -> List[Tuple[int, Optional[Fraction]]]:
    """Exact throughput at each uniform capacity scale.

    Returns ``(scale, throughput)`` pairs; throughput is ``None`` when the
    scaled capacities deadlock the graph. The curve is non-decreasing in
    the scale (checked by a property test — capacity monotonicity).
    """
    curve: List[Tuple[int, Optional[Fraction]]] = []
    # One DseSession for the whole curve: each scale step is a batch of
    # space-buffer marking edits, so only the touched blocks recompute
    # and monotone shrinks keep the previous λ* as the engine seed.
    session: Optional[DseSession] = None
    for scale in scales:
        if scale < 1:
            raise ModelError(f"capacity scale must be ≥ 1, got {scale}")
        caps = _capacities_at_scale(graph, scale)
        if session is None:
            session = DseSession(bound_all_buffers(graph, caps),
                                 engine=engine)
        else:
            session.set_capacities(caps)
        try:
            curve.append((scale, session.solve().throughput))
        except DeadlockError:
            curve.append((scale, None))
    return curve


def minimize_total_storage(
    graph: CsdfGraph,
    *,
    target_throughput: Optional[Fraction] = None,
    engine: str = DEFAULT_ENGINE,
    max_scale: int = 64,
) -> Dict[str, int]:
    """Per-buffer capacities meeting a throughput target, locally minimal.

    The throughput-buffering trade-off of [Stuijk et al. TC'08]
    (the paper's reference [16]), made practical by K-Iter's speed:

    1. find a uniform scale meeting the target (binary search — valid
       by capacity monotonicity);
    2. shrink each buffer independently by binary search down to the
       smallest capacity that still meets the target with every other
       buffer held at its current value;
    3. repeat the sweep until a full pass shrinks nothing (a local
       minimum of total storage: no *single* buffer can shrink further).

    ``target_throughput=None`` targets the unbounded-buffer optimum.
    Returns the capacity map (structural minima as hard floors).

    Note: like all single-coordinate descent, the result is locally —
    not globally — minimal; the test suite pins local minimality.
    """
    if target_throughput is None:
        unbounded = throughput_kiter(graph, engine=engine)
        if unbounded.throughput is None:
            raise ModelError(
                "unbounded throughput is infinite; give an explicit "
                "target_throughput"
            )
        target_throughput = unbounded.throughput

    floors = {
        b.name: minimal_buffer_capacity(b)
        for b in graph.buffers()
        if not b.is_self_loop()
    }
    start_scale = minimal_feasible_scale(
        graph,
        max_scale=max_scale,
        predicate=lambda th: th is not None and th >= target_throughput,
        engine=engine,
    )
    caps = {name: start_scale * floor for name, floor in floors.items()}

    # One sticky session across the whole descent: each probe edits a
    # single buffer's capacity, so every other buffer's expansion
    # blocks — and, on shrinking probes, the previous λ* seed — carry
    # over. The bench gate (benchmarks/bench_dse.py) pins this sweep
    # ≥5x over the same probes solved cold.
    session = DseSession(bound_all_buffers(graph, caps), engine=engine)

    def meets(trial: Dict[str, int]) -> bool:
        session.set_capacities(trial)
        try:
            th = session.solve().throughput
        except DeadlockError:
            return False
        return th is not None and th >= target_throughput

    assert meets(caps)

    improved = True
    while improved:
        improved = False
        for name in caps:
            lo, hi = floors[name], caps[name]
            if lo >= hi:
                continue
            # smallest value in [lo, hi] keeping the target (monotone)
            while lo < hi:
                mid = (lo + hi) // 2
                trial = dict(caps)
                trial[name] = mid
                if meets(trial):
                    hi = mid
                else:
                    lo = mid + 1
            if hi < caps[name]:
                caps[name] = hi
                improved = True
    return caps


def minimal_feasible_scale(
    graph: CsdfGraph,
    *,
    max_scale: int = 4096,
    predicate: Optional[Callable[[Optional[Fraction]], bool]] = None,
    engine: str = DEFAULT_ENGINE,
) -> int:
    """Smallest uniform capacity scale meeting ``predicate``.

    ``predicate`` receives the exact throughput (``None`` for deadlock)
    and defaults to plain liveness. Monotonicity of throughput in
    capacity makes binary search valid.

    Raises :class:`ModelError` when even ``max_scale`` fails.
    """
    if predicate is None:
        predicate = lambda th: th is not None  # noqa: E731 - tiny default

    session = DseSession(
        bound_all_buffers(graph, _capacities_at_scale(graph, 1)),
        engine=engine,
    )

    def ok(scale: int) -> bool:
        session.set_capacities(_capacities_at_scale(graph, scale))
        try:
            th = session.solve().throughput
        except DeadlockError:
            th = None
        return predicate(th)

    if not ok(max_scale):
        raise ModelError(
            f"predicate unmet even at capacity scale {max_scale}"
        )
    lo, hi = 1, max_scale
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
