"""Edit-manifest sweeps: one sticky session, many design points.

An *explore manifest* is a list of design points, each a dict::

    {"name": "cap7",                 # optional label (default point-<i>)
     "reset": false,                 # start from the base graph again
     "edits": [{"op": "set_capacity", "buffer": "A_B_0", "capacity": 7},
               ...]}                 # DseSession.apply op schema

Points are evaluated in order through one :class:`~repro.dse.DseSession`
— edits accumulate unless a point sets ``reset`` — and each yields a
JSON-able record with the certified exact λ* (``period`` as a
``[numerator, denominator]`` pair). The same runner backs the
``repro explore`` CLI verb, ``ThroughputService.explore`` and the pool
workers' explore chunks, so a sweep is *one* job wherever it runs: the
session's block cache and warm-start state live where the solves do.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.dse.session import DseSession
from repro.exceptions import ModelError
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph
from repro.obs.trace import span as _span


def run_explore(
    graph: CsdfGraph,
    points: Iterable[Mapping[str, Any]],
    *,
    engine: str = DEFAULT_ENGINE,
    warm_start: bool = True,
    check: bool = False,
) -> Iterator[Dict[str, Any]]:
    """Evaluate manifest points through one session, yielding records.

    ``check=True`` re-solves every point cold (fresh graph object, no
    session state) and asserts bit-identical λ* — the exactness
    contract as a runtime switch; a mismatch raises ``AssertionError``
    (it would be a solver bug, not an input error).
    """
    session = DseSession(graph, engine=engine, warm_start=warm_start)
    for index, point in enumerate(points):
        if not isinstance(point, Mapping):
            raise ModelError(
                f"explore point #{index} is not a mapping: {point!r}")
        name = str(point.get("name", f"point-{index}"))
        if point.get("reset"):
            session.reset()
        session.apply(point.get("edits", ()))
        record = session.evaluate()
        record["point"] = name
        if check:
            record["check"] = _cold_check(session, record, engine)
        yield record


def _cold_check(
    session: DseSession, record: Dict[str, Any], engine: str
) -> str:
    from fractions import Fraction

    from repro.exceptions import DeadlockError
    from repro.kperiodic.kiter import throughput_kiter

    # A fresh structural copy: cold caches, cold q, cold K ladder.
    cold_graph = CsdfGraph.from_dict(session.graph.to_dict())
    try:
        cold = throughput_kiter(cold_graph, engine=engine)
    except DeadlockError:
        status = "DEADLOCK"
        period = None
    else:
        status = "OK"
        period = cold.period
    if record["status"] != status:
        raise AssertionError(
            f"explore point {record['point']!r}: session status "
            f"{record['status']} vs cold {status}")
    if status == "OK" and Fraction(*record["period"]) != period:
        raise AssertionError(
            f"explore point {record['point']!r}: session period "
            f"{record['period']} vs cold {period} — exactness violated")
    return "OK"


def explore_payload_for(
    graph: CsdfGraph,
    points: Iterable[Mapping[str, Any]],
    *,
    engine: str = DEFAULT_ENGINE,
    warm_start: bool = True,
    check: bool = False,
) -> Dict[str, Any]:
    """A picklable explore chunk for the solver pool.

    ``kind: "explore"`` is what :func:`repro.service.pool.solve_chunk`
    discriminates on; ``digest`` keys the worker's parsed-graph LRU
    (shared with plain solve payloads on the same graph — sessions
    never mutate the base object, so sharing is safe).
    """
    canonical = graph.to_dict(canonical=True)
    from repro.service.job import graph_digest

    return {
        "kind": "explore",
        "graph": canonical,
        "graph_digest": graph_digest(canonical),
        "points": [dict(p) for p in points],
        "engine": engine,
        "warm_start": bool(warm_start),
        "check": bool(check),
    }


def solve_explore_payload(
    payload: Mapping[str, Any], *, graph: Optional[CsdfGraph] = None
) -> Dict[str, Any]:
    """Run one explore chunk: plain dict in, plain dict out.

    Module-level and JSON-able end to end, so it crosses the process
    pool's ``spawn`` boundary like
    :func:`repro.kperiodic.kiter.solve_kiter_payload`. The outcome
    carries ``status`` (``"OK"`` unless the *manifest itself* was
    malformed — per-point solver failures land in that point's record)
    and ``results``, one record per design point in order.
    """
    started = time.perf_counter()
    if graph is None:
        graph = CsdfGraph.from_dict(payload["graph"])
    points = payload.get("points", [])
    with _span("dse.explore", points=len(points)) as sp:
        try:
            results = list(run_explore(
                graph, points,
                engine=payload.get("engine", DEFAULT_ENGINE),
                warm_start=payload.get("warm_start", True),
                check=payload.get("check", False),
            ))
        except ModelError as exc:
            sp.attrs["status"] = "ERROR"
            return {
                "status": "ERROR",
                "error": str(exc),
                "results": [],
                "wall_time": time.perf_counter() - started,
                "worker_pid": os.getpid(),
            }
        sp.attrs["status"] = "OK"
    return {
        "status": "OK",
        "results": results,
        "wall_time": time.perf_counter() - started,
        "worker_pid": os.getpid(),
    }
