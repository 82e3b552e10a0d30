"""Shared fixtures and graph factories for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.model import Buffer, CsdfGraph, Task, csdf, sdf


@pytest.fixture
def two_task_cycle() -> CsdfGraph:
    """A→B→A unit-rate cycle with one token: exact period 2."""
    return sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
        name="two_task_cycle",
    )


@pytest.fixture
def multirate_cycle() -> CsdfGraph:
    """A 2↔3 rate cycle (q = [3, 2])."""
    return sdf(
        {"A": 1, "B": 2},
        [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)],
        name="multirate_cycle",
    )


@pytest.fixture
def csdf_pipeline() -> CsdfGraph:
    """A genuinely cyclo-static two-task pipeline (Figure 1 rates)."""
    return csdf(
        {"t": [1, 2, 1], "u": [3, 1]},
        [("t", "u", [2, 3, 1], [2, 5], 0)],
        name="csdf_pipeline",
    )


@pytest.fixture
def deadlocked_cycle() -> CsdfGraph:
    """Tokenless cycle: consistent but dead."""
    return sdf(
        {"A": 1, "B": 1},
        [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 0)],
        name="deadlocked",
    )


@pytest.fixture
def reference_engines(monkeypatch):
    """Register the test-only reference MCRP solvers for one test.

    Each entry of ``oracles.REFERENCE_ENGINES`` becomes a registry
    engine (the plugin contract: a registered name is selectable
    everywhere), so a test parametrized over built-in and reference
    names drives independent code through the same lookup. Returns the
    reference names.
    """
    from oracles import REFERENCE_ENGINES

    from repro.mcrp import registry

    registry.engine_names()  # load the built-ins and plugins first
    for name, (solve, summary) in REFERENCE_ENGINES.items():
        monkeypatch.setitem(registry._REGISTRY, name, registry.EngineInfo(
            name=name, solve=solve, summary=summary))
    return sorted(REFERENCE_ENGINES)


def golden_corpus_cases():
    """``(filename, exact period)`` rows of ``tests/data/golden_index.json``.

    Returns ``[]`` when the corpus is absent (sparse checkout) so
    callers can parametrize/skip cleanly; the schema lives in one place
    instead of per-module copies.
    """
    import json
    from fractions import Fraction
    from pathlib import Path

    data = Path(__file__).parent / "data"
    try:
        index = json.loads((data / "golden_index.json").read_text())
    except FileNotFoundError:
        return []
    return [(entry["file"], Fraction(*entry["period"])) for entry in index]


def corpus_graph_dicts():
    """The 52 corpus graphs as dicts: the golden corpus, then the fleet."""
    import json
    from pathlib import Path

    from repro.io import load_graph

    data = Path(__file__).parent / "data"
    files = []
    for directory, index in ((data, "golden_index.json"),
                             (data / "fleet", "fleet_index.json")):
        if (directory / index).exists():  # sparse checkout: no fleet
            files += [directory / entry["file"] for entry in
                      json.loads((directory / index).read_text())]
    return [load_graph(path).to_dict() for path in files]


def make_random_live_graph(seed: int, tasks: int = 5, csdf_phases: int = 2):
    """Small random live CSDFG for cross-engine integration tests.

    Kept deliberately tiny (Σq small) so the exponential oracles finish
    instantly.
    """
    from repro.generators._machinery import GraphSpec, random_q_vector

    rng = random.Random(seed)
    spec = GraphSpec(f"rand{seed}", rng)
    q_values = random_q_vector(rng, tasks, max_q=4)
    for i, q in enumerate(q_values):
        spec.add_task(
            f"t{i}", q, phases=rng.randint(1, csdf_phases),
            duration_range=(0, 6),
        )
    names = [f"t{i}" for i in range(tasks)]
    for i in range(1, tasks):
        spec.connect(names[rng.randrange(i)], names[i],
                     rate_scale=rng.randint(1, 2))
    # one or two marked feedback arcs to create non-trivial cycles
    for _ in range(rng.randint(1, 2)):
        j = rng.randrange(1, tasks)
        i = rng.randrange(j)
        spec.connect(names[j], names[i], rate_scale=1)
    return spec.build()


def median_overhead_ratio(batch, bound, min_pairs=15, max_pairs=61):
    """Median per-pair ``on/off`` ratio of ``batch``'s CPU seconds.

    ``batch(on)`` runs one workload with the instrumentation on or off
    and returns ``(seconds, digest)``; every digest must match the first
    (instrumentation never changes a result). ``seconds`` should be
    process CPU time: it counts a profiler's sampler thread, and not the
    time a neighbour on a shared host keeps the process off the CPU.
    Runs come in pairs whose
    order alternates (off-on, on-off, ...), so a host that drifts slows
    both halves of a pair alike, and the median of the per-pair ratios
    ignores the pairs a noisy neighbour spoiled.

    Pairs are added until the median's ~95% order-statistic interval
    lies wholly below ``bound``, or ``max_pairs`` is reached: a quiet
    host passes after ``min_pairs``, while a noisy one — or a burst of
    contention on a shared host — keeps sampling instead of guessing.
    """
    import math
    import statistics

    batch(False)  # warm process-level state once (imports, caches)
    reference = None
    ratios = []
    while len(ratios) < max_pairs:
        seconds = {}
        for on in ((False, True) if len(ratios) % 2 == 0
                   else (True, False)):
            seconds[on], digest = batch(on)
            reference = reference or digest
            assert digest == reference  # byte-identical outcomes
        ratios.append(seconds[True] / seconds[False])
        n = len(ratios)
        if n >= min_pairs:
            ordered = sorted(ratios)
            k = max(0, math.floor(n / 2 - 0.98 * math.sqrt(n)))
            if ordered[n - 1 - k] <= bound:
                break
    return statistics.median(ratios)
