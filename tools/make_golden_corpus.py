"""Regenerate the golden regression corpus under ``tests/data/``.

Each corpus graph is saved together with its exact period only after
**triple verification**: K-Iter, symbolic execution and (for the small
instances that lead the index) CSDF unfolding must all agree on the
exact ``Fraction``. The corpus is deliberately small and fast — it is
the cheap regression net ``tests/test_golden_corpus.py`` runs on every
engine change.

Usage::

    PYTHONPATH=src python tools/make_golden_corpus.py

Rewrites ``tests/data/*.json`` and ``tests/data/golden_index.json``,
plus the **job-digest stability fixture**
``tests/data/job_digests.json``: the canonical-JSON job digest of every
corpus graph (and two inline reference graphs) under the service's
default solve parameters. Remote cache keys must stay byte-stable
across versions and platforms — ``tests/test_job_digests.py`` fails if
current code computes anything else. ``--digests-only`` regenerates
just that fixture (after an *intentional* ``CACHE_SCHEMA_VERSION``
bump) without re-verifying the corpus.

``--fleet`` instead regenerates the **fleet fixture**
``tests/data/fleet/`` + ``fleet_index.json``: ~40 small/medium graphs
(paper instances plus seeded random SDF/CSDF) sized for the batched
multi-graph solver's tests and the ``bench_service`` chunk-throughput
gate. Every fleet period is verified by three independent oracles
before it is written: K-Iter under two structurally different engines
(``ratio-iteration``'s SPFA oracle and ``karp``'s cycle-mean table)
plus symbolic execution when the steady state is tractable (CSDF
unfolding otherwise); the index records which.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.baselines import throughput_symbolic
from repro.baselines.unfolding import throughput_unfolding
from repro.generators.paper import figure1_buffer, figure2_graph
from repro.generators.dsp import modem, samplerate_converter
from repro.generators.synthetic import graph1, graph2, graph3
from repro.io import save_graph
from repro.kperiodic import throughput_kiter

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def random_live_graph(seed: int, tasks: int = 5, csdf_phases: int = 2):
    """Small random live CSDFG (mirrors ``tests.conftest``'s factory)."""
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
    for _ in range(rng.randint(1, 2)):
        j = rng.randrange(1, tasks)
        i = rng.randrange(j)
        spec.connect(names[j], names[i], rate_scale=1)
    return spec.build()


# The first six entries are also verified by CSDF unfolding in the test
# module, so keep the smallest instances up front.
CASES = [
    ("figure1", figure1_buffer),
    ("figure2", figure2_graph),
    ("synthetic1", lambda: graph1(1)),
    ("synthetic2", lambda: graph2(1)),
    ("rand101", lambda: random_live_graph(101, tasks=4)),
    ("rand202", lambda: random_live_graph(202, tasks=4)),
    ("synthetic3", lambda: graph3(1)),
    ("samplerate", samplerate_converter),
    ("modem", modem),
    ("rand303", lambda: random_live_graph(303, tasks=5)),
    ("rand404", lambda: random_live_graph(404, tasks=5)),
    ("rand505", lambda: random_live_graph(505, tasks=6)),
]

UNFOLDED = 6  # how many leading cases the unfolding oracle re-verifies

#: The solve parameters every pinned digest assumes — kept equal to
#: :class:`repro.service.facade.ThroughputService`'s defaults.
JOB_DEFAULTS = {
    "engine": "ratio-iteration",
    "fallback_engines": [],
    "update_policy": "lcm",
}


def inline_reference_graphs():
    """Corpus-independent graphs whose digests are pinned too.

    Mirrored in ``tests/test_job_digests.py`` so digest stability is
    checked even in a sparse checkout without the corpus files.
    """
    from repro.model import sdf

    return {
        "inline:two_cycle": sdf(
            {"A": 1, "B": 1},
            [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
            name="two_cycle",
        ),
        "inline:multirate": sdf(
            {"A": 1, "B": 2},
            [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)],
            name="multirate",
        ),
    }


def write_job_digests() -> Path:
    """Regenerate ``tests/data/job_digests.json`` from current code."""
    from repro.io import load_graph
    from repro.service.job import CACHE_SCHEMA_VERSION, ThroughputJob

    options = dict(JOB_DEFAULTS)
    options["fallback_engines"] = tuple(options["fallback_engines"])
    jobs = []
    index = json.loads((DATA / "golden_index.json").read_text())
    for entry in index:
        job = ThroughputJob.from_graph(
            load_graph(DATA / entry["file"]), **options
        )
        jobs.append({
            "source": entry["file"],
            "graph_digest": job.graph_digest,
            "digest": job.digest,
        })
    for source, graph in inline_reference_graphs().items():
        job = ThroughputJob.from_graph(graph, **options)
        jobs.append({
            "source": source,
            "graph_digest": job.graph_digest,
            "digest": job.digest,
        })
    path = DATA / "job_digests.json"
    path.write_text(json.dumps({
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "job_defaults": JOB_DEFAULTS,
        "jobs": jobs,
    }, indent=2) + "\n")
    print(f"wrote {len(jobs)} pinned job digests to {path}")
    return path


FLEET = Path(__file__).resolve().parent.parent / "tests" / "data" / "fleet"

#: Steady states longer than this make symbolic execution the slow
#: oracle; those cases cross-check with CSDF unfolding instead (its
#: own expansion, no K-Iter).
FLEET_SYMBOLIC_BOUND = 4_000


def fleet_cases():
    """~40 named graph factories: paper instances + seeded random."""
    from repro.generators import random_connected_sdf

    cases = [
        ("figure1", figure1_buffer),
        ("figure2", figure2_graph),
        ("samplerate", samplerate_converter),
        ("modem", modem),
    ]
    for i in range(12):  # small CSDF (multi-phase, tight q)
        seed = 1000 + i
        cases.append((
            f"csdf{seed}",
            lambda s=seed: random_live_graph(s, tasks=4 + s % 3),
        ))
    for i in range(12):  # small/medium SDF
        seed = 2000 + i
        cases.append((
            f"sdf{seed}",
            lambda s=seed: random_connected_sdf(s, tasks=6 + s % 5,
                                                max_q=6),
        ))
    for i in range(12):  # medium SDF — where the batched kernel pays
        seed = 3000 + i
        cases.append((
            f"med{seed}",
            lambda s=seed: random_connected_sdf(s, tasks=10 + s % 8,
                                                max_q=6),
        ))
    return cases


def _steady_state_len(graph) -> int:
    from repro.analysis.consistency import repetition_vector

    q = repetition_vector(graph)
    return sum(q[t.name] * len(t.durations) for t in graph.tasks())


def write_fleet() -> int:
    """Regenerate ``tests/data/fleet/`` with triple-verified periods."""
    FLEET.mkdir(parents=True, exist_ok=True)
    index = []
    for name, factory in fleet_cases():
        graph = factory()
        period = throughput_kiter(graph, engine="ratio-iteration").period
        cross = throughput_kiter(graph, engine="karp").period
        if cross != period:
            print(f"FATAL {name}: ratio-iteration={period} karp={cross}")
            return 1
        if _steady_state_len(graph) <= FLEET_SYMBOLIC_BOUND:
            third_name = "symbolic"
            third = throughput_symbolic(graph).period
        else:
            third_name = "unfolding"
            third = throughput_unfolding(graph).period
        if third != period:
            print(f"FATAL {name}: kiter={period} {third_name}={third}")
            return 1
        filename = f"fleet_{name}.json"
        save_graph(graph, FLEET / filename)
        index.append({
            "file": filename,
            "period": [period.numerator, period.denominator],
            "oracles": ["kiter:ratio-iteration", "kiter:karp", third_name],
        })
        print(f"{name:<12} period={period}  [{third_name}]  -> {filename}")
    (FLEET / "fleet_index.json").write_text(
        json.dumps(index, indent=2) + "\n"
    )
    print(f"wrote {len(index)} cases to {FLEET / 'fleet_index.json'}")
    return 0


def main() -> int:
    if "--digests-only" in sys.argv[1:]:
        write_job_digests()
        return 0
    if "--fleet" in sys.argv[1:]:
        return write_fleet()
    DATA.mkdir(parents=True, exist_ok=True)
    index = []
    for position, (name, factory) in enumerate(CASES):
        graph = factory()
        period = throughput_kiter(graph).period
        symbolic = throughput_symbolic(graph).period
        if symbolic != period:
            print(f"FATAL {name}: kiter={period} symbolic={symbolic}")
            return 1
        if position < UNFOLDED:
            unfolded = throughput_unfolding(graph).period
            if unfolded != period:
                print(f"FATAL {name}: kiter={period} unfolding={unfolded}")
                return 1
        filename = f"golden_{name}.json"
        save_graph(graph, DATA / filename)
        index.append({
            "file": filename,
            "period": [period.numerator, period.denominator],
        })
        print(f"{name:<12} period={period}  -> {filename}")
    (DATA / "golden_index.json").write_text(
        json.dumps(index, indent=2) + "\n"
    )
    print(f"wrote {len(index)} cases to {DATA / 'golden_index.json'}")
    write_job_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
