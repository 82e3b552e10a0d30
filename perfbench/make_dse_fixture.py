"""Regenerate ``perfbench/dse_expected.json``: the dse-sizing answers.

For each dse-sizing graph at ``c = 1``, every probe's capacity-bounded
graph is solved cold (a fresh graph object, no session) under two
structurally different engines, ``ratio-iteration`` (SPFA oracle) and
``karp`` (cycle-mean table). The fixture is written only if the two
agree exactly on every probe. The per-buffer halvings are cumulative,
so once a probe deadlocks every later one does too: the fixture keeps
the live prefix, and the workload runs exactly those probes. Run from
the repository root:

    PYTHONPATH=src python3 -m perfbench.make_dse_fixture
"""

from __future__ import annotations

import json

from perfbench.inputs import (
    DSE_FIXTURE,
    DSE_GRAPHS,
    GOLDEN_INDEX,
    load_corpus,
    probe_sequence,
)

ENGINES = ("ratio-iteration", "karp")


def cold_period(doc, engine: str):
    """λ* of a fresh graph object under ``engine``; ``None`` if it deadlocks."""
    from repro.exceptions import DeadlockError
    from repro.kperiodic.kiter import throughput_kiter
    from repro.model.graph import CsdfGraph

    try:
        return throughput_kiter(CsdfGraph.from_dict(doc), engine=engine).period
    except DeadlockError:
        return None


def main() -> None:
    from repro.buffers.capacity import bound_all_buffers
    from repro.model.graph import CsdfGraph

    corpus = {graph.name: graph for graph in load_corpus(GOLDEN_INDEX)}
    rows = []
    for name in DSE_GRAPHS:
        graph = CsdfGraph.from_dict(corpus[name].doc)
        periods = []
        for index, capacities in enumerate(probe_sequence(graph)):
            doc = bound_all_buffers(graph, capacities).to_dict()
            answers = {cold_period(doc, engine) for engine in ENGINES}
            if len(answers) != 1:
                raise SystemExit(f"{name} probe {index}: engines disagree: "
                                 f"{answers}")
            period = answers.pop()
            if period is None:
                break
            periods.append([period.numerator, period.denominator])
        rows.append(f"  {json.dumps(name)}: {json.dumps(periods)}")
        print(f"{name}: {len(periods)} probes")
    DSE_FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
