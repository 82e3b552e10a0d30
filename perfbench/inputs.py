"""Seeded inputs of the benchmark, drawn from the verified corpus.

Every request multiplies each task duration of a corpus graph by an
integer ``c``. The exact answer is then ``c·λ*``, with ``λ*`` read from
the corpus index, so each answer is checked as an exact ``Fraction``.
No graph content is requested twice with the same ``c``, so each new
request has a digest no earlier request had and no cache is warm by
accident.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterator, List

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_INDEX = ROOT / "tests" / "data" / "golden_index.json"
FLEET_INDEX = ROOT / "tests" / "data" / "fleet" / "fleet_index.json"
DSE_FIXTURE = Path(__file__).resolve().parent / "dse_expected.json"
#: The dse-sizing sweeps, in call order.
DSE_GRAPHS = ("golden_synthetic2.json",)


@dataclass(frozen=True)
class Request:
    """One graph document and the exact λ* it must come back with."""

    doc: Dict[str, Any]
    expected: Fraction


@dataclass(frozen=True)
class Graph:
    """One corpus entry: file name, graph document, certified λ*."""

    name: str
    doc: Dict[str, Any]
    period: Fraction
    #: The graph's content without its graph and buffer names (what the
    #: service digest hashes): the golden and fleet copies of the paper
    #: graphs share one key, hence one multiplier sequence.
    key: str

    def unscaled(self) -> Request:
        """The graph at ``c = 1``, which no measured round requests."""
        return Request(self.doc, self.period)


def _content_key(doc: Dict[str, Any]) -> str:
    tasks = sorted((t["name"], tuple(t["durations"])) for t in doc["tasks"])
    buffers = sorted(
        (b["source"], b["target"], tuple(b["production"]),
         tuple(b["consumption"]), b.get("initial_tokens", 0))
        for b in doc["buffers"]
    )
    return repr((tasks, buffers))


def load_corpus(index: Path) -> List[Graph]:
    """The graphs of one corpus index, in index order."""
    graphs = []
    for row in json.loads(index.read_text()):
        doc = json.loads((index.parent / row["file"]).read_text())
        graphs.append(Graph(row["file"], doc, Fraction(*row["period"]),
                            _content_key(doc)))
    return graphs


def dealt(graphs: List[Graph], stride: int = 17) -> Iterator[Graph]:
    """``graphs`` over and over, ``stride`` apart (coprime to their count).

    Consecutive draws spread over the whole list, so every batch mixes
    small and large graphs alike and batch latencies do not swing with
    where a batch falls in the list; any run of fewer than
    ``len(graphs)`` draws is free of duplicates.
    """
    for index in itertools.count():
        yield graphs[index * stride % len(graphs)]


def scaled(doc: Dict[str, Any], c: int) -> Dict[str, Any]:
    """``doc`` with every task duration multiplied by ``c``."""
    out = dict(doc)
    out["tasks"] = [
        dict(task, durations=[d * c for d in task["durations"]])
        for task in doc["tasks"]
    ]
    return out


class Scaler:
    """Scaled requests; a graph never gets the same multiplier twice.

    Each graph content starts at a seed-chosen ``c`` and counts up.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._next: Dict[str, int] = {}

    def request(self, graph: Graph) -> Request:
        c = self._next.get(graph.key) or self._rng.randrange(2, 50)
        self._next[graph.key] = c + 1
        return Request(scaled(graph.doc, c), c * graph.period)


def probe_sequence(graph, *, base_scale: int = 16,
                   per_buffer_limit: int = 48) -> List[Dict[str, int]]:
    """The capacity probes of ``minimize_total_storage``'s search.

    A frozen copy of ``benchmarks/bench_dse.py::_probe_sequence``: three
    uniform steps down to ``base_scale`` times each buffer's floor, then
    cumulative halvings of one buffer at a time. It is copied so that the
    workload and its fixture stay put when that bench changes.
    """
    from repro.buffers.capacity import minimal_buffer_capacity

    floors = {
        b.name: minimal_buffer_capacity(b)
        for b in graph.buffers() if not b.is_self_loop()
    }
    probes = [
        {name: scale * floor for name, floor in floors.items()}
        for scale in (base_scale + 4, base_scale + 2, base_scale)
    ]
    trial = dict(probes[-1])
    for name in sorted(floors)[:per_buffer_limit]:
        trial = dict(trial)
        trial[name] = (base_scale // 2) * floors[name]
        probes.append(trial)
    return probes
