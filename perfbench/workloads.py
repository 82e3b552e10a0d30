"""The two workloads: closed loops, one client, each call awaits the last.

A workload does all of its set-up in ``__init__``, which is what
``setup_s`` times: reading inputs, coordinator start, session build and
one warm-up call on an unscaled graph. ``next_round()`` draws the next
round of requests from the seeded generator, ``call()`` makes one call,
and ``check()`` compares every answer with its exact expected λ*.
``counters()`` reads counters the program itself exports, for the
traced run. ``REPEATS`` says whether every round makes the same calls
again (the same probes, in the same order), so that each call can be
timed by the fastest of its repeats.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Any, Dict, List, NamedTuple

from perfbench.inputs import (
    DSE_FIXTURE,
    DSE_GRAPHS,
    FLEET_INDEX,
    GOLDEN_INDEX,
    Request,
    Scaler,
    dealt,
    load_corpus,
    probe_sequence,
    scaled,
)


class Checked(NamedTuple):
    """The verdict on one call."""

    ok: bool  # every answer OK and exactly the expected λ*
    answers: int  # correct answers returned
    solves: int  # answers solved afresh, not served from a cache
    rounds: int  # K-Iter rounds of those solves
    engine_iterations: int  # MCRP engine iterations of those solves


class Probe(NamedTuple):
    """One dse-sizing call: a full capacity map for one session."""

    session: Any
    capacities: Dict[str, int]
    expected: Fraction


def check_result(request, result) -> Checked:
    """Verdict on one ``KIterResult``."""
    ok = result.period == request.expected
    return Checked(ok, int(ok), 1, result.iteration_count,
                   result.engine_iteration_count)


def check_outcomes(batch: List[Request], outcomes) -> Checked:
    """Verdict on the ``JobOutcome`` list of one ``submit_many`` batch."""
    good = sum(
        1 for request, outcome in zip(batch, outcomes)
        if outcome.status == "OK" and outcome.period == request.expected
    )
    fresh = [outcome for outcome in outcomes if not outcome.cache_hit]
    return Checked(
        good == len(batch) == len(outcomes), good, len(fresh),
        sum(outcome.rounds for outcome in fresh),
        sum(outcome.engine_iterations for outcome in fresh),
    )


def warm_up(workload, request) -> None:
    """One call before timing, so lazy set-up is not charged to a call."""
    if not workload.check(request, workload.call(request)).ok:
        raise RuntimeError(f"{type(workload).__name__}: wrong warm-up answer")


class DseSizing:
    """Buffer-sizing probes, each an incremental re-solve in a session.

    A call is one probe, ``set_capacities`` then ``solve()``; a round is
    the probe sequence on golden_synthetic2 in one ``DseSession``. Every
    edit invalidates blocks, so the compile is incremental rather than
    cold.
    """

    REPEATS = True

    def __init__(self, rng: random.Random) -> None:
        from repro.buffers.capacity import bound_all_buffers
        from repro.dse import DseSession
        from repro.model.graph import CsdfGraph

        fixture = json.loads(DSE_FIXTURE.read_text())
        corpus = {graph.name: graph for graph in load_corpus(GOLDEN_INDEX)}
        self._sessions = []
        self._probes: List[Probe] = []
        for name in DSE_GRAPHS:
            c = rng.randrange(2, 50)
            graph = CsdfGraph.from_dict(scaled(corpus[name].doc, c))
            capacities = probe_sequence(graph)
            session = DseSession(bound_all_buffers(graph, capacities[0]))
            # The fixture holds the live prefix of the probe sequence.
            probes = [Probe(session, caps, c * Fraction(*pair))
                      for caps, pair in zip(capacities, fixture[name])]
            # Every round's first probe follows the last one of the
            # round before, so the first round does too.
            warm_up(self, probes[-1])
            self._sessions.append(session)
            self._probes.extend(probes)

    def next_round(self) -> List[Probe]:
        return self._probes

    def call(self, probe: Probe):
        probe.session.set_capacities(probe.capacities)
        return probe.session.solve()

    check = staticmethod(check_result)

    def counters(self) -> Dict[str, int]:
        stats = [session.stats() for session in self._sessions]
        return {
            "invalidated_blocks": sum(s["invalidated_blocks"] for s in stats),
            "warm_hits": sum(s["warm_starts"].get("hit", 0) for s in stats),
        }

    def close(self) -> None:
        pass


class FabricDrain:
    """The queue fabric: HTTP client, in-process coordinator, memory queue.

    A call is ``ThroughputService(queue=CoordinatorClient(url),
    queue_inline_drain=True).submit_many`` on the next 16 fleet graphs
    in order, each with a new multiplier, against a ``CoordinatorServer``
    on 127.0.0.1 over the benchmark's own ``MemoryJobQueue``. The
    service leases and solves every job itself through the per-graph
    payload driver. No job repeats, so the queue's history grows with
    every call.
    """

    REPEATS = False  # every call is later in the queue's history
    JOBS = 16

    def __init__(self, rng: random.Random) -> None:
        from repro.distributed import (
            CoordinatorClient,
            CoordinatorServer,
            MemoryJobQueue,
        )
        from repro.service import ThroughputService

        fleet = load_corpus(FLEET_INDEX)
        self._graphs = dealt(fleet)
        self._scaler = Scaler(rng)
        self.queue = MemoryJobQueue()
        self._server = CoordinatorServer(queue=self.queue).start()
        self.service = ThroughputService(
            queue=CoordinatorClient(self._server.url),
            queue_inline_drain=True,
        )
        warm_up(self, [fleet[0].unscaled()])

    def next_round(self) -> List[List[Request]]:
        return [[self._scaler.request(next(self._graphs))
                 for _ in range(self.JOBS)]]

    def call(self, batch: List[Request]):
        return self.service.submit_many([request.doc for request in batch])

    check = staticmethod(check_outcomes)

    def counters(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        self.service.close()
        self._server.shutdown()


WORKLOADS = {
    "dse-sizing": DseSizing,
    "fabric-drain": FabricDrain,
}
