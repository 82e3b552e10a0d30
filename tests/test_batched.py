"""Batched multi-graph solving: kernel edge cases + fleet parity.

The exactness contract under test: for every graph in a batch, the
batched kernel's ``λ*`` is the *bit-identical* ``Fraction`` the
per-graph engine certifies (rare paths delegate to that engine, so the
contract holds by construction). Iteration traces may differ — the
batched oracle can surface a different, equally valid critical circuit —
so parity asserts values, statuses and errors, never probe counts.
"""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.exceptions import DeadlockError, SolverError
from repro.mcrp import (
    BiValuedGraph,
    batched_solve_mcrp,
    get_engine,
    solve_mcrp,
)
from repro.mcrp import registry as engine_registry
from repro.mcrp.batched import BATCHED_ORACLES, batching_available
from repro.kperiodic.fleet import solve_fleet_payloads
from repro.kperiodic.kiter import solve_kiter_payload
from repro.model.builder import sdf
from repro.obs.metrics import REGISTRY

from tests.conftest import corpus_graph_dicts

pytestmark = pytest.mark.skipif(
    not batching_available(), reason="batched kernels require numpy"
)

#: The batched oracles, plus ``karp``: its fleets delegate every graph
#: to the per-graph kernel, and must still give that kernel's answers.
ENGINES = sorted(BATCHED_ORACLES | {"karp"})
DATA_DIR = Path(__file__).parent / "data"
FLEET_DIR = DATA_DIR / "fleet"


def ring(n: int, costs, transits) -> BiValuedGraph:
    """An n-cycle with per-arc (cost, transit) patterns."""
    g = BiValuedGraph(n)
    for i in range(n):
        g.add_arc(i, (i + 1) % n, costs[i % len(costs)],
                  transits[i % len(transits)])
    return g


def random_bivalued(seed: int, nodes: int = 8) -> BiValuedGraph:
    rng = random.Random(seed)
    g = BiValuedGraph(nodes)
    for i in range(nodes):  # a live backbone cycle
        g.add_arc(i, (i + 1) % nodes, rng.randint(0, 9),
                  Fraction(rng.randint(1, 4), rng.choice((1, 2, 3))))
    for _ in range(nodes):
        g.add_arc(rng.randrange(nodes), rng.randrange(nodes),
                  rng.randint(0, 6), Fraction(rng.randint(1, 3)))
    return g


def reference(graph: BiValuedGraph, engine: str):
    return solve_mcrp(graph, get_engine(engine))


# ----------------------------------------------------------------------
# Kernel edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_empty_chunk(engine):
    assert batched_solve_mcrp([], engine=engine) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_single_graph_chunk_matches_per_graph(engine):
    graph = random_bivalued(1)
    (outcome,) = batched_solve_mcrp([graph], engine=engine)
    assert outcome.error is None
    assert outcome.result.ratio == reference(graph, engine).ratio


@pytest.mark.parametrize("engine", ENGINES)
def test_deadlock_mixed_into_healthy_fleet(engine):
    healthy = [random_bivalued(seed) for seed in range(4)]
    dead = ring(3, costs=[5], transits=[0])  # positive cost, zero transit
    fleet = healthy[:2] + [dead] + healthy[2:]
    outcomes = batched_solve_mcrp(fleet, engine=engine)
    assert isinstance(outcomes[2].error, DeadlockError)
    assert outcomes[2].error.cycle_nodes  # certificate survives batching
    for graph, outcome in zip(healthy, outcomes[:2] + outcomes[3:]):
        assert outcome.error is None
        assert outcome.result.ratio == reference(graph, engine).ratio


@pytest.mark.parametrize("engine", ENGINES)
def test_mixed_per_graph_scales(engine):
    # Distinct denominators per graph → distinct compiled integer
    # scales; the stacked kernel must keep them segregated per segment.
    fleet = [
        ring(4, costs=[3, 1], transits=[Fraction(1, 2)]),
        ring(5, costs=[2], transits=[Fraction(1, 3), Fraction(2, 3)]),
        ring(3, costs=[Fraction(7, 5)], transits=[1]),
        random_bivalued(7),
    ]
    outcomes = batched_solve_mcrp(fleet, engine=engine)
    for graph, outcome in zip(fleet, outcomes):
        assert outcome.error is None
        assert outcome.result.ratio == reference(graph, engine).ratio


@pytest.mark.parametrize("engine", ENGINES)
def test_int64_overflow_forces_per_graph_fallback_mid_batch(engine):
    huge = ring(4, costs=[10 ** 18, 3 * 10 ** 17], transits=[1])
    fleet = [random_bivalued(11), huge, random_bivalued(12)]
    outcomes = batched_solve_mcrp(fleet, engine=engine)
    assert outcomes[1].batched is False  # overflow → delegated
    for graph, outcome in zip(fleet, outcomes):
        assert outcome.error is None
        assert outcome.result.ratio == reference(graph, engine).ratio
    assert outcomes[1].result.ratio == Fraction(26 * 10 ** 17, 4)


@pytest.mark.parametrize("engine", ENGINES)
def test_retirement_order_independence(engine):
    # Graphs converge after different probe counts; whatever order the
    # convergence masks retire them in, each answer is its own.
    fleet = [random_bivalued(seed, nodes=4 + seed % 5)
             for seed in range(10)]
    expected = [reference(g, engine).ratio for g in fleet]
    for shuffle_seed in range(4):
        order = list(range(len(fleet)))
        random.Random(shuffle_seed).shuffle(order)
        outcomes = batched_solve_mcrp([fleet[i] for i in order],
                                      engine=engine)
        for position, original in enumerate(order):
            assert outcomes[position].result.ratio == expected[original]


def test_empty_graph_member():
    fleet = [BiValuedGraph(0), random_bivalued(3)]
    outcomes = batched_solve_mcrp(fleet)
    assert outcomes[0].result.ratio is None
    assert outcomes[1].result.ratio is not None


# ----------------------------------------------------------------------
# Fleet driver (payload level)
# ----------------------------------------------------------------------
def two_cycle():
    return sdf({"A": 1, "B": 1},
               [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
               name="two_cycle")


def test_fleet_payload_schema_and_routing():
    payloads = [
        {"graph": two_cycle().to_dict(), "engine": "ratio-iteration"},
        {"graph": two_cycle().to_dict(), "engine": "karp"},
    ]
    outcomes = solve_fleet_payloads(payloads)
    for outcome in outcomes:
        assert outcome["status"] == "OK"
        assert outcome["period"] == [2, 1]
        assert not outcome["fallback"]
    # The flag reports the route: karp has no batched oracle, so the
    # kernel call hands its graph to the per-graph engine.
    assert outcomes[0]["batched"] is True
    assert outcomes[1]["batched"] is False


def test_config_error_counts_as_a_failed_solver_job():
    before = REGISTRY.value("repro_solver_jobs_total", status="ERROR")
    outcome = solve_kiter_payload(
        {"graph": two_cycle().to_dict(), "update_policy": "typo"})
    assert outcome["status"] == "ERROR"
    assert "update_policy" in outcome["error"]
    assert outcome["engine_used"] == ""
    assert REGISTRY.value("repro_solver_jobs_total",
                          status="ERROR") == before + 1


def test_config_error_skips_the_fallback_chain():
    for engine in ("ratio-iteration", "no-such-engine"):
        outcome = solve_kiter_payload(
            {"graph": two_cycle().to_dict(), "update_policy": "typo",
             "engine": engine, "fallback_engines": ["karp"]})
        assert outcome["status"] == "ERROR"
        assert "update_policy" in outcome["error"]
        assert outcome["engine_used"] == ""
        assert outcome["fallback"] is False


def test_fallback_restarts_only_the_failing_job(monkeypatch):
    """A SolverError mid-fleet moves that one job to its fallback engine
    with a fresh machine; the failing engine is not run a second time."""
    from repro.kperiodic import kiter as kiter_mod
    from repro.mcrp.batched import BatchedOutcome

    karp = get_engine("karp")
    karp_runs = []
    real_batched = kiter_mod.batched_solve_mcrp

    def failing_batched(graphs, engine, lower_bounds):
        if engine != "karp":
            return real_batched(graphs, engine=engine,
                                lower_bounds=lower_bounds)
        karp_runs.append(len(graphs))
        return [BatchedOutcome(error=SolverError("injected failure"))
                for _ in graphs]

    def counted_karp(graph, **options):
        karp_runs.append(1)
        return karp.solve(graph, **options)

    monkeypatch.setattr(kiter_mod, "batched_solve_mcrp", failing_batched)
    monkeypatch.setitem(engine_registry._REGISTRY, "karp",
                        dataclasses.replace(karp, solve=counted_karp))
    healthy = {"graph": two_cycle().to_dict()}
    failing = {"graph": two_cycle().to_dict(), "engine": "karp",
               "fallback_engines": ["ratio-iteration"]}
    outcomes = solve_fleet_payloads([healthy, failing, dict(healthy)])
    assert [o["status"] for o in outcomes] == ["OK"] * 3
    assert outcomes[1]["period"] == [2, 1]
    assert outcomes[1]["engine_used"] == "ratio-iteration"
    assert outcomes[1]["fallback"] is True
    assert not outcomes[0]["fallback"] and not outcomes[2]["fallback"]
    assert karp_runs == [1]  # one kernel call, no per-graph re-solve


def test_fleet_deadlock_payload_mixed_in():
    dead = sdf({"A": 1, "B": 1},
               [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 0)],
               name="dead")
    payloads = [
        {"graph": two_cycle().to_dict()},
        {"graph": dead.to_dict()},
        {"graph": two_cycle().to_dict()},
    ]
    outcomes = solve_fleet_payloads(payloads)
    assert [o["status"] for o in outcomes] == ["OK", "DEADLOCK", "OK"]
    solo = solve_kiter_payload(payloads[1])
    assert outcomes[1]["error"] == solo["error"]


def test_fleet_empty_chunk():
    assert solve_fleet_payloads([]) == []


# ----------------------------------------------------------------------
# Fleet fixture: bit-identical λ* on the triple-verified corpus
# ----------------------------------------------------------------------
def fleet_fixture_cases():
    index = FLEET_DIR / "fleet_index.json"
    if not index.exists():  # sparse checkout
        return []
    return json.loads(index.read_text())


@pytest.mark.parametrize(
    "engine", ["ratio-iteration", "karp", "bellman"])
def test_fleet_of_one_matches_the_whole_fleet(engine, reference_engines):
    """Route independence: a payload's outcome does not depend on the
    chunk it rides in (only timing and the process id may differ)."""
    payloads = [{"graph": graph, "engine": engine}
                for graph in corpus_graph_dicts()]
    fleet = solve_fleet_payloads(payloads)
    for payload, together in zip(payloads, fleet):
        alone = solve_kiter_payload(payload)
        for outcome in (alone, together):
            del outcome["wall_time"], outcome["worker_pid"]
        assert alone == together


@pytest.mark.skipif(not fleet_fixture_cases(),
                    reason="fleet fixture not generated")
@pytest.mark.parametrize("engine", ENGINES)
def test_fleet_fixture_bit_identical(engine):
    from repro.io import load_graph

    cases = fleet_fixture_cases()
    payloads = []
    for entry in cases:
        graph = load_graph(FLEET_DIR / entry["file"])
        payloads.append({"graph": graph.to_dict(), "engine": engine})
    outcomes = solve_fleet_payloads(payloads)
    batched = 0
    for entry, outcome in zip(cases, outcomes):
        assert outcome["status"] == "OK", (entry["file"], outcome)
        assert outcome["period"] == entry["period"], entry["file"]
        batched += bool(outcome["batched"])
    if engine in BATCHED_ORACLES:
        # The fixture is sized for the batched path: the vast majority
        # of solves must actually ride it, not the fallback.
        assert batched >= len(cases) * 3 // 4
    else:  # no batched oracle: every graph goes to the per-graph kernel
        assert batched == 0


# ----------------------------------------------------------------------
# Distributed worker: inherits the batched kernel with zero protocol
# changes, and its stats say so.
# ----------------------------------------------------------------------
def test_worker_stats_count_batched_solves():
    from repro.distributed.jobqueue import MemoryJobQueue
    from repro.distributed.worker import Worker
    from repro.service import ThroughputService

    queue = MemoryJobQueue()
    worker = Worker(queue, worker_id="batched-test", chunk_size=4,
                    poll_interval=0.01)
    thread = worker.run_in_thread()
    try:
        service = ThroughputService(
            engine="ratio-iteration", queue=queue, queue_poll=0.01,
        )
        outcome = service.submit(two_cycle())
        assert outcome.ok and outcome.period == 2
        assert outcome.batched is True
    finally:
        worker.stop()
        thread.join(timeout=10)
    assert worker.stats.acks == 1
    assert worker.stats.batched == 1
    assert worker.stats.as_dict()["batched"] == 1
