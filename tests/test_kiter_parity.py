"""One K-Iter loop: the library call and the payload agree on everything.

:func:`~repro.kperiodic.kiter.throughput_kiter` and
:func:`~repro.kperiodic.kiter.solve_kiter_payload` both run the one
lockstep round loop, so on every corpus graph and every registered
engine they report the same period, K, round count, critical tasks and
engine iterations — not only the same λ*.
"""

import pytest

from repro.kperiodic.kiter import solve_kiter_payload, throughput_kiter
from repro.mcrp.registry import engine_names
from repro.model.graph import CsdfGraph
from tests.conftest import corpus_graph_dicts

CORPUS = corpus_graph_dicts()


def _library(graph_dict, engine):
    result = throughput_kiter(CsdfGraph.from_dict(graph_dict), engine=engine)
    return {
        "period": [result.period.numerator, result.period.denominator],
        "K": result.K,
        "rounds": result.iteration_count,
        "critical_tasks": sorted(result.critical_tasks),
        "engine_iterations": result.engine_iteration_count,
    }


def _payload(graph_dict, engine):
    outcome = solve_kiter_payload({"graph": graph_dict, "engine": engine})
    assert outcome["status"] == "OK", outcome
    return {key: outcome[key] for key in (
        "period", "K", "rounds", "critical_tasks", "engine_iterations")}


@pytest.mark.parametrize("engine", engine_names())
def test_throughput_kiter_matches_the_payload_route(engine):
    if len(CORPUS) != 52:
        pytest.skip("corpus not present")
    differ = [
        graph_dict["name"] for graph_dict in CORPUS
        if _library(graph_dict, engine) != _payload(graph_dict, engine)
    ]
    assert differ == []
