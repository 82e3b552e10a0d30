"""Regression corpus: serialized graphs with triple-verified periods.

Each graph in ``tests/data/`` was stored together with its exact period
after K-Iter, symbolic execution and CSDF unfolding all agreed on it
(regenerate with ``PYTHONPATH=src python tools/make_golden_corpus.py``).
Any future change that shifts a period on any engine fails here with
the exact offending instance — the strongest cheap regression net the
library has.

The module skips cleanly when the corpus is absent (e.g. a sparse
checkout): everything else in the suite is independent of it.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.baselines import throughput_periodic, throughput_symbolic
from repro.baselines.unfolding import throughput_unfolding
from repro.io import load_graph
from repro.kperiodic import throughput_kiter

DATA = Path(__file__).parent / "data"
try:
    INDEX = json.loads((DATA / "golden_index.json").read_text())
except FileNotFoundError:
    pytest.skip(
        "golden corpus not present; regenerate with "
        "tools/make_golden_corpus.py",
        allow_module_level=True,
    )
CASES = [(entry["file"], Fraction(*entry["period"])) for entry in INDEX]


@pytest.mark.parametrize("filename,period", CASES,
                         ids=[c[0] for c in CASES])
def test_kiter_golden(filename, period):
    graph = load_graph(DATA / filename)
    assert throughput_kiter(graph).period == period


@pytest.mark.parametrize("filename,period", CASES,
                         ids=[c[0] for c in CASES])
def test_symbolic_golden(filename, period):
    graph = load_graph(DATA / filename)
    assert throughput_symbolic(graph).period == period


@pytest.mark.parametrize("filename,period", CASES[:6],
                         ids=[c[0] for c in CASES[:6]])
def test_unfolding_golden(filename, period):
    graph = load_graph(DATA / filename)
    assert throughput_unfolding(graph).period == period


@pytest.mark.parametrize("filename,period", CASES,
                         ids=[c[0] for c in CASES])
def test_periodic_upper_bounds_golden(filename, period):
    graph = load_graph(DATA / filename)
    result = throughput_periodic(graph)
    if result.feasible:
        assert result.period >= period


def test_corpus_is_nonempty():
    assert len(CASES) >= 10


def test_fleet_tool_cross_checks_long_steady_states_by_unfolding(
        tmp_path, monkeypatch):
    """Above ``FLEET_SYMBOLIC_BOUND`` the fleet tool's third oracle is
    CSDF unfolding, which shares no code with the two K-Iter runs; with
    the bound at 0 every case takes that branch and still agrees."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "tools"))
    import make_golden_corpus as tool

    cases = dict(tool.fleet_cases())
    monkeypatch.setattr(tool, "FLEET", tmp_path)
    monkeypatch.setattr(tool, "FLEET_SYMBOLIC_BOUND", 0)
    monkeypatch.setattr(tool, "fleet_cases", lambda: [
        (name, cases[name]) for name in ("figure1", "csdf1000")])
    assert tool.write_fleet() == 0
    index = json.loads((tmp_path / "fleet_index.json").read_text())
    assert [entry["oracles"] for entry in index] == [
        ["kiter:ratio-iteration", "kiter:karp", "unfolding"]] * 2
    for entry in index:
        graph = load_graph(tmp_path / entry["file"])
        assert throughput_unfolding(graph).period == Fraction(
            *entry["period"])
