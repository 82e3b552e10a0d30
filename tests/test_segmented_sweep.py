"""The segmented useful-pair sweep and the fleet's per-round block pass.

:func:`repro.analysis.precedence.segmented_useful_pair_arrays` sweeps
the Theorem 2 cell grids of many K-expanded buffers in one numpy pass,
and the fleet driver runs it once per lockstep round for every machine
of a chunk (:func:`repro.kperiodic.expansion.derive_expansion_blocks`).
Three layers of coverage:

* **Oracle parity** — every segment equals the pure-Python
  :func:`~repro.analysis.precedence.useful_pairs` enumeration on the
  buffer materialized by ``expand_graph`` (never another numpy path),
  including all-ones loops, large markings and a tiny cell budget that
  forces the multi-pass and row-blocked paths.
* **Honest counters** — a block derived ahead by the fleet pass is one
  miss, and its use at assembly is not counted again: one fleet over
  the corpus counts exactly what one fleet per graph counts.
* **Fault isolation** — round caps, int64-guard fallbacks to the
  expand+build path and a failing shared pass leave every chunk-mate's
  outcome exactly what it is when solved alone.
"""

import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.precedence as precedence
from repro.analysis.precedence import (
    segmented_useful_pair_arrays,
    useful_pairs,
)
from repro.kperiodic.expansion import expand_graph
from repro.kperiodic.fleet import solve_fleet_payloads
from repro.model import Buffer, CsdfGraph, Task
from repro.obs.metrics import REGISTRY

from tests.conftest import corpus_graph_dicts

np = pytest.importorskip("numpy")

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# Oracle parity
# ----------------------------------------------------------------------
rates = st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(sum)


@st.composite
def segment(draw):
    """One request: a generic buffer or an all-ones loop, with its K."""
    if draw(st.booleans()):
        phases = draw(st.integers(1, 3))
        k = draw(st.integers(1, 4))
        return ("ones", phases, k, draw(st.integers(0, 2 * phases * k + 1)))
    production = tuple(draw(rates))
    consumption = tuple(draw(rates))
    tokens = draw(st.one_of(
        st.just(0),
        st.integers(0, 12).map(lambda extra: sum(production) + extra),
    ))
    return ("generic", production, consumption, tokens,
            draw(st.integers(1, 4)), draw(st.integers(1, 4)))


def _graph_of(specs):
    """The requests' buffers in one graph, plus its periodicity vector."""
    graph = CsdfGraph("segments")
    K = {}
    for i, spec in enumerate(specs):
        if spec[0] == "ones":
            _, phases, k, tokens = spec
            graph.add_task(Task(f"u{i}", (1,) * phases))
            graph.add_buffer(Buffer(f"b{i}", f"u{i}", f"u{i}",
                                    (1,) * phases, (1,) * phases, tokens))
            K[f"u{i}"] = k
        else:
            _, production, consumption, tokens, k_src, k_dst = spec
            graph.add_task(Task(f"s{i}", (1,) * len(production)))
            graph.add_task(Task(f"t{i}", (1,) * len(consumption)))
            graph.add_buffer(Buffer(f"b{i}", f"s{i}", f"t{i}",
                                    production, consumption, tokens))
            K[f"s{i}"], K[f"t{i}"] = k_src, k_dst
    return graph, K


def _assert_matches_oracle(graph, K):
    requests = [(b, K[b.source], K[b.target]) for b in graph.buffers()]
    p, pp, beta, bounds = segmented_useful_pair_arrays(requests)
    expanded = expand_graph(graph, K)
    assert bounds.shape == (len(requests) + 1,)
    for i, (b, _, _) in enumerate(requests):
        oracle = [(x - 1, y - 1, z)
                  for x, y, z in useful_pairs(expanded.buffer(b.name))]
        lo, hi = bounds[i], bounds[i + 1]
        got = list(zip(p[lo:hi].tolist(), pp[lo:hi].tolist(),
                       beta[lo:hi].tolist()))
        assert got == oracle, (b, K[b.source], K[b.target])


SWEEP = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SWEEP
@given(st.lists(segment(), min_size=1, max_size=6))
def test_segmented_sweep_matches_the_python_oracle(specs):
    _assert_matches_oracle(*_graph_of(specs))


@SWEEP
@given(st.lists(segment(), min_size=1, max_size=6), st.integers(1, 7))
def test_tiny_cell_budget_takes_many_passes_and_row_blocks(specs, cells):
    # A budget below one buffer's grid splits the request set into
    # several passes and sweeps each large buffer in row blocks; rows of
    # zero-rate producer phases leave some passes with no pairs at all.
    with mock.patch.object(precedence, "PAIR_SWEEP_BLOCK_CELLS", cells):
        _assert_matches_oracle(*_graph_of(specs))


def test_empty_request_set():
    p, pp, beta, bounds = segmented_useful_pair_arrays([])
    assert p.shape == pp.shape == beta.shape == (0,)
    assert bounds.tolist() == [0]


# ----------------------------------------------------------------------
# Honest block-cache counters
# ----------------------------------------------------------------------
def _corpus_payloads():
    return [{"graph": graph, "engine": "hybrid"}
            for graph in corpus_graph_dicts()]


def _block_events():
    return tuple(
        REGISTRY.value("repro_expansion_block_cache_total", event=event)
        for event in ("hit", "miss")
    )


def _counted(solve):
    before = _block_events()
    result = solve()
    return result, [after - b for b, after in zip(before, _block_events())]


def test_one_fleet_counts_blocks_like_one_fleet_per_graph():
    payloads = _corpus_payloads()
    assert len(payloads) == 52
    together, fleet_counts = _counted(lambda: solve_fleet_payloads(payloads))
    alone, single_counts = _counted(
        lambda: [solve_fleet_payloads([p])[0] for p in payloads])
    # Without the pass each compile looks its own blocks up: the count
    # the blocks derived ahead must reproduce, not double.
    with mock.patch("repro.kperiodic.fleet.derive_expansion_blocks",
                    lambda compiles: [None] * len(compiles)):
        _, unassisted_counts = _counted(
            lambda: solve_fleet_payloads(payloads))
    assert fleet_counts == single_counts == unassisted_counts
    hits, misses = fleet_counts
    assert hits > 0 and misses > 0
    assert [o["period"] for o in together] == [o["period"] for o in alone]


def test_shared_graph_object_derives_each_block_once():
    from repro.io import load_graph
    from repro.kperiodic.expansion import expansion_cache_for

    graph = load_graph(DATA / "golden_figure2.json")
    payload = {"graph": graph.to_dict(), "engine": "hybrid"}
    cache = expansion_cache_for(graph)
    outcomes = solve_fleet_payloads([payload, payload], [graph, graph])
    assert outcomes[0]["period"] == outcomes[1]["period"] == [13, 1]
    assert len(cache) == cache.misses  # no block was derived twice


def test_block_cache_counts_the_memory_its_blocks_pin():
    from repro.io import load_graph
    from repro.kperiodic.expansion import expansion_cache_for

    graphs = [load_graph(DATA / name)
              for name in ("golden_figure1.json", "golden_figure2.json")]
    solve_fleet_payloads(
        [{"graph": g.to_dict(), "engine": "hybrid"} for g in graphs], graphs)
    caches = [expansion_cache_for(g) for g in graphs]
    pinned = [{id(b.base): b.base.size for b in c._blocks.values()}
              for c in caches]
    assert not set(pinned[0]) & set(pinned[1])  # one pass, no shared arcs
    for cache, bases in zip(caches, pinned):
        assert cache.stats()["cells"] == sum(bases.values())
    cache = caches[1]
    cache.max_cells = 0  # evict down to one block: only its base stays
    cache._evict()
    (block,) = cache._blocks.values()
    assert cache.stats()["cells"] == block.base.size


# ----------------------------------------------------------------------
# Fault isolation inside one chunk
# ----------------------------------------------------------------------
def _overflow_graph():
    """Rates of 2**62: the direct compile's int64 guard trips at K = 1."""
    big = 1 << 62
    graph = CsdfGraph("overflow")
    graph.add_task(Task("A", (3,)))
    graph.add_task(Task("B", (4,)))
    graph.add_buffer(Buffer("ab", "A", "B", (big,), (big,), 0))
    graph.add_buffer(Buffer("ba", "B", "A", (big,), (big,), big))
    return graph


def test_overflow_graph_trips_the_direct_guard():
    from repro.analysis.consistency import repetition_vector
    from repro.kperiodic.expansion import (
        compile_expansion,
        derive_expansion_blocks,
        expanded_repetition_vector,
    )

    graph = _overflow_graph()
    q = repetition_vector(graph)
    K = {t: 1 for t in q}
    q_tilde = expanded_repetition_vector(q, K)
    assert compile_expansion(graph, K, q_tilde) is None
    assert derive_expansion_blocks([(graph, K, q_tilde, None)]) == [None]


def _without_timing(outcome):
    return {k: v for k, v in outcome.items()
            if k not in ("wall_time", "worker_pid")}


def _mixed_chunk():
    from repro.io import load_graph

    figure2 = load_graph(DATA / "golden_figure2.json").to_dict()
    payloads = _corpus_payloads()[:6]
    payloads[3] = {"graph": figure2, "engine": "hybrid", "max_rounds": 1}
    payloads.insert(4, {"graph": _overflow_graph().to_dict(),
                        "engine": "hybrid"})
    # Bad periodicity vectors: one misses a task, one has K = 0.
    payloads.append({"graph": figure2, "engine": "hybrid",
                     "initial_k": {"A": 1}})
    payloads.append({"graph": figure2, "engine": "hybrid",
                     "initial_k": {t["name"]: 0 for t in figure2["tasks"]}})
    return payloads


def test_chunk_mates_of_legacy_round_cap_and_overflow_are_untouched():
    payloads = _mixed_chunk()
    together = solve_fleet_payloads(payloads)
    alone = [solve_fleet_payloads([payload])[0] for payload in payloads]
    assert [_without_timing(o) for o in together] == [
        _without_timing(o) for o in alone]
    assert together[3]["status"] == "ERROR"
    assert "exceeded 1 rounds" in together[3]["error"]
    assert together[4]["status"] == "OK"
    assert Fraction(*together[4]["period"]) == 7  # d(A) + d(B), via legacy
    assert together[7]["status"] == together[8]["status"] == "ERROR"
    assert "misses task" in together[7]["error"]
    assert "must be a positive integer" in together[8]["error"]
    golden = json.loads((DATA / "golden_index.json").read_text())
    for position, entry in zip((0, 1, 2, 5, 6), golden[:3] + golden[4:6]):
        assert together[position]["status"] == "OK"
        assert together[position]["period"] == entry["period"]


def test_a_failing_shared_pass_only_costs_the_saving():
    payloads = _mixed_chunk()
    expected = [_without_timing(o) for o in solve_fleet_payloads(payloads)]

    def broken(compiles):
        raise MemoryError("shared pass")

    with mock.patch("repro.kperiodic.fleet.derive_expansion_blocks",
                    broken):
        outcomes = solve_fleet_payloads(payloads)
    assert [_without_timing(o) for o in outcomes] == expected
