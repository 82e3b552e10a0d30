"""Property tests for the mobility (ASAP/ALAP slack) analysis.

Hypothesis drives random live CSDFGs through the certified solve and
checks the lattice facts the resource-aware policies depend on:

* ALAP dominates ASAP instance-wise (slack ≥ 0, exact Fractions);
* every instance of the certified critical circuit has slack 0, and
  the circuit is never empty (something must limit throughput);
* arc reversal is an involution on the bi-valued constraint graph;
* anchoring the latest-start relaxation at the ASAP vector returns
  ASAP *exactly* — ASAP is itself a solution, so the greatest solution
  below it is itself (reversal-of-reversal is the identity on the
  schedule lattice).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import DeadlockError, SchedulingError
from repro.scheduling import (
    latest_path_potentials,
    mobility_from_context,
    reverse_bi_graph,
    schedule_context,
)
from tests.conftest import make_random_live_graph

SETTINGS = settings(deadline=None, max_examples=25)


def _context(seed: int, tasks: int):
    graph = make_random_live_graph(seed, tasks=tasks)
    try:
        return graph, schedule_context(graph)
    except (DeadlockError, SchedulingError):
        return graph, None


@given(seed=st.integers(0, 400), tasks=st.integers(3, 6))
@example(seed=278, tasks=5)  # a node improves more often than n times
@SETTINGS
def test_alap_dominates_asap_instancewise(seed, tasks):
    _graph, ctx = _context(seed, tasks)
    assume(ctx is not None)
    report = mobility_from_context(ctx)
    assert report.instances
    for m in report.instances:
        assert m.alap >= m.asap, m
        assert m.slack >= 0, m
        assert m.slack == m.alap - m.asap


@given(seed=st.integers(0, 400), tasks=st.integers(3, 6))
@SETTINGS
def test_critical_circuit_has_zero_slack(seed, tasks):
    _graph, ctx = _context(seed, tasks)
    assume(ctx is not None)
    report = mobility_from_context(ctx)
    critical = report.critical_instances()
    assert critical, "certified solve must name a critical circuit"
    for m in critical:
        assert m.slack == 0, (m.key, m.slack)


@given(seed=st.integers(0, 400), tasks=st.integers(3, 6))
@SETTINGS
def test_reverse_is_an_involution(seed, tasks):
    _graph, ctx = _context(seed, tasks)
    assume(ctx is not None)
    bi = ctx.bi_graph
    back = reverse_bi_graph(reverse_bi_graph(bi))
    assert back.node_count == bi.node_count
    assert list(back.arc_src) == list(bi.arc_src)
    assert list(back.arc_dst) == list(bi.arc_dst)
    assert list(back.arc_cost) == list(bi.arc_cost)
    assert list(back.arc_transit) == list(bi.arc_transit)


@given(seed=st.integers(0, 400), tasks=st.integers(3, 6))
@SETTINGS
def test_alap_anchored_at_asap_returns_asap(seed, tasks):
    _graph, ctx = _context(seed, tasks)
    assume(ctx is not None)
    asap = ctx.asap_potentials()
    anchored = latest_path_potentials(
        ctx.bi_graph, ctx.omega_expanded, asap
    )
    assert anchored == asap


@given(seed=st.integers(0, 400), tasks=st.integers(3, 6))
@SETTINGS
def test_alap_vector_is_itself_feasible(seed, tasks):
    """The ALAP start vector solves every constraint arc, so it yields
    a verifiable schedule at the same certified Ω."""
    graph, ctx = _context(seed, tasks)
    assume(ctx is not None)
    alap = ctx.alap_potentials()
    weights = ctx.arc_weights()
    bi = ctx.bi_graph
    for arc in range(bi.arc_count):
        src, dst = bi.arc_src[arc], bi.arc_dst[arc]
        assert alap[dst] - alap[src] >= weights[arc], arc
    schedule = ctx.schedule_from_starts(alap)
    schedule.verify(graph, iterations=2)
    assert schedule.omega == ctx.omega


def test_mobility_two_task_cycle_exact(two_task_cycle):
    """Pinned tiny case: the unit cycle is all critical — every window
    degenerates and Ω = 2 exactly."""
    report = mobility_from_context(schedule_context(two_task_cycle))
    assert report.omega == Fraction(2)
    assert report.max_slack == 0
    assert {m.key for m in report.instances} == report.critical_keys
