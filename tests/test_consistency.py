"""Unit tests for repetition-vector computation."""

import pytest
from conftest import corpus_graph_dicts
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import repetition_vector_fraction

from repro.analysis import (
    is_consistent,
    normalized_rates,
    repetition_vector,
    repetition_vector_sum,
)
from repro.exceptions import InconsistentGraphError, ModelError
from repro.generators.paper import figure2_graph
from repro.generators.random_sdf import random_connected_sdf
from repro.model import CsdfGraph, csdf, sdf


class TestSdfRepetition:
    def test_two_task_ratio(self):
        g = sdf({"A": 1, "B": 1}, [("A", "B", 2, 3, 0)])
        assert repetition_vector(g) == {"A": 3, "B": 2}

    def test_chain_propagation(self):
        g = sdf(
            {"A": 1, "B": 1, "C": 1},
            [("A", "B", 2, 3, 0), ("B", "C", 5, 10, 0)],
        )
        assert repetition_vector(g) == {"A": 3, "B": 2, "C": 1}

    def test_minimality(self):
        g = sdf({"A": 1, "B": 1}, [("A", "B", 4, 6, 0)])
        assert repetition_vector(g) == {"A": 3, "B": 2}

    def test_large_rates_no_overflow(self):
        # the paper fixed an integer overflow in SDF3's computation;
        # arbitrary precision must shrug at huge rates.
        big = 10**12 + 39
        g = sdf({"A": 1, "B": 1}, [("A", "B", big, big + 1, 0)])
        q = repetition_vector(g)
        assert q == {"A": big + 1, "B": big}

    def test_inconsistent_triangle(self):
        g = sdf(
            {"A": 1, "B": 1, "C": 1},
            [
                ("A", "B", 1, 1, 0),
                ("B", "C", 1, 1, 0),
                ("C", "A", 2, 1, 0),
            ],
        )
        with pytest.raises(InconsistentGraphError):
            repetition_vector(g)
        assert not is_consistent(g)

    def test_disconnected_components_scaled_independently(self):
        g = sdf(
            {"A": 1, "B": 1, "C": 1, "D": 1},
            [("A", "B", 2, 3, 0), ("C", "D", 1, 5, 0)],
        )
        q = repetition_vector(g)
        assert q["A"] * 2 == q["B"] * 3
        assert q["C"] * 1 == q["D"] * 5

    def test_empty_graph_rejected(self):
        with pytest.raises(ModelError):
            repetition_vector(CsdfGraph("empty"))

    def test_isolated_task(self):
        g = sdf({"A": 7}, [])
        assert repetition_vector(g) == {"A": 1}


class TestCsdfRepetition:
    def test_figure1_rates(self):
        g = csdf(
            {"t": [1, 1, 1], "u": [1, 1]},
            [("t", "u", [2, 3, 1], [2, 5], 0)],
        )
        # q_t·6 = q_u·7
        assert repetition_vector(g) == {"t": 7, "u": 6}

    def test_figure2_derived_vector(self):
        # repro.generators.paper documents why this is [3,4,6,1] (not
        # the prose's value)
        assert repetition_vector(figure2_graph()) == {
            "A": 3, "B": 4, "C": 6, "D": 1,
        }

    def test_self_loop_consistent(self):
        g = csdf({"A": [1, 1]}, [("A", "A", [1, 1], [2, 0], 2)])
        assert repetition_vector(g) == {"A": 1}

    def test_self_loop_inconsistent(self):
        with pytest.raises(InconsistentGraphError):
            repetition_vector(
                csdf({"A": [1, 1]}, [("A", "A", [1, 1], [3, 0], 2)])
            )

    def test_sum_helper(self):
        assert repetition_vector_sum(figure2_graph()) == 14


class TestScalingInvariance:
    def test_rate_scaling_preserves_vector(self):
        g1 = sdf({"A": 1, "B": 1}, [("A", "B", 2, 3, 0)])
        g2 = sdf({"A": 1, "B": 1}, [("A", "B", 20, 30, 0)])
        assert repetition_vector(g1) == repetition_vector(g2)


class TestNormalizedRates:
    def test_smallest_rate_of_each_component_is_one(self):
        # the DFS root (A) is not the slowest task of its component
        g = sdf(
            {"A": 1, "B": 1, "C": 1, "D": 1, "E": 1},
            [("A", "B", 2, 3, 0), ("B", "C", 1, 2, 0), ("D", "E", 5, 1, 0)],
        )
        assert normalized_rates(g) == {
            "A": 3, "B": 2, "C": 1, "D": 1, "E": 5,
        }

    def test_rates_stay_proportional_to_the_repetition_vector(self):
        g = figure2_graph()
        rates = normalized_rates(g)
        q = repetition_vector(g)
        assert min(rates.values()) == 1
        assert all(rates[n] * min(q.values()) == q[n] for n in q)

    def test_empty_graph_has_no_rates(self):
        assert normalized_rates(CsdfGraph("empty")) == {}


def _assert_matches_fraction_reference(graph):
    """Integer and ``Fraction`` propagation agree, errors included."""
    try:
        expected = repetition_vector_fraction(graph)
    except InconsistentGraphError as exc:
        with pytest.raises(InconsistentGraphError) as got:
            repetition_vector(graph)
        assert str(got.value) == str(exc)
        return
    q = repetition_vector(graph)
    assert q == expected
    assert list(q) == list(expected)  # same task order too


def _merged(*graphs):
    """One graph holding each input as its own component."""
    doc = {"name": "merged", "tasks": [], "buffers": []}
    for index, graph in enumerate(graphs):
        part = graph.to_dict()
        for task in part["tasks"]:
            doc["tasks"].append(dict(task, name=f"g{index}.{task['name']}"))
        for buffer in part["buffers"]:
            doc["buffers"].append(dict(
                buffer, name=f"g{index}.{buffer['name']}",
                source=f"g{index}.{buffer['source']}",
                target=f"g{index}.{buffer['target']}",
            ))
    return CsdfGraph.from_dict(doc)


def _with_scaled_rate(graph, buffer_index, factor):
    """``graph`` with one buffer's production scaled (often inconsistent)."""
    doc = graph.to_dict()
    buffer = doc["buffers"][buffer_index % len(doc["buffers"])]
    buffer["production"] = [r * factor for r in buffer["production"]]
    return CsdfGraph.from_dict(doc)


class TestIntegerPropagationMatchesFractions:
    """The integer num/den propagation against the ``Fraction`` oracle."""

    def test_corpus_graphs(self):
        graphs = [CsdfGraph.from_dict(doc) for doc in corpus_graph_dicts()]
        if not graphs:
            pytest.skip("corpus not present")
        for graph in graphs:
            _assert_matches_fraction_reference(graph)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tasks=st.integers(1, 9),
        max_q=st.integers(1, 40),
        perturb=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 50), st.integers(2, 7)),
        ),
        split=st.booleans(),
    )
    def test_random_graphs(self, seed, tasks, max_q, perturb, split):
        graph = random_connected_sdf(
            seed, tasks=tasks, max_q=max_q, rate_scale_max=5)
        if split:  # disconnected: the vector is scaled over both parts
            graph = _merged(graph, random_connected_sdf(
                seed + 1, tasks=max(1, tasks - 2), max_q=max_q))
        if perturb is not None and graph.buffer_count:
            graph = _with_scaled_rate(graph, *perturb)
        _assert_matches_fraction_reference(graph)

    def test_rate_products_beyond_64_bits(self):
        p, r = 2**61 - 1, 2**89 - 1  # Mersenne primes
        g = sdf(
            {"A": 1, "B": 1, "C": 1},
            [("A", "B", p, r, 0), ("B", "C", r + 2, p + 2, 0)],
        )
        q = repetition_vector(g)
        assert max(q.values()) > 2**63
        assert q["A"] * p == q["B"] * r
        _assert_matches_fraction_reference(g)
        # a conflicting cycle of the same magnitude is still caught
        _assert_matches_fraction_reference(sdf(
            {"A": 1, "B": 1, "C": 1},
            [("A", "B", p, r, 0), ("B", "C", r, p, 0), ("C", "A", 2, 1, 0)],
        ))

    def test_self_loop_conflict_message(self):
        _assert_matches_fraction_reference(
            csdf({"A": [1, 1]}, [("A", "A", [1, 1], [3, 0], 2)]))
