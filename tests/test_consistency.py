"""Unit tests for repetition-vector computation."""

import pytest

from repro.analysis import (
    is_consistent,
    repetition_vector,
    repetition_vector_sum,
)
from repro.exceptions import InconsistentGraphError, ModelError
from repro.generators.paper import figure2_graph
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
