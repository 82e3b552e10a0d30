"""Targeted tests for the pure-Python Howard reference in ``oracles``.

It is the reference for the ``hybrid`` engine's vectorized prefilter.
"""

import random
from fractions import Fraction

import pytest

from oracles import _howard_float_hint, _policy_cycle, max_cycle_ratio_howard
from repro.mcrp import BiValuedGraph, max_cycle_ratio


class TestPolicyCycle:
    def test_functional_ring(self):
        g = BiValuedGraph(3)
        a0 = g.add_arc(0, 1, 1, 1)
        a1 = g.add_arc(1, 2, 1, 1)
        a2 = g.add_arc(2, 0, 1, 1)
        cycle = _policy_cycle(g, [a0, a1, a2])
        assert cycle is not None
        assert sorted(cycle) == [a0, a1, a2]

    def test_tail_into_cycle(self):
        g = BiValuedGraph(3)
        a0 = g.add_arc(0, 1, 1, 1)   # tail
        a1 = g.add_arc(1, 2, 1, 1)
        a2 = g.add_arc(2, 1, 1, 1)   # 2-cycle on {1, 2}
        cycle = _policy_cycle(g, [a0, a1, a2])
        assert sorted(cycle) == [a1, a2]

    def test_no_cycle(self):
        g = BiValuedGraph(2)
        a0 = g.add_arc(0, 1, 1, 1)
        assert _policy_cycle(g, [a0, None]) is None


class TestFloatHint:
    def test_hint_is_certified_lower_bound(self):
        rng = random.Random(3)
        g = BiValuedGraph(8)
        for _ in range(24):
            g.add_arc(rng.randrange(8), rng.randrange(8),
                      rng.randint(1, 9), Fraction(rng.randint(1, 4)))
        hint = _howard_float_hint(g, 100)
        exact = max_cycle_ratio(g).ratio
        assert hint is not None
        assert hint <= exact

    def test_hint_none_on_acyclic(self):
        g = BiValuedGraph(2)
        g.add_arc(0, 1, 5, 1)
        assert _howard_float_hint(g, 50) is None

    def test_hint_often_exact_on_simple_graphs(self):
        g = BiValuedGraph(2)
        g.add_arc(0, 1, 3, 1)
        g.add_arc(1, 0, 5, 1)
        assert _howard_float_hint(g, 50) == 4  # (3+5)/2


class TestEndToEnd:
    def test_explicit_lower_bound_parameter(self):
        g = BiValuedGraph(2)
        g.add_arc(0, 1, 3, 1)
        g.add_arc(1, 0, 5, 1)
        result = max_cycle_ratio_howard(g, lower_bound=Fraction(7, 2))
        assert result.ratio == 4

    @pytest.mark.parametrize("seed", range(10))
    def test_howard_equals_exact_on_hard_mixed_graphs(self, seed):
        rng = random.Random(seed + 77)
        n = rng.randint(3, 14)
        g = BiValuedGraph(n)
        for _ in range(rng.randint(n, 5 * n)):
            g.add_arc(
                rng.randrange(n), rng.randrange(n),
                rng.randint(0, 11),
                Fraction(rng.randint(-1, 7), rng.randint(1, 3)),
            )
        from repro.exceptions import DeadlockError

        try:
            exact = max_cycle_ratio(g).ratio
        except DeadlockError:
            with pytest.raises(DeadlockError):
                max_cycle_ratio_howard(g)
            return
        assert max_cycle_ratio_howard(g).ratio == exact
