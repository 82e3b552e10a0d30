"""Targeted tests for the pure-Python Howard reference in ``oracles``."""

import random
from fractions import Fraction

import pytest

from oracles import (
    _howard_float_hint,
    _policy_cycle,
    max_cycle_ratio_howard,
    policy_cycles,
)
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


class TestPolicyCycles:
    """``policy_cycles`` on successor arrays (``-1``: no policy arc)."""

    def test_self_loop_tail_and_dead_end(self):
        # 0 -> 1 -> 1 (self-loop); 2 -> 3 -> 2; 4 -> 0; 5 has no arc.
        cycles = policy_cycles([1, 1, 3, 2, 0, -1])
        assert sorted(sorted(c) for c in cycles) == [[1], [2, 3]]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_on_random_functional_graphs(self, seed):
        rng = random.Random(seed)
        n = 15
        succ = [rng.randrange(-1, n) for _ in range(n)]
        cycles = policy_cycles(succ)
        found = [v for cycle in cycles for v in cycle]
        assert len(found) == len(set(found))  # each cycle reported once
        for cycle in cycles:  # node lists in policy order
            for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                assert succ[v] == w
        on_cycle = set()
        for v in range(n):  # v is on a cycle iff its chase returns to v
            u = succ[v]
            for _ in range(n):
                if u < 0 or u == v:
                    break
                u = succ[u]
            if u == v:
                on_cycle.add(v)
        assert set(found) == on_cycle


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
