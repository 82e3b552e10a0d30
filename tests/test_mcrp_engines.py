"""Unit + agreement tests for the MCRP engines.

The default ratio-iteration engine, the test-only Howard and Lawler
references (``oracles.py``) and Karp (unit transit) are independent
implementations; disagreement on
any input is a bug by construction, which makes agreement a powerful
oracle (also exercised with random graphs in test_properties.py).
"""

import random
from fractions import Fraction

import pytest

from repro.exceptions import DeadlockError, SolverError
from oracles import max_cycle_ratio_howard, max_cycle_ratio_lawler
from repro.mcrp import BiValuedGraph, max_cycle_mean, max_cycle_ratio

ENGINES = [max_cycle_ratio, max_cycle_ratio_howard, max_cycle_ratio_lawler]


def ring(values):
    """A simple ring with given (L, H) per arc."""
    g = BiValuedGraph(len(values))
    for i, (cost, transit) in enumerate(values):
        g.add_arc(i, (i + 1) % len(values), cost, transit)
    return g


class TestSimpleCycles:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_self_arc(self, engine):
        g = BiValuedGraph(1)
        g.add_arc(0, 0, 6, Fraction(2))
        result = engine(g)
        assert result.ratio == 3
        assert result.cycle_arcs == [0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unit_self_arc_at_the_bisection_gap_boundary(self, engine):
        # Regression: cost 1 / transit 1 makes Lawler's candidate gap
        # (1/B² = 1) exactly equal to the initial search interval; the
        # bisection used to stop at hi - lo == gap with lo still 0 and
        # then die certifying. λ* = 1 must come out of every engine.
        g = BiValuedGraph(3)
        g.add_arc(1, 1, 1, Fraction(1))
        result = engine(g)
        assert result.ratio == 1
        assert result.cycle_nodes == [1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_rings_max_wins(self, engine):
        g = BiValuedGraph(4)
        g.add_arc(0, 1, 1, 1)
        g.add_arc(1, 0, 1, 1)      # ratio 1
        g.add_arc(2, 3, 5, 1)
        g.add_arc(3, 2, 5, 1)      # ratio 5
        result = engine(g)
        assert result.ratio == 5
        assert set(result.cycle_nodes) == {2, 3}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fractional_ratio(self, engine):
        g = ring([(3, Fraction(1, 2)), (4, Fraction(5, 3))])
        assert engine(g).ratio == Fraction(7) / (Fraction(1, 2) + Fraction(5, 3))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_acyclic_returns_none(self, engine):
        g = BiValuedGraph(3)
        g.add_arc(0, 1, 5, 1)
        g.add_arc(1, 2, 5, 1)
        result = engine(g)
        assert result.is_acyclic

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_graph(self, engine):
        assert engine(BiValuedGraph(0)).is_acyclic


class TestNegativeTransit:
    """Arcs may carry negative H as long as every cycle stays positive."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mixed_sign_cycle_ok(self, engine):
        g = ring([(2, Fraction(3)), (2, Fraction(-1))])
        assert engine(g).ratio == Fraction(4, 2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadlock_zero_transit(self, engine):
        g = ring([(1, Fraction(1)), (1, Fraction(-1))])
        with pytest.raises(DeadlockError) as err:
            engine(g)
        assert err.value.cycle_nodes is not None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadlock_negative_transit(self, engine):
        g = ring([(0, Fraction(-1)), (0, Fraction(0))])
        with pytest.raises(DeadlockError):
            engine(g)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hidden_deadlock_beside_zero_ratio_cycle(self, engine):
        """Regression (hypothesis seed 874): a zero-cost negative-transit
        cycle forbids all periods even when another cycle would certify
        ratio 0 — the deadlock must win."""
        g = BiValuedGraph(2)
        g.add_arc(0, 0, 0, Fraction(-1))  # deadlock cycle
        g.add_arc(1, 1, 0, Fraction(1))   # would certify ratio 0
        with pytest.raises(DeadlockError):
            engine(g)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_vacuous_zero_cycle_not_deadlock(self, engine):
        g = ring([(0, 0), (0, 0)])
        result = engine(g)
        assert result.ratio is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_ratio_cycle_certified(self, engine):
        g = ring([(0, 1), (0, 2)])
        result = engine(g)
        assert result.ratio == 0
        assert result.cycle_arcs

    @pytest.mark.parametrize("engine", [max_cycle_ratio, max_cycle_ratio_lawler])
    def test_negative_cost_rejected(self, engine):
        g = ring([(-1, 1), (1, 1)])
        with pytest.raises(SolverError):
            engine(g)


class TestCertificates:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_cycle_is_closed_and_achieves_ratio(self, engine):
        rng = random.Random(7)
        g = BiValuedGraph(8)
        for _ in range(24):
            u, v = rng.randrange(8), rng.randrange(8)
            g.add_arc(u, v, rng.randint(0, 9), Fraction(rng.randint(1, 5)))
        result = engine(g)
        g.check_cycle(result.cycle_arcs)
        cost, transit = g.cycle_values(result.cycle_arcs)
        assert Fraction(cost, transit) == result.ratio

    def test_lower_bound_hint_correct(self):
        g = ring([(10, 1), (10, 1)])
        assert max_cycle_ratio(g, lower_bound=Fraction(3)).ratio == 10

    def test_overshooting_hint_recovers(self):
        g = ring([(10, 1), (10, 1)])
        assert max_cycle_ratio(g, lower_bound=Fraction(999)).ratio == 10


class TestRandomAgreement:
    @pytest.mark.parametrize("seed", range(30))
    def test_three_engines_agree(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        g = BiValuedGraph(n)
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            g.add_arc(
                u, v,
                rng.randint(0, 12),
                Fraction(rng.randint(1, 8), rng.randint(1, 4)),
            )
        results = [engine(g).ratio for engine in ENGINES]
        assert results[0] == results[1] == results[2]


class TestKarp:
    def test_matches_ratio_engine_on_unit_transit(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 10)
            g = BiValuedGraph(n)
            for _ in range(rng.randint(n, 3 * n)):
                g.add_arc(rng.randrange(n), rng.randrange(n),
                          rng.randint(0, 20), 1)
            mean = max_cycle_mean(g)
            ratio = max_cycle_ratio(g)
            assert mean.ratio == ratio.ratio

    def test_karp_certificate(self):
        g = BiValuedGraph(3)
        g.add_arc(0, 1, 2, 1)
        g.add_arc(1, 0, 4, 1)   # mean 3
        g.add_arc(2, 2, 5, 1)   # mean 5
        result = max_cycle_mean(g)
        assert result.ratio == 5
        assert result.cycle_nodes == [2]

    def test_karp_acyclic(self):
        g = BiValuedGraph(2)
        g.add_arc(0, 1, 9, 1)
        assert max_cycle_mean(g).is_acyclic

    def test_karp_ignores_transit(self):
        g = BiValuedGraph(1)
        g.add_arc(0, 0, 8, Fraction(99))
        assert max_cycle_mean(g).ratio == 8  # mean over 1 arc
