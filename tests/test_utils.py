"""Unit tests for repro.utils (rational helpers, timing budgets)."""

import time
from fractions import Fraction

import pytest

from repro.exceptions import BudgetExceededError
from repro.utils import (
    Stopwatch,
    TimeBudget,
    ceil_to_multiple,
    floor_to_multiple,
    gcd_list,
    lcm_list,
    normalize_fractions,
    normalize_pairs,
)
from repro.utils.rational import as_fraction, ceil_div, floor_div


class TestDivisions:
    def test_floor_div_negative(self):
        assert floor_div(-7, 2) == -4
        assert floor_div(7, 2) == 3

    def test_ceil_div_negative(self):
        assert ceil_div(-7, 2) == -3
        assert ceil_div(7, 2) == 4
        assert ceil_div(6, 3) == 2


class TestGcdLcm:
    def test_gcd_list(self):
        assert gcd_list([12, 18, 24]) == 6
        assert gcd_list([]) == 0
        assert gcd_list([0, 5]) == 5

    def test_lcm_list(self):
        assert lcm_list([4, 6]) == 12
        assert lcm_list([]) == 1
        assert lcm_list([7]) == 7

    def test_lcm_zero_rejected(self):
        with pytest.raises(ValueError):
            lcm_list([2, 0])


class TestNormalizeFractions:
    def test_minimal_integers(self):
        values = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        assert normalize_fractions(values) == [2, 3, 4]

    def test_already_integral(self):
        assert normalize_fractions([Fraction(4), Fraction(6)]) == [2, 3]

    def test_empty(self):
        assert normalize_fractions([]) == []

    def test_pairs_match_fractions(self):
        big = 2**89 - 1
        values = [Fraction(big, 3), Fraction(5, big), Fraction(7, 6)]
        pairs = [(v.numerator, v.denominator) for v in values]
        assert normalize_pairs(pairs) == normalize_fractions(values)
        assert normalize_pairs([]) == []


class TestAsFraction:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == 3
        assert as_fraction("2/7") == Fraction(2, 7)
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestTiming:
    def test_stopwatch_context(self):
        with Stopwatch() as watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.005

    def test_stopwatch_lap_requires_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().lap()

    def test_budget_unlimited(self):
        budget = TimeBudget(None)
        budget.check()  # never raises
        assert budget.remaining() is None
        assert not budget.exhausted()

    def test_budget_exhaustion(self):
        budget = TimeBudget(1e-9, label="tiny")
        time.sleep(0.002)
        assert budget.exhausted()
        with pytest.raises(BudgetExceededError) as err:
            budget.check()
        assert "tiny" in str(err.value)
        assert err.value.elapsed is not None

    def test_budget_remaining_decreases(self):
        budget = TimeBudget(10.0)
        first = budget.remaining()
        time.sleep(0.002)
        assert budget.remaining() < first


class TestDoctests:
    def test_module_doctests(self):
        """Run the doctest examples embedded in key public modules."""
        import doctest

        import repro.analysis.bounds
        import repro.analysis.consistency
        import repro.analysis.liveness
        import repro.baselines.expansion
        import repro.baselines.periodic
        import repro.baselines.unfolding
        import repro.kperiodic.expansion
        import repro.kperiodic.kiter
        import repro.kperiodic.optimality
        import repro.model.builder
        import repro.model.buffer
        import repro.model.task
        import repro.utils.rational

        failures = 0
        for module in (
            repro.model.task,
            repro.model.buffer,
            repro.model.builder,
            repro.analysis.consistency,
            repro.analysis.liveness,
            repro.analysis.bounds,
            repro.kperiodic.expansion,
            repro.kperiodic.optimality,
            repro.kperiodic.kiter,
            repro.baselines.periodic,
            repro.baselines.expansion,
            repro.baselines.unfolding,
        ):
            result = doctest.testmod(module, verbose=False)
            failures += result.failed
        assert failures == 0
