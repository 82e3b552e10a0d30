"""Unit tests for min_period_for_k (Theorem 2 + MCRP + schedules)."""

from fractions import Fraction

import pytest

from repro.analysis import repetition_vector
from repro.exceptions import DeadlockError, SolverError
from repro.generators.paper import figure2_graph
from repro.kperiodic import min_period_for_k
from repro.model import csdf, sdf


class TestSingleTask:
    def test_utilization_bound(self):
        # serialization alone forces Ω ≥ q_t · Σ d = 1·5
        g = sdf({"A": 5}, [])
        r = min_period_for_k(g, {"A": 1})
        assert r.omega == 5
        assert r.critical_tasks == {"A"}

    def test_multiphase_utilization(self):
        g = csdf({"A": [2, 3, 4]}, [])
        assert min_period_for_k(g, {"A": 1}).omega == 9

    def test_k_does_not_change_pure_utilization(self):
        g = csdf({"A": [2, 3]}, [])
        assert min_period_for_k(g, {"A": 1}).omega == 5
        assert min_period_for_k(g, {"A": 4}).omega == 5


class TestTwoTaskCycle:
    def test_unit_cycle(self, two_task_cycle):
        r = min_period_for_k(two_task_cycle, {"A": 1, "B": 1})
        assert r.omega == 2

    def test_deadlock_raises_with_tasks(self, deadlocked_cycle):
        with pytest.raises(DeadlockError) as err:
            min_period_for_k(deadlocked_cycle, {"A": 1, "B": 1})
        assert err.value.critical_tasks == {"A", "B"}

    def test_k_improves_multirate_cycle(self, multirate_cycle):
        # q = [3, 2]: the 1-periodic bound is pessimistic, K = q exact
        q = repetition_vector(multirate_cycle)
        loose = min_period_for_k(multirate_cycle, {"A": 1, "B": 1}).omega
        tight = min_period_for_k(multirate_cycle, q).omega
        assert tight <= loose

    def test_monotone_in_k(self, multirate_cycle):
        # refining K never worsens the optimal period
        omega_11 = min_period_for_k(multirate_cycle, {"A": 1, "B": 1}).omega
        omega_31 = min_period_for_k(multirate_cycle, {"A": 3, "B": 1}).omega
        omega_32 = min_period_for_k(multirate_cycle, {"A": 3, "B": 2}).omega
        assert omega_32 <= omega_31 <= omega_11


class TestSchedules:
    def test_schedule_achieves_omega(self, multirate_cycle):
        r = min_period_for_k(multirate_cycle, {"A": 1, "B": 1})
        s = r.schedule
        assert s is not None
        assert s.omega == r.omega
        s.verify(multirate_cycle, iterations=4)

    def test_schedule_start_extrapolation(self, two_task_cycle):
        s = min_period_for_k(two_task_cycle, {"A": 1, "B": 1}).schedule
        mu = s.task_periods["A"]
        assert s.start_time("A", 1, 5) == s.start_time("A", 1, 1) + 4 * mu

    def test_schedule_skipped_when_not_requested(self, two_task_cycle):
        r = min_period_for_k(
            two_task_cycle, {"A": 1, "B": 1}, build_schedule=False
        )
        assert r.schedule is None

    def test_k_periodic_schedule_verifies(self, multirate_cycle):
        q = repetition_vector(multirate_cycle)
        r = min_period_for_k(multirate_cycle, q)
        r.schedule.verify(multirate_cycle, iterations=4)

    def test_figure2_schedules_verify_at_each_k(self):
        g = figure2_graph()
        for K in (
            {"A": 1, "B": 1, "C": 1, "D": 1},
            {"A": 3, "B": 1, "C": 6, "D": 1},
            {"A": 3, "B": 4, "C": 6, "D": 1},
        ):
            r = min_period_for_k(g, K)
            r.schedule.verify(g, iterations=3)


class TestResultMetadata:
    def test_graph_sizes_reported(self, multirate_cycle):
        r = min_period_for_k(multirate_cycle, {"A": 3, "B": 2})
        # expanded phases: 3·1 + 2·1 = 5 nodes
        assert r.graph_nodes == 5
        assert r.graph_arcs > 0

    def test_throughput_inverse(self, two_task_cycle):
        r = min_period_for_k(two_task_cycle, {"A": 1, "B": 1})
        assert r.throughput == Fraction(1, 2)

    def test_unknown_engine_rejected(self, two_task_cycle):
        with pytest.raises(SolverError):
            min_period_for_k(two_task_cycle, {"A": 1, "B": 1}, engine="nope")

    @pytest.mark.parametrize(
        "engine", ["ratio-iteration", "karp", "howard", "lawler"])
    def test_engines_agree(self, multirate_cycle, engine, reference_engines):
        r = min_period_for_k(multirate_cycle, {"A": 1, "B": 1}, engine=engine)
        assert r.omega == min_period_for_k(
            multirate_cycle, {"A": 1, "B": 1}
        ).omega


class TestTheorem3Normalization:
    def test_expanded_period_is_lcm_multiple(self, multirate_cycle):
        K = {"A": 3, "B": 2}
        r = min_period_for_k(multirate_cycle, K)
        assert r.omega_expanded == r.omega * 6  # lcm(3,2)
