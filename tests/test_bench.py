"""Unit tests for the bench harness (runner, reporting, table drivers)."""

from fractions import Fraction

import pytest

from repro.bench import format_table, run_method
from repro.bench.runner import MethodOutcome
from repro.bench.table1 import run_table1, format_table1
from repro.bench.table2 import (
    format_table2,
    run_table2,
    tightest_live_bounding,
)
from repro.generators.csdf_apps import jpeg2000
from repro.model import sdf


@pytest.fixture
def cycle():
    return sdf({"A": 1, "B": 1},
               [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])


class TestRunner:
    def test_ok_outcome(self, cycle):
        outcome = run_method("kiter", cycle, budget=10)
        assert outcome.ok
        assert outcome.period == 2

    def test_all_methods_run(self, cycle):
        for method in ("kiter", "kiter-fullq", "periodic", "symbolic",
                       "expansion", "expansion-full", "unfolding",
                       "maxplus"):
            assert run_method(method, cycle, budget=10).period == 2

    def test_unknown_method(self, cycle):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError, match="unknown method"):
            run_method("magic", cycle, budget=1)

    def test_conflicting_engine_spellings_rejected(self, cycle):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError, match="conflicting"):
            run_method("kiter@hybrid", cycle, budget=1, engine="karp")
        # agreeing spellings are fine
        assert run_method(
            "kiter@hybrid", cycle, budget=10, engine="hybrid"
        ).period == 2

    def test_deadlock_status(self, deadlocked_cycle):
        assert run_method(
            "kiter", deadlocked_cycle, budget=10
        ).status == "DEADLOCK"

    def test_ns_status(self):
        # periodic N/S on the live ns_ring fixture shape (tiny variant)
        from tests.test_kiter import TestInfeasibleKEscalation

        g = TestInfeasibleKEscalation()._tight_graph()
        assert run_method("periodic", g, budget=10).status == "N/S"
        assert run_method("kiter", g, budget=30).ok

    def test_timeout_status(self, cycle):
        from repro.generators.csdf_apps import pdetect

        outcome = run_method("kiter", pdetect(), budget=1e-9)
        assert outcome.status == "TIMEOUT"
        assert "> " in outcome.time_text()


class TestOutcomeFormatting:
    def test_time_text_ranges(self):
        assert MethodOutcome("OK", None, 0.0123).time_text() == "12.30ms"
        assert MethodOutcome("OK", None, 0.5).time_text() == "500ms"
        assert MethodOutcome("OK", None, 42.0).time_text() == "42.0s"

    def test_optimality_text(self):
        o = MethodOutcome("OK", Fraction(20), 0.1)
        assert o.optimality_text(Fraction(10)) == "50%"
        assert o.optimality_text(None) == "??%"
        assert MethodOutcome("N/S", None, 0.1).optimality_text(
            Fraction(1)
        ) == "N/S"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["a", "bbbb"], [["xx", "y"], ["1", "22222"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbbb" in lines[2]
        assert "-+-" in lines[3]  # header rule
        assert all("|" in line for line in lines[4:])


class TestTableDrivers:
    def test_table1_tiny(self):
        rows = run_table1(graphs_per_category=2, budget=10,
                          categories=("MimicDSP",))
        assert len(rows) == 1
        assert rows[0].disagreements == 0
        text = format_table1(rows)
        assert "MimicDSP" in text

    def test_table2_single_block(self):
        blocks = run_table2(budget=15, include_bounded=False,
                            include_synthetic=False)
        rows = blocks["no buffer size"]
        assert len(rows) == 5
        text = format_table2(blocks)
        assert "BlackScholes" in text

    def test_tightest_live_bounding(self):
        g = jpeg2000()
        bounded, scale = tightest_live_bounding(g)
        assert scale >= 1
        assert bounded.buffer_count > g.buffer_count
        from repro.analysis import is_live

        assert is_live(bounded)
