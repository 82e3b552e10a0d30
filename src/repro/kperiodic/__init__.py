"""K-periodic scheduling and the K-Iter algorithm (the paper's §3).

* :mod:`repro.kperiodic.expansion` — the ``G → G̃`` transformation that
  reduces K-periodic scheduling of ``G`` to 1-periodic scheduling of ``G̃``
  (Theorem 3).
* :mod:`repro.kperiodic.solver` — minimum period for a fixed periodicity
  vector K (Theorem 2 + MCRP).
* :mod:`repro.kperiodic.optimality` — the critical-circuit optimality test
  (Theorem 4).
* :mod:`repro.kperiodic.kiter` — Algorithm 1: iterate K until optimal,
  one lockstep round loop over any number of graphs (batched MCRP
  kernels); ``throughput_kiter`` is a fleet of one.
* :mod:`repro.kperiodic.fleet` — the payload driver: that loop over
  payload chunks, with engine fallback and outcome dicts.
* :mod:`repro.kperiodic.schedule` — concrete K-periodic schedules.
"""

from repro.kperiodic.expansion import (
    ExpansionBlockCache,
    compile_expansion,
    derive_expansion_blocks,
    expand_graph,
    expanded_repetition_vector,
    expansion_cache_for,
)
from repro.kperiodic.fleet import solve_fleet_payloads
from repro.kperiodic.kiter import (
    KIterMachine,
    KIterResult,
    solve_kiter_payload,
    throughput_kiter,
)
from repro.kperiodic.optimality import critical_qbar, optimality_test
from repro.kperiodic.schedule import KPeriodicSchedule
from repro.kperiodic.solver import KPeriodicResult, min_period_for_k

__all__ = [
    "ExpansionBlockCache",
    "compile_expansion",
    "derive_expansion_blocks",
    "expand_graph",
    "expanded_repetition_vector",
    "expansion_cache_for",
    "KIterMachine",
    "KIterResult",
    "solve_fleet_payloads",
    "solve_kiter_payload",
    "throughput_kiter",
    "critical_qbar",
    "optimality_test",
    "KPeriodicSchedule",
    "KPeriodicResult",
    "min_period_for_k",
]
