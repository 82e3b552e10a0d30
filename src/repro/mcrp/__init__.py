"""Maximum Cost-to-time Ratio Problem (MCRP) solvers.

Given a directed graph whose arcs carry a *cost* ``L(e)`` and a *transit
time* ``H(e)``, the maximum cycle ratio is

    ``λ* = max over elementary circuits c of  Σ L(e) / Σ H(e)``.

The paper (§3.3) reduces the minimum-period linear program of Theorem 2 to
an MCRP: ``Ω* = λ*`` and a critical circuit certifies the value.

Architecture
------------
All engines run on the **compiled core**: :meth:`BiValuedGraph.compile`
freezes the graph into CSR arc arrays with integer-scaled exact weights,
float shadow weights and numpy mirrors (:mod:`repro.mcrp.compiled`),
cached so the whole solve pipeline compiles once per graph. Engines
self-register in :mod:`repro.mcrp.registry`, which is the single engine
surface for the k-periodic solver, the CLI and the bench harness.

Engines (registry names)
------------------------
* ``ratio-iteration`` — the default *exact* engine: ascending
  cycle-ratio iteration with arbitrary-precision rationals; always
  returns a critical circuit and detects infeasibility (deadlock).
* ``hybrid`` — float Howard prefilter + single-probe exact
  certification; the compiled-core fast path for large graphs and the
  service default.
* ``karp`` — ascending iteration on a numpy-vectorized Karp-table
  oracle, structurally independent of the other two; the cycle-mean
  core also serves the HSDF expansion baseline (:func:`max_cycle_mean`).

The pure-Python oracles (``bellman._python_oracle``,
``karp._karp_python_oracle``) drive the same ascending iteration through
``max_cycle_ratio(graph, oracle=...)``; they are the small-graph and
no-numpy fallbacks and the reference rows of the engine benchmarks.
"""

from repro.mcrp.graph import (
    BiValuedGraph,
    CycleResult,
    FrozenBiValuedGraph,
    ScaledFractionView,
)
from repro.mcrp.compiled import CompiledGraph, compile_graph
from repro.mcrp.registry import (
    EngineInfo,
    all_engines,
    engine_names,
    get_engine,
    register_engine,
    solve_mcrp,
)
from repro.mcrp.ratio_iteration import max_cycle_ratio
from repro.mcrp.batched import (
    BatchedCompiledGraph,
    BatchedOutcome,
    batched_solve_mcrp,
)
from repro.mcrp.karp import max_cycle_mean, max_cycle_ratio_karp
from repro.mcrp.hybrid import max_cycle_ratio_hybrid
from repro.mcrp.decompose import max_cycle_ratio_sccs

__all__ = [
    "BatchedCompiledGraph",
    "BatchedOutcome",
    "BiValuedGraph",
    "CompiledGraph",
    "CycleResult",
    "EngineInfo",
    "FrozenBiValuedGraph",
    "ScaledFractionView",
    "all_engines",
    "batched_solve_mcrp",
    "compile_graph",
    "engine_names",
    "get_engine",
    "max_cycle_mean",
    "max_cycle_ratio",
    "max_cycle_ratio_hybrid",
    "max_cycle_ratio_karp",
    "max_cycle_ratio_sccs",
    "register_engine",
    "solve_mcrp",
]
