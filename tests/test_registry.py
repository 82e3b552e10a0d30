"""The compiled core and the engine registry, cross-checked end to end.

Three layers of guarantees:

* **registry** — exactly the three built-in engines are registered
  with a name, a solve callable and a summary, unknown names fail with
  the choice list, and every engine is reachable from the k-periodic
  solver, K-Iter, the bench runner and the CLI;
* **cross-engine property** — on a corpus of random live SDF/CSDF
  graphs, every registered engine returns the *same exact* ``λ*`` on
  the 1-periodic constraint graph and a critical circuit whose exact
  ``Σ L / Σ H`` equals that ratio;
* **compiled core** — ``BiValuedGraph.compile()`` round-trips the arc
  data exactly, takes the integer fast path when all weights are
  integral, and is cached until mutation.
"""

from fractions import Fraction

import pytest

from repro.analysis import build_constraint_graph
from repro.exceptions import SolverError
from repro.kperiodic import min_period_for_k, throughput_kiter
from repro.mcrp import (
    BiValuedGraph,
    all_engines,
    engine_names,
    get_engine,
    max_cycle_ratio,
    solve_mcrp,
)
from tests.conftest import make_random_live_graph

BUILTIN_ENGINES = {"hybrid", "karp", "ratio-iteration"}
#: The built-ins plus the ``oracles.py`` solvers that the
#: ``reference_engines`` fixture registers.
REACH_ENGINES = sorted(BUILTIN_ENGINES | {"bellman", "howard", "lawler"})


# ----------------------------------------------------------------------
# registry surface
# ----------------------------------------------------------------------
def test_all_builtin_engines_registered():
    assert engine_names() == sorted(BUILTIN_ENGINES)


def test_engine_metadata_is_sane():
    from dataclasses import fields

    from repro.mcrp.registry import EngineInfo

    assert [f.name for f in fields(EngineInfo)] == ["name", "solve", "summary"]
    for info in all_engines():
        assert callable(info.solve)
        assert info.summary


def test_unknown_engine_everywhere():
    g = BiValuedGraph(1)
    with pytest.raises(SolverError, match="ratio-iteration"):
        solve_mcrp(g, "nope")
    with pytest.raises(SolverError, match="nope"):
        get_engine("nope")


def test_duplicate_registration_rejected():
    from repro.mcrp.registry import register_engine

    with pytest.raises(ValueError, match="duplicate"):
        register_engine("hybrid")(lambda g: None)


# ----------------------------------------------------------------------
# cross-engine property: identical exact λ*, consistent certificates
# ----------------------------------------------------------------------
_DEADLOCK = object()


def _outcome(solve, bi):
    """``λ*`` of ``bi`` under ``solve``, or the deadlock marker."""
    from repro.exceptions import DeadlockError

    try:
        return solve(bi).ratio
    except DeadlockError:
        return _DEADLOCK


@pytest.mark.parametrize("seed", range(20))
def test_all_engines_agree_on_random_graphs(seed):
    g = make_random_live_graph(seed, tasks=4 + seed % 4)
    bi, _ = build_constraint_graph(g)
    reference = _outcome(max_cycle_ratio, bi)
    for info in all_engines():
        outcome = _outcome(info.solve, bi)
        assert outcome is reference or outcome == reference, (
            f"engine {info.name} disagrees on seed {seed}: "
            f"{outcome} != {reference}"
        )
        if outcome is _DEADLOCK or outcome is None:
            continue
        # The critical circuit must certify the claimed ratio.
        result = info.solve(bi)
        bi.check_cycle(result.cycle_arcs)
        total_l, total_h = bi.cycle_values(result.cycle_arcs)
        assert Fraction(total_l, 1) / total_h == result.ratio


@pytest.mark.parametrize("seed", range(20))
def test_solve_mcrp_pipeline_agrees(seed):
    g = make_random_live_graph(seed + 50, tasks=5)
    bi, _ = build_constraint_graph(g)
    reference = _outcome(max_cycle_ratio, bi)
    for name in engine_names():
        outcome = _outcome(lambda b, n=name: solve_mcrp(b, n), bi)
        assert outcome is reference or outcome == reference, name


# ----------------------------------------------------------------------
# engine parity through the solver layers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", REACH_ENGINES)
def test_min_period_reachable_for_every_engine(
    engine, multirate_cycle, reference_engines,
):
    result = min_period_for_k(
        multirate_cycle, {"A": 1, "B": 1}, engine=engine
    )
    assert result.omega == Fraction(6, 1)


@pytest.mark.parametrize("engine", REACH_ENGINES)
@pytest.mark.parametrize("seed", [3, 11])
def test_kiter_reachable_for_every_engine(engine, seed, reference_engines):
    g = make_random_live_graph(seed, tasks=4)
    reference = throughput_kiter(g).period
    assert throughput_kiter(g, engine=engine).period == reference


@pytest.mark.parametrize("engine", REACH_ENGINES)
def test_bench_runner_enumerates_registry(
    engine, two_task_cycle, reference_engines,
):
    from repro.bench.runner import method_names, run_method

    assert f"kiter@{engine}" in method_names()
    outcome = run_method(f"kiter@{engine}", two_task_cycle, budget=30.0)
    assert outcome.ok and outcome.period == 2


def test_cli_engines_subcommand(capsys):
    from repro.cli import main

    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_ENGINES:
        assert name in out


def test_cli_throughput_engine_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.io import save_graph
    from tests.conftest import make_random_live_graph as factory

    g = factory(7, tasks=4)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    assert main(["throughput", str(path), "--engine", "hybrid"]) == 0
    assert "engine: hybrid" in capsys.readouterr().out


# ----------------------------------------------------------------------
# compiled core
# ----------------------------------------------------------------------
def _fractional_graph() -> BiValuedGraph:
    g = BiValuedGraph(3)
    g.add_arc(0, 1, 3, Fraction(1, 2))
    g.add_arc(1, 2, 5, Fraction(-2, 3))
    g.add_arc(2, 0, 1, Fraction(7, 6))
    g.add_arc(1, 0, 0, Fraction(1, 1))
    return g


def test_compile_round_trips_exact_values():
    g = _fractional_graph()
    c = g.compile()
    assert c.node_count == 3 and c.arc_count == 4
    assert c.src == g.arc_src and c.dst == g.arc_dst
    for i in range(c.arc_count):
        assert Fraction(c.cost[i], c.scale) == g.arc_cost[i]
        assert Fraction(c.transit[i], c.scale) == g.arc_transit[i]
        assert c.cost_float[i] == pytest.approx(float(g.arc_cost[i]))
        assert c.transit_float[i] == pytest.approx(float(g.arc_transit[i]))
    # CSR adjacency matches the mutable graph's adjacency
    for v in range(3):
        assert sorted(c.out_arcs_of(v)) == sorted(g.out_arcs(v))
        span = range(c.indptr[v], c.indptr[v + 1])
        assert sorted(c.csr_arcs[i] for i in span) == sorted(g.out_arcs(v))


def test_compile_integer_fast_path():
    g = BiValuedGraph(2)
    g.add_arc(0, 1, 4, 1)
    g.add_arc(1, 0, 2, 3)
    c = g.compile()
    assert c.integral and c.scale == 1
    assert c.cost == [4, 2] and c.transit == [1, 3]
    frac = _fractional_graph().compile()
    assert not frac.integral and frac.scale == 6


def test_compile_parametric_weights_are_exact():
    g = _fractional_graph()
    c = g.compile()
    lam = Fraction(7, 5)
    weights = c.parametric_weights(lam.numerator, lam.denominator)
    bound = c.parametric_weight_bound(lam.numerator, lam.denominator)
    for i, w in enumerate(weights):
        # w / (b·scale) == L − λ·H exactly
        expected = g.arc_cost[i] - lam * g.arc_transit[i]
        assert Fraction(w, lam.denominator * c.scale) == expected
        assert abs(w) <= bound


def test_compile_cache_and_invalidation():
    g = _fractional_graph()
    c = g.compile()
    assert g.compile() is c  # cached
    g.add_arc(0, 2, 1, 1)
    c2 = g.compile()
    assert c2 is not c and c2.arc_count == 5
    # in-place edits require explicit invalidation
    g.arc_transit[0] = Fraction(9, 2)
    assert g.compile() is c2
    g.invalidate()
    c3 = g.compile()
    assert c3 is not c2
    assert Fraction(c3.transit[0], c3.scale) == Fraction(9, 2)


def test_huge_lambda_falls_back_cleanly():
    """A λ whose integers exceed int64 must not crash the fast path.

    With an all-zero cost column, λ's denominator does not show up in
    the weight bound, so the vectorized branch must gate on λ itself
    and fall back to the arbitrary-precision oracle.
    """
    from repro.mcrp.bellman import ScaledGraph, find_positive_cycle

    g = BiValuedGraph(70)
    for i in range(70):
        g.add_arc(i, (i + 1) % 70, 0, 1)  # zero costs, λ* = 0
    scaled = ScaledGraph(g)
    assert find_positive_cycle(scaled, 1, 1 << 70) is None
    assert find_positive_cycle(scaled, -(1 << 70), 1) is not None
    assert max_cycle_ratio(g, lower_bound=Fraction(1, 1 << 70)).ratio == 0


def test_compiled_numpy_mirrors_when_available():
    numpy = pytest.importorskip("numpy")
    g = BiValuedGraph(2)
    g.add_arc(0, 1, 4, 1)
    g.add_arc(1, 0, 2, 3)
    c = g.compile()
    assert c.np_cost is None  # lazily built
    assert c.ensure_numpy() and c.ensure_numpy()  # idempotent
    assert c.np_cost is not None
    assert c.np_cost.dtype == numpy.int64
    assert list(c.np_cost) == c.cost and list(c.np_transit) == c.transit
    # astronomically scaled weights must decline the int64 mirror
    big = BiValuedGraph(2)
    big.add_arc(0, 1, 1 << 70, 1)
    big.add_arc(1, 0, 1, 1)
    cb = big.compile()
    assert cb.ensure_numpy()  # topology/float mirrors still build
    assert cb.np_cost is None  # integer fast path soundly disabled
    assert max_cycle_ratio(big).ratio == Fraction((1 << 70) + 1, 2)


def test_plugin_engine_module_via_env_var(tmp_path, monkeypatch):
    """The REPRO_ENGINE_MODULES plugin channel registers at first lookup."""
    import sys

    from repro.mcrp import registry

    plugin = tmp_path / "plugin_engine_mod.py"
    plugin.write_text(
        "from repro.mcrp.ratio_iteration import max_cycle_ratio\n"
        "from repro.mcrp.registry import register_engine\n"
        "\n"
        "@register_engine('plugin-engine', summary='test plugin')\n"
        "def solve(graph, *, lower_bound=None):\n"
        "    return max_cycle_ratio(graph, lower_bound=lower_bound)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv(registry.PLUGIN_ENV_VAR, "plugin_engine_mod")
    monkeypatch.setattr(registry, "_PLUGINS_LOADED", False)
    try:
        assert "plugin-engine" in engine_names()
        g = make_random_live_graph(11)
        assert (
            throughput_kiter(g, engine="plugin-engine").period
            == throughput_kiter(g, engine="ratio-iteration").period
        )
    finally:
        registry._REGISTRY.pop("plugin-engine", None)
        sys.modules.pop("plugin_engine_mod", None)


def test_broken_plugin_module_raises_clearly(monkeypatch):
    from repro.mcrp import registry

    monkeypatch.setenv(registry.PLUGIN_ENV_VAR, "definitely_no_such_module")
    monkeypatch.setattr(registry, "_PLUGINS_LOADED", False)
    try:
        with pytest.raises(SolverError, match="definitely_no_such_module"):
            engine_names()
    finally:
        # a failed load must not latch: the next lookup (clean env) works
        monkeypatch.setenv(registry.PLUGIN_ENV_VAR, "")
        monkeypatch.setattr(registry, "_PLUGINS_LOADED", False)
        assert "hybrid" in engine_names()
