"""The MCRP engine registry: one surface for every solver consumer.

Engines register themselves with :func:`register_engine` at module
import; the k-periodic solver, the CLI, the bench harness and the
ablation benchmarks all enumerate the same table instead of wiring up
private engine dicts. Each entry carries capability metadata so the
shared solve pipeline (:func:`solve_mcrp`) knows how to drive the
engine:

``exact``
    The returned ``CycleResult.ratio`` is the exact ``λ*`` (every
    built-in engine is exact; float phases are prefilters only).
``float_prefilter``
    The engine runs a float phase before exact certification (Howard,
    hybrid) — useful for benchmark grouping.
``supports_scc``
    The engine may be run per strongly connected component by
    :func:`repro.mcrp.decompose.max_cycle_ratio_sccs`.
``supports_lower_bound``
    The engine accepts a certified ``lower_bound=`` keyword to warm
    start from.
``quadratic``
    The engine's oracle is Θ(nm) per probe (Karp) — benchmark drivers
    keep such engines off the largest instances.
``vectorized``
    The engine's hot path runs over the compiled core's numpy arrays
    when they are available (``hybrid``, ``karp``, ``ratio-iteration``);
    engines without the flag are pinned to pure-Python loops and serve
    as ablation baselines (``bellman``, ``karp-python``).
``batched``
    The engine has a fleet kernel in :mod:`repro.mcrp.batched`: whole
    chunks of compiled graphs are stacked into one super-CSR and every
    ``maximum.reduceat`` sweep advances all of them at once. The service
    pool routes eligible chunks through it; engines without the flag
    always solve one graph at a time.

Adding an engine
----------------
Write a function with the :func:`repro.mcrp.max_cycle_ratio` contract
(takes a ``BiValuedGraph``, returns a ``CycleResult``, raises
``DeadlockError`` on infeasible constraint cycles) and decorate it::

    from repro.mcrp.registry import register_engine

    @register_engine("my-engine", supports_lower_bound=True,
                     summary="one-line description")
    def max_cycle_ratio_mine(graph, *, lower_bound=None):
        ...

Import the defining module from :mod:`repro.mcrp` so registration
happens on package import, and the engine becomes selectable everywhere
(``min_period_for_k(..., engine="my-engine")``, ``repro throughput
--engine my-engine``, the cross-engine property tests).

Out-of-tree engines need no edits here: ship the module in a
distribution exposing it under the ``repro.engines`` entry-point group,
or list it in the ``REPRO_ENGINE_MODULES`` environment variable
(comma-separated module paths); both are imported lazily on the first
registry lookup (see ``_load_plugin_engines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import SolverError
from repro.mcrp.graph import BiValuedGraph, CycleResult


@dataclass(frozen=True)
class EngineInfo:
    """Registry entry: the solve callable plus capability metadata.

    Examples
    --------
    >>> from repro.mcrp.registry import get_engine
    >>> info = get_engine("karp")
    >>> info.name, info.exact, info.quadratic, info.vectorized
    ('karp', True, True, True)
    >>> get_engine("karp-python").vectorized
    False
    """

    name: str
    solve: Callable[..., CycleResult]
    exact: bool = True
    float_prefilter: bool = False
    supports_scc: bool = True
    supports_lower_bound: bool = False
    quadratic: bool = False
    vectorized: bool = False
    batched: bool = False
    summary: str = ""


#: The engine every library entry point and CLI verb uses unless told
#: otherwise (the service layer defaults to ``hybrid`` and falls back
#: to this one).
DEFAULT_ENGINE = "ratio-iteration"

_REGISTRY: Dict[str, EngineInfo] = {}
_PLUGINS_LOADED = False

#: Entry-point group and environment variable scanned for out-of-tree
#: engines (see ``_load_plugin_engines``).
PLUGIN_ENTRY_POINT_GROUP = "repro.engines"
PLUGIN_ENV_VAR = "REPRO_ENGINE_MODULES"


def register_engine(
    name: str,
    *,
    exact: bool = True,
    float_prefilter: bool = False,
    supports_scc: bool = True,
    supports_lower_bound: bool = False,
    quadratic: bool = False,
    vectorized: bool = False,
    batched: bool = False,
    summary: str = "",
):
    """Class-of-service decorator registering an MCRP engine by name."""

    def decorator(fn: Callable[..., CycleResult]) -> Callable[..., CycleResult]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate MCRP engine name {name!r}")
        _REGISTRY[name] = EngineInfo(
            name=name,
            solve=fn,
            exact=exact,
            float_prefilter=float_prefilter,
            supports_scc=supports_scc,
            supports_lower_bound=supports_lower_bound,
            quadratic=quadratic,
            vectorized=vectorized,
            batched=batched,
            summary=summary,
        )
        return fn

    return decorator


def _ensure_builtins() -> None:
    """Import the engine modules so their decorators have run."""
    import repro.mcrp  # noqa: F401  (package import registers everything)

    global _PLUGINS_LOADED
    if not _PLUGINS_LOADED:
        # Flag only flips on success: a broken plugin keeps raising on
        # every lookup instead of silently degrading to the built-ins.
        _load_plugin_engines()
        _PLUGINS_LOADED = True


def _load_plugin_engines() -> None:
    """Import out-of-tree engine modules (the plugin contract).

    Two discovery channels, both resolved once, lazily, on the first
    registry lookup:

    * the ``repro.engines`` entry-point group — a distribution ships
      ``[project.entry-points."repro.engines"] myengine = "mypkg.engine"``
      and its module's :func:`register_engine` decorators run on load;
    * the ``REPRO_ENGINE_MODULES`` environment variable — a
      comma-separated list of importable module paths, for plugins that
      are not installed distributions (notebooks, vendored code).

    A plugin that fails to import raises :class:`SolverError`
    immediately: a misconfigured engine source must not silently
    degrade to the built-ins.
    """
    import importlib
    import os

    for name in os.environ.get(PLUGIN_ENV_VAR, "").split(","):
        name = name.strip()
        if not name:
            continue
        try:
            importlib.import_module(name)
        except Exception as exc:
            raise SolverError(
                f"failed to import engine plugin module {name!r} "
                f"(from ${PLUGIN_ENV_VAR}): {exc}"
            ) from exc
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8
        return
    try:
        points = entry_points(group=PLUGIN_ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - py<3.10 dict API
        points = entry_points().get(PLUGIN_ENTRY_POINT_GROUP, [])
    for point in points:
        try:
            point.load()
        except Exception as exc:
            raise SolverError(
                f"failed to load engine plugin entry point "
                f"{point.name!r}: {exc}"
            ) from exc


def engine_names() -> List[str]:
    """Sorted names of every registered engine.

    Examples
    --------
    >>> from repro.mcrp.registry import engine_names
    >>> [n for n in engine_names() if n.startswith("karp")]
    ['karp', 'karp-python']
    >>> "hybrid" in engine_names()
    True
    """
    _ensure_builtins()
    return sorted(_REGISTRY)


def all_engines() -> List[EngineInfo]:
    """Every registry entry, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_engine(name: str) -> EngineInfo:
    """Look up an engine; :class:`SolverError` names the choices on a miss."""
    _ensure_builtins()
    info = _REGISTRY.get(name)
    if info is None:
        raise SolverError(
            f"unknown MCRP engine {name!r}; choose from {sorted(_REGISTRY)}"
        )
    return info


def solve_mcrp(
    graph: BiValuedGraph,
    engine: Union[str, EngineInfo] = DEFAULT_ENGINE,
    *,
    lower_bound: Optional[Fraction] = None,
    decompose: bool = True,
) -> CycleResult:
    """Solve the MCRP with a named engine through the shared pipeline.

    Applies the SCC sweep with champion pruning when the engine supports
    it; ``lower_bound`` (a certified lower bound on ``λ*``) always seeds
    the pruning champion, and additionally warm-starts the engine when
    it accepts bounds.

    Examples
    --------
    >>> from fractions import Fraction
    >>> from repro.mcrp.graph import BiValuedGraph
    >>> from repro.mcrp.registry import solve_mcrp
    >>> g = BiValuedGraph(2)
    >>> _ = g.add_arc(0, 1, 3, 1)
    >>> _ = g.add_arc(1, 0, 1, 1)     # cycle ratio (3+1)/(1+1) = 2
    >>> solve_mcrp(g, "karp").ratio
    Fraction(2, 1)
    >>> solve_mcrp(g, "hybrid").ratio == solve_mcrp(g, "bellman").ratio
    True
    """
    info = get_engine(engine) if isinstance(engine, str) else engine
    if decompose and info.supports_scc:
        from repro.mcrp.decompose import max_cycle_ratio_sccs

        return max_cycle_ratio_sccs(
            graph, engine=info, lower_bound=lower_bound
        )
    if info.supports_lower_bound and lower_bound is not None:
        return info.solve(graph, lower_bound=lower_bound)
    return info.solve(graph)
