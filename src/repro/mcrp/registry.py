"""The MCRP engine registry: one surface for every solver consumer.

Engines register themselves with :func:`register_engine` at module
import; the k-periodic solver, the CLI, the bench harness and the
benchmarks all enumerate the same table instead of wiring up private
engine dicts. Two engines ship: ``ratio-iteration`` (the default) and
``karp`` (the structurally different oracle the corpus tools
cross-check with). Which of them have a fleet kernel is
:data:`repro.mcrp.batched.BATCHED_ORACLES`.

Adding an engine
----------------
Write a function with the :func:`repro.mcrp.max_cycle_ratio` contract
(takes a ``BiValuedGraph`` and a certified ``lower_bound=`` keyword,
which may be ``None``, to warm-start from; returns an exact
``CycleResult``; raises ``DeadlockError`` on infeasible constraint
cycles) and decorate it::

    from repro.mcrp.registry import register_engine

    @register_engine("my-engine", summary="one-line description")
    def max_cycle_ratio_mine(graph, *, lower_bound=None, start=None):
        ...

``start=`` is a :class:`~repro.mcrp.bellman.StartHint`: longest-path
potentials, one int64 per node in units of ``1/unit``, to start the
exact oracle's Jacobi sweeps from instead of zero. Any finite start is
sound — without a positive cycle the sweeps still reach a fixpoint
within ``n`` sweeps, and every returned cycle is verified exactly — so
an engine may ignore it. The pipeline passes ``start=`` only when a
hint exists: an engine taking ``lower_bound=`` alone serves every solve
outside a :class:`~repro.dse.DseSession`, whose failed certificate
replays hand their potentials on, so an engine used under a session
must accept the keyword.

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
    """Registry entry: the engine's name, solve callable and summary.

    Examples
    --------
    >>> from repro.mcrp.registry import get_engine
    >>> info = get_engine("karp")
    >>> info.name, info.solve.__name__
    ('karp', 'max_cycle_ratio_karp')
    """

    name: str
    solve: Callable[..., CycleResult]
    summary: str = ""


#: The engine every library entry point, the service layer and every
#: CLI verb use unless told otherwise.
DEFAULT_ENGINE = "ratio-iteration"

_REGISTRY: Dict[str, EngineInfo] = {}
_PLUGINS_LOADED = False

#: Entry-point group and environment variable scanned for out-of-tree
#: engines (see ``_load_plugin_engines``).
PLUGIN_ENTRY_POINT_GROUP = "repro.engines"
PLUGIN_ENV_VAR = "REPRO_ENGINE_MODULES"


def register_engine(name: str, *, summary: str = ""):
    """Class-of-service decorator registering an MCRP engine by name."""

    def decorator(fn: Callable[..., CycleResult]) -> Callable[..., CycleResult]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate MCRP engine name {name!r}")
        _REGISTRY[name] = EngineInfo(name=name, solve=fn, summary=summary)
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
    >>> engine_names()
    ['karp', 'ratio-iteration']
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
    start=None,
) -> CycleResult:
    """Solve the MCRP with a named engine through the shared pipeline.

    Runs the SCC sweep with champion pruning; ``lower_bound`` (a
    certified lower bound on ``λ*``) seeds the pruning champion and
    warm-starts the engine, and ``start`` (a
    :class:`~repro.mcrp.bellman.StartHint` over ``graph``'s nodes)
    starts its exact probes.

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
    >>> solve_mcrp(g).ratio == solve_mcrp(g, "karp").ratio
    True
    """
    from repro.mcrp.decompose import max_cycle_ratio_sccs

    info = get_engine(engine) if isinstance(engine, str) else engine
    return max_cycle_ratio_sccs(
        graph, engine=info.solve, lower_bound=lower_bound, start=start
    )
