"""Consistency analysis: the repetition vector.

A CSDFG is *consistent* when there is a vector ``q ∈ (ℕ∖{0})^|T|`` with
``q_t · i_b = q_{t'} · o_b`` for every buffer ``b = (t, t')``. The minimal
such vector is the *repetition vector*: the number of iterations of each
task in one graph iteration that restores every buffer's token count.

The computation propagates exact rational rates over a spanning forest of
the (undirected) buffer graph, then verifies every balance equation —
including those of non-tree buffers. Each rate is a reduced integer
``(numerator, denominator)`` pair, multiplied by a buffer's ``i_b/o_b``
with ``math.gcd`` cross-reduction; Python integers are arbitrary
precision, so overflow is impossible (the paper notes it had to *fix*
SDF3's repetition-vector computation for exactly this reason).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.exceptions import InconsistentGraphError, ModelError
from repro.model.graph import CsdfGraph
from repro.utils.rational import normalize_pairs

#: A task's rate relative to its component's root, as a reduced
#: ``(numerator, denominator)`` pair of positive integers.
_Rate = Tuple[int, int]


def _rate_str(rate: _Rate) -> str:
    """``str(Fraction(*rate))`` of a reduced pair, without the Fraction."""
    num, den = rate
    return str(num) if den == 1 else f"{num}/{den}"


def _propagate_rates(
    graph: CsdfGraph,
) -> Tuple[Dict[str, _Rate], Dict[str, str]]:
    """Rates relative to each component's root, and each task's root.

    The first task (in graph order) of every weakly-connected component
    is its root, at rate 1; a DFS over the buffer graph carries
    ``rate(v) = rate(u) · i_b/o_b`` (or the inverse, against the buffer's
    direction) and raises :class:`InconsistentGraphError` on the first
    conflicting non-tree buffer.
    """
    rates: Dict[str, Optional[_Rate]] = {t.name: None for t in graph.tasks()}
    adjacency: Dict[str, List[Tuple[str, int, int]]] = {
        name: [] for name in rates
    }
    for b in graph.buffers():
        if b.is_self_loop():
            # A self-loop is consistent iff i_b == o_b; no rate information.
            if b.total_production != b.total_consumption:
                raise InconsistentGraphError(
                    f"self-loop buffer {b.name!r} produces "
                    f"{b.total_production} but consumes {b.total_consumption} "
                    "per iteration"
                )
            continue
        # q_src * i_b = q_dst * o_b  =>  q_dst = q_src * i_b / o_b.
        g = gcd(b.total_production, b.total_consumption)
        produced, consumed = b.total_production // g, b.total_consumption // g
        adjacency[b.source].append((b.target, produced, consumed))
        adjacency[b.target].append((b.source, consumed, produced))

    roots: Dict[str, str] = {}
    for root in rates:
        if rates[root] is not None:
            continue
        rates[root] = (1, 1)
        roots[root] = root
        stack = [root]
        while stack:
            u = stack.pop()
            num_u, den_u = rates[u]  # type: ignore[misc]
            for v, num_f, den_f in adjacency[u]:
                # rate(v) = rate(u) * num_f / den_f, reduced the way
                # Fraction.__mul__ does: cross-cancel both pairs.
                g1 = gcd(num_u, den_f)
                g2 = gcd(num_f, den_u)
                expected = (
                    (num_u // g1) * (num_f // g2),
                    (den_u // g2) * (den_f // g1),
                )
                current = rates[v]
                if current is None:
                    rates[v] = expected
                    roots[v] = root
                    stack.append(v)
                elif current != expected:
                    raise InconsistentGraphError(
                        f"rate conflict at task {v!r}: "
                        f"{_rate_str(current)} vs {_rate_str(expected)}"
                    )
    return rates, roots  # type: ignore[return-value]


def _scale_to_integers(rates: Dict[str, _Rate]) -> Dict[str, int]:
    """The smallest integer vector proportional to ``rates``, over the
    whole graph at once (not per component)."""
    return dict(zip(rates, normalize_pairs(list(rates.values()))))


def normalized_rates(graph: CsdfGraph) -> Dict[str, Fraction]:
    """Per-task firing rates as exact fractions, one component at a time.

    Within each weakly-connected component the rates are normalized so the
    smallest equals 1. Raises :class:`InconsistentGraphError` when the
    balance equations are unsolvable.

    Examples
    --------
    >>> from repro.model import sdf
    >>> g = sdf({"A": 1, "B": 1, "C": 1},
    ...         [("A", "B", 2, 3, 0), ("B", "C", 1, 2, 0)])
    >>> {name: str(rate) for name, rate in normalized_rates(g).items()}
    {'A': '3', 'B': '2', 'C': '1'}
    """
    if graph.task_count == 0:
        return {}
    rates, roots = _propagate_rates(graph)
    q = _scale_to_integers(rates)
    smallest: Dict[str, int] = {}
    for name, root in roots.items():
        if root not in smallest or q[name] < smallest[root]:
            smallest[root] = q[name]
    return {name: Fraction(q[name], smallest[roots[name]]) for name in q}


def repetition_vector(graph: CsdfGraph) -> Dict[str, int]:
    """The minimal repetition vector ``q`` of a consistent graph.

    Raises
    ------
    InconsistentGraphError
        If no repetition vector exists.
    ModelError
        If the graph has no task.

    Examples
    --------
    >>> from repro.model import sdf
    >>> g = sdf({"A": 1, "B": 1}, [("A", "B", 2, 3, 0)])
    >>> repetition_vector(g)
    {'A': 3, 'B': 2}
    """
    if graph.task_count == 0:
        raise ModelError("repetition vector of an empty graph is undefined")
    rates, _roots = _propagate_rates(graph)
    q = _scale_to_integers(rates)
    _verify_balance(graph, q)
    return q


def _verify_balance(graph: CsdfGraph, q: Dict[str, int]) -> None:
    """Check every balance equation (covers non-spanning-tree buffers)."""
    for b in graph.buffers():
        lhs = q[b.source] * b.total_production
        rhs = q[b.target] * b.total_consumption
        if lhs != rhs:
            raise InconsistentGraphError(
                f"buffer {b.name!r} violates balance: "
                f"q[{b.source}]*{b.total_production} = {lhs} != "
                f"{rhs} = q[{b.target}]*{b.total_consumption}"
            )
    if any(v <= 0 for v in q.values()):
        raise InconsistentGraphError(f"non-positive repetition entries in {q}")


#: Per-graph repetition vectors, keyed by the graph *object* (weakly) and
#: revalidated against the task/buffer counts — graphs are append-only,
#: so matching counts pin the exact structure the vector was solved for.
_REPETITION_CACHE: "weakref.WeakKeyDictionary[CsdfGraph, Tuple[Tuple[int, int], Dict[str, int]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_repetition_vector(graph: CsdfGraph) -> Dict[str, int]:
    """:func:`repetition_vector`, memoized per graph object.

    Solver entry points construct one :class:`KIterMachine` per payload
    and each re-derives ``q``; under service traffic the same parsed
    graph (the pool worker's LRU) is solved over and over, so the exact
    rational propagation is pure re-work. Returns a fresh dict each
    call — callers may hold it across their own mutations.
    """
    counts = (graph.task_count, graph.buffer_count)
    entry = _REPETITION_CACHE.get(graph)
    if entry is not None and entry[0] == counts:
        return dict(entry[1])
    q = repetition_vector(graph)
    try:
        _REPETITION_CACHE[graph] = (counts, dict(q))
    except TypeError:  # pragma: no cover - non-weakrefable graph stub
        pass
    return q


def is_consistent(graph: CsdfGraph) -> bool:
    """True when the graph admits a repetition vector."""
    try:
        repetition_vector(graph)
    except InconsistentGraphError:
        return False
    return True


def repetition_vector_sum(graph: CsdfGraph) -> int:
    """``Σ_t q_t`` — the instance-size proxy used by the paper's tables."""
    return sum(repetition_vector(graph).values())
