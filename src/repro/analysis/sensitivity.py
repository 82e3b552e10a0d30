"""Throughput sensitivity: which task durations actually matter?

Design-space exploration wants to know where optimization effort pays:
speeding up a task *off* every critical circuit changes nothing, while
on-circuit tasks trade cycle ratio directly. Two exact tools:

* :func:`critical_tasks` — tasks on a certified critical circuit (the
  K-Iter by-product);
* :func:`duration_sensitivity` — exact finite differences: re-evaluate
  the period with each task's durations scaled down/up, reporting the
  gain/loss per task. Brute force but exact, and K-Iter is fast enough
  to make it practical — the paper's "throughput evaluation as a
  decision function" argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from repro.dse.session import DseSession
from repro.exceptions import ModelError
from repro.kperiodic.kiter import throughput_kiter
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph


def critical_tasks(graph: CsdfGraph, *, engine: str = DEFAULT_ENGINE):
    """Tasks on the certified critical circuit at the optimum."""
    return throughput_kiter(graph, engine=engine).critical_tasks


@dataclass(frozen=True)
class TaskSensitivity:
    """Effect of scaling one task's durations on the exact period."""

    task: str
    base_period: Fraction
    period_when_faster: Fraction   # durations halved (floor, min 0)
    period_when_slower: Fraction   # durations doubled

    @property
    def speedup_gain(self) -> Fraction:
        """Period reduction from halving the task's durations."""
        return self.base_period - self.period_when_faster

    @property
    def slowdown_cost(self) -> Fraction:
        return self.period_when_slower - self.base_period

    @property
    def is_critical(self) -> bool:
        """Slowing the task down must hurt iff it binds somewhere."""
        return self.slowdown_cost > 0


def duration_sensitivity(
    graph: CsdfGraph,
    *,
    tasks: Optional[List[str]] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, TaskSensitivity]:
    """Exact per-task sensitivity of the period (halve / double).

    Examples
    --------
    >>> from repro.model import sdf
    >>> g = sdf({"A": 8, "B": 2},
    ...         [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
    >>> s = duration_sensitivity(g)
    >>> s["A"].speedup_gain, s["B"].speedup_gain
    (Fraction(4, 1), Fraction(1, 1))
    """
    # One DseSession for the whole 2N+1 sweep: each probe edits one
    # task's durations, recomputing only that task's outgoing blocks,
    # and the doubled probe rides the previous λ* as a warm seed (a
    # slowdown cannot lower the period). Exactness is unchanged —
    # every probe's period is bit-identical to a cold solve (pinned by
    # tests/test_dse.py).
    session = DseSession(graph, engine=engine)
    base = session.solve().period
    if base is None:
        raise ModelError("sensitivity undefined for unbounded throughput")
    names = tasks if tasks is not None else graph.task_names()
    out: Dict[str, TaskSensitivity] = {}
    for name in names:
        original = graph.task(name).durations  # validates the name
        session.set_durations(name, tuple(d // 2 for d in original))
        faster = session.solve().period
        session.set_durations(name, tuple(d * 2 for d in original))
        slower = session.solve().period
        session.set_durations(name, original)
        out[name] = TaskSensitivity(
            task=name,
            base_period=base,
            period_when_faster=faster,
            period_when_slower=slower,
        )
    return out
