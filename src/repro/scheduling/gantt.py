"""ASCII Gantt charts (the paper's Figures 3 and 4).

Renders a list of :class:`~repro.scheduling.asap.FiringRecord` as one text
row per task, each firing drawn as ``[P#...`` boxes on a discrete time
axis. K-periodic schedules are converted to firing records first (their
start times are rational; rendering scales them to a common denominator).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.kperiodic.schedule import KPeriodicSchedule
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph
from repro.scheduling.asap import FiringRecord
from repro.utils.rational import lcm_list


def schedule_to_firings(
    schedule: KPeriodicSchedule,
    graph: CsdfGraph,
    horizon_iterations: int = 2,
) -> List[FiringRecord]:
    """Expand a K-periodic schedule into explicit firings.

    Rational start times are scaled by the lcm of their denominators so
    the records keep exact integer timestamps; the caller can read the
    scale from the ratio of record times to schedule times (rendering does
    not care).
    """
    from repro.analysis.consistency import repetition_vector

    q = repetition_vector(graph)
    denominators = [s.denominator for s in schedule.starts.values()]
    denominators += [p.denominator for p in schedule.task_periods.values()]
    scale = lcm_list(denominators) if denominators else 1
    records: List[FiringRecord] = []
    for t in graph.tasks():
        executions = horizon_iterations * q[t.name]
        for n in range(1, executions + 1):
            for p in range(1, t.phase_count + 1):
                start = schedule.start_time(t.name, p, n) * scale
                records.append(
                    FiringRecord(
                        task=t.name,
                        phase=p,
                        n=n,
                        start=int(start),
                        end=int(start) + t.duration(p) * scale,
                    )
                )
    records.sort(key=lambda r: (r.start, r.task, r.phase))
    return records


def policy_gantt(
    graph: CsdfGraph,
    policy: str = "asap",
    *,
    engine: str = DEFAULT_ENGINE,
    binding=None,
    horizon_iterations: int = 2,
    width: int = 100,
    label_phases: bool = True,
    **options,
) -> str:
    """Build a schedule with a registered policy and render it.

    One call takes any policy of :mod:`repro.scheduling.registry` to an
    ASCII chart — the CLI's ``repro gantt --policy`` path, and the
    reason the conformance suite can render every registered policy
    without per-policy glue.
    """
    from repro.scheduling.registry import build_schedule

    outcome = build_schedule(
        graph, policy, engine=engine, binding=binding, **options
    )
    records = schedule_to_firings(
        outcome.schedule, graph, horizon_iterations=horizon_iterations
    )
    chart = render_gantt(
        records, width=width, label_phases=label_phases
    )
    header = (
        f"policy={outcome.policy}  Ω = {outcome.omega}  "
        f"K={{{', '.join(f'{t}:{k}' for t, k in sorted(outcome.K.items()))}}}"
    )
    return header + "\n" + chart


def render_gantt(
    records: Sequence[FiringRecord],
    *,
    width: int = 100,
    task_order: Optional[List[str]] = None,
    label_phases: bool = True,
) -> str:
    """Render firings as an ASCII chart, one row per task.

    Zero-duration firings are drawn as ``|``; overlapping labels collapse
    to ``#``. The chart is clipped to ``width`` columns after scaling the
    time axis down to fit.
    """
    if not records:
        return "(empty schedule)"
    horizon = max(r.end for r in records)
    if task_order is None:
        task_order = []
        for r in records:
            if r.task not in task_order:
                task_order.append(r.task)
    # pick an integer downscale so horizon fits in `width` columns
    unit = max(1, -(-horizon // width))  # ceil division
    columns = -(-horizon // unit) + 1
    name_width = max(len(t) for t in task_order) + 1
    rows: Dict[str, List[str]] = {
        t: [" "] * columns for t in task_order
    }
    for r in records:
        if r.task not in rows:
            continue
        c0 = r.start // unit
        c1 = max(c0, (r.end - 1) // unit) if r.end > r.start else c0
        row = rows[r.task]
        if r.end == r.start:
            row[c0] = "|" if row[c0] == " " else "#"
            continue
        for c in range(c0, c1 + 1):
            if row[c] == " ":
                row[c] = "="
            else:
                row[c] = "#"
        if label_phases:
            label = f"{r.phase}"
            if row[c0] in ("=",):
                row[c0] = label[0]
    header_step = max(1, columns // 10)
    axis = [" "] * (name_width + columns)
    for c in range(0, columns, header_step):
        stamp = str(c * unit)
        pos = name_width + c
        for i, ch in enumerate(stamp):
            if pos + i < len(axis):
                axis[pos + i] = ch
    lines = ["".join(axis)]
    for t in task_order:
        lines.append(t.ljust(name_width) + "".join(rows[t]))
    return "\n".join(lines)
