"""The CSDF graph container.

``CsdfGraph`` is deliberately a plain container with validation: all the
analyses (consistency, liveness, throughput) live in :mod:`repro.analysis`,
:mod:`repro.kperiodic` and :mod:`repro.baselines` and take a graph as input.

The container checks, at insertion time, that rate-vector lengths match the
phase counts of the endpoint tasks — the single most common modelling
mistake with CSDF.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import ModelError
from repro.model.buffer import Buffer
from repro.model.task import Task


@lru_cache(maxsize=4096)
def _serialization_loop(task: str, phases: int) -> Buffer:
    """The all-ones, one-token self-loop of a task (immutable, shared)."""
    ones = (1,) * phases
    return Buffer(
        name=f"__serial_{task}",
        source=task,
        target=task,
        production=ones,
        consumption=ones,
        initial_tokens=1,
        serialization=True,
    )


#: Schema tag shared with :mod:`repro.io.json_format`.
DICT_FORMAT_TAG = "repro-csdf"
DICT_FORMAT_VERSION = 1


class CsdfGraph:
    """A directed multigraph of :class:`Task` nodes and :class:`Buffer` arcs.

    Examples
    --------
    >>> g = CsdfGraph("two-stage")
    >>> g.add_task(Task("A", (1,)))
    >>> g.add_task(Task("B", (2,)))
    >>> g.add_buffer(Buffer("ab", "A", "B", (2,), (1,), 0))
    >>> g.task_count, g.buffer_count
    (2, 1)
    """

    def __init__(self, name: str = "csdfg"):
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._buffers: Dict[str, Buffer] = {}
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> None:
        """Insert a task; its name must be fresh."""
        if task.name in self._tasks:
            raise ModelError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._out[task.name] = []
        self._in[task.name] = []

    def add_buffer(self, buffer: Buffer) -> None:
        """Insert a buffer; endpoints must exist and rate lengths match."""
        if buffer.name in self._buffers:
            raise ModelError(f"duplicate buffer name {buffer.name!r}")
        src = self._tasks.get(buffer.source)
        dst = self._tasks.get(buffer.target)
        if src is None:
            raise ModelError(
                f"buffer {buffer.name!r} references unknown source task "
                f"{buffer.source!r}"
            )
        if dst is None:
            raise ModelError(
                f"buffer {buffer.name!r} references unknown target task "
                f"{buffer.target!r}"
            )
        if len(buffer.production) != src.phase_count:
            raise ModelError(
                f"buffer {buffer.name!r}: production vector has "
                f"{len(buffer.production)} entries but task {src.name!r} has "
                f"{src.phase_count} phases"
            )
        if len(buffer.consumption) != dst.phase_count:
            raise ModelError(
                f"buffer {buffer.name!r}: consumption vector has "
                f"{len(buffer.consumption)} entries but task {dst.name!r} has "
                f"{dst.phase_count} phases"
            )
        self._buffers[buffer.name] = buffer
        self._out[buffer.source].append(buffer.name)
        self._in[buffer.target].append(buffer.name)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def task_count(self) -> int:
        return len(self._tasks)

    @property
    def buffer_count(self) -> int:
        return len(self._buffers)

    def tasks(self) -> Iterator[Task]:
        """Tasks in insertion order."""
        return iter(self._tasks.values())

    def task_names(self) -> List[str]:
        return list(self._tasks)

    def buffers(self) -> Iterator[Buffer]:
        """Buffers in insertion order."""
        return iter(self._buffers.values())

    def buffer_names(self) -> List[str]:
        return list(self._buffers)

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise ModelError(f"unknown task {name!r}") from None

    def buffer(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise ModelError(f"unknown buffer {name!r}") from None

    def has_task(self, name: str) -> bool:
        return name in self._tasks

    def has_buffer(self, name: str) -> bool:
        return name in self._buffers

    def out_buffers(self, task_name: str) -> List[Buffer]:
        """Buffers produced by ``task_name`` (insertion order)."""
        self.task(task_name)
        return [self._buffers[b] for b in self._out[task_name]]

    def in_buffers(self, task_name: str) -> List[Buffer]:
        """Buffers consumed by ``task_name`` (insertion order)."""
        self.task(task_name)
        return [self._buffers[b] for b in self._in[task_name]]

    def phase_count(self, task_name: str) -> int:
        return self.task(task_name).phase_count

    def total_phase_count(self) -> int:
        """``Σ_t ϕ(t)`` — node count of the K=1 constraint graph."""
        return sum(t.phase_count for t in self.tasks())

    def is_sdf(self) -> bool:
        """True when every task has a single phase (SDF special case)."""
        return all(t.is_sdf() for t in self.tasks())

    def is_hsdf(self) -> bool:
        """True for homogeneous SDF: single-phase and all rates equal 1."""
        return self.is_sdf() and all(
            b.production == (1,) and b.consumption == (1,) for b in self.buffers()
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "CsdfGraph":
        """A shallow structural copy (tasks/buffers are immutable)."""
        g = CsdfGraph(name or self.name)
        for t in self.tasks():
            g.add_task(t)
        for b in self.buffers():
            g.add_buffer(b)
        return g

    def with_serialization_loops(self) -> "CsdfGraph":
        """A copy where every task has an all-ones self-loop with one token.

        The self-loop forbids auto-concurrency and forces the phases of a
        task to execute in order: exactly the semantics assumed by the
        paper's schedules (the token is returned when a phase completes and
        claimed by the next phase). The loop is added even when a task has
        custom self-loops — constraints compose, and the event simulator
        enforces one-firing-at-a-time unconditionally, so analysis and
        simulation must agree. Only an already-present ``__serial_`` loop
        (idempotent call) is skipped.
        """
        g = self.copy(self.name)
        for loop in self._missing_serialization_loops():
            g.add_buffer(loop)
        return g

    def serialized_buffers(self) -> List[Buffer]:
        """The buffers of :meth:`with_serialization_loops`, in order.

        The same list the copy's :meth:`buffers` yields, without
        building the copy.
        """
        return [*self._buffers.values(), *self._missing_serialization_loops()]

    def _missing_serialization_loops(self) -> List[Buffer]:
        return [
            _serialization_loop(t.name, t.phase_count)
            for t in self.tasks()
            if f"__serial_{t.name}" not in self._buffers
        ]

    def without_serialization_loops(self) -> "CsdfGraph":
        """Inverse of :meth:`with_serialization_loops` (drops flagged loops)."""
        g = CsdfGraph(self.name)
        for t in self.tasks():
            g.add_task(t)
        for b in self.buffers():
            if not b.serialization:
                g.add_buffer(b)
        return g

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self, *, canonical: bool = False) -> Dict[str, Any]:
        """Plain-dict form of the graph (the native JSON schema).

        With ``canonical=True`` tasks are sorted by name and buffers by
        their structural content, so two graphs that differ only in
        insertion order serialize identically — the property the service
        layer's content-addressed digests rely on. ``canonical=False``
        preserves insertion order (diff-friendly, matches the historical
        on-disk files).

        Examples
        --------
        >>> g = CsdfGraph("g")
        >>> g.add_task(Task("B", (1,)))
        >>> g.add_task(Task("A", (2,)))
        >>> [t["name"] for t in g.to_dict()["tasks"]]
        ['B', 'A']
        >>> [t["name"] for t in g.to_dict(canonical=True)["tasks"]]
        ['A', 'B']
        """
        tasks = [
            {"name": t.name, "durations": list(t.durations)}
            for t in self.tasks()
        ]
        buffers = []
        for b in self.buffers():
            entry: Dict[str, Any] = {
                "name": b.name,
                "source": b.source,
                "target": b.target,
                "production": list(b.production),
                "consumption": list(b.consumption),
                "initial_tokens": b.initial_tokens,
            }
            if b.serialization:
                entry["serialization"] = True
            buffers.append(entry)
        if canonical:
            tasks.sort(key=lambda t: t["name"])
            buffers.sort(
                key=lambda e: (
                    e["source"], e["target"], e["production"],
                    e["consumption"], e["initial_tokens"], e["name"],
                )
            )
        return {
            "format": DICT_FORMAT_TAG,
            "version": DICT_FORMAT_VERSION,
            "name": self.name,
            "tasks": tasks,
            "buffers": buffers,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CsdfGraph":
        """Inverse of :meth:`to_dict` (validates the schema tag)."""
        fmt = payload.get("format", DICT_FORMAT_TAG)
        if fmt != DICT_FORMAT_TAG:
            raise ModelError(
                f"not a {DICT_FORMAT_TAG} document (format={fmt!r})"
            )
        version = payload.get("version", DICT_FORMAT_VERSION)
        if version != DICT_FORMAT_VERSION:
            raise ModelError(f"unsupported version {version!r}")
        graph = cls(payload.get("name", "csdfg"))
        for t in payload.get("tasks", []):
            graph.add_task(Task(t["name"], tuple(t["durations"])))
        for b in payload.get("buffers", []):
            graph.add_buffer(
                Buffer(
                    name=b["name"],
                    source=b["source"],
                    target=b["target"],
                    production=tuple(b["production"]),
                    consumption=tuple(b["consumption"]),
                    initial_tokens=b.get("initial_tokens", 0),
                    serialization=b.get("serialization", False),
                )
            )
        return graph

    # ------------------------------------------------------------------
    # Dunder / reporting
    # ------------------------------------------------------------------
    def __contains__(self, task_name: str) -> bool:
        return task_name in self._tasks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsdfGraph({self.name!r}, tasks={self.task_count}, "
            f"buffers={self.buffer_count})"
        )

    def summary(self) -> str:
        """A short human-readable description used by examples and benches."""
        lines = [f"graph {self.name}: {self.task_count} tasks, "
                 f"{self.buffer_count} buffers"]
        for t in self.tasks():
            lines.append(f"  task {t.name}: d={list(t.durations)}")
        for b in self.buffers():
            lines.append(
                f"  buffer {b.name}: {b.source}->{b.target} "
                f"in={list(b.production)} out={list(b.consumption)} "
                f"M0={b.initial_tokens}"
            )
        return "\n".join(lines)
