"""Content-addressed throughput jobs.

A job is a graph plus everything that determines its exact answer: the
MCRP engine (and fallbacks), the K-update policy, the starting K vector
and the warm-start toggle. Two jobs with the same **digest** — the
SHA-256 of the canonical graph serialization and those parameters — have
identical certified results, so the service layer can deduplicate them
in-flight and serve repeats from the result cache without re-solving.

The digest is *semantic*: it hashes :meth:`CsdfGraph.to_dict`'s canonical
form, which sorts tasks and buffers, and it drops the graph and buffer
*names* (labels do not change ``λ*``; task names stay — the K vector is
keyed by them). Building the same graph in a different insertion order,
or loading it under a different file name, yields the same digest.

Budgets (``time_budget``, ``max_rounds``) are deliberately **excluded**
from the digest; in exchange, only deterministic outcomes (``OK`` and
``DEADLOCK``) are ever cached — a ``TIMEOUT`` under a small budget must
not poison a later, better-funded query.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph

#: Bump when the digest inputs or the outcome schema change shape, so a
#: stale on-disk cache can never satisfy a new-schema query.
CACHE_SCHEMA_VERSION = 3

#: Outcome statuses whose result is deterministic and therefore cacheable.
CACHEABLE_STATUSES = ("OK", "DEADLOCK")


def canonical_graph_dict(graph: Union[CsdfGraph, Mapping[str, Any]]) -> Dict[str, Any]:
    """The digest's view of a graph: canonical order, labels stripped."""
    payload = (
        graph.to_dict(canonical=True)
        if isinstance(graph, CsdfGraph)
        else CsdfGraph.from_dict(dict(graph)).to_dict(canonical=True)
    )
    tasks = [[t["name"], t["durations"]] for t in payload["tasks"]]
    buffers = sorted(
        [
            b["source"], b["target"], b["production"], b["consumption"],
            b["initial_tokens"], bool(b.get("serialization", False)),
        ]
        for b in payload["buffers"]
    )
    return {"v": CACHE_SCHEMA_VERSION, "tasks": tasks, "buffers": buffers}


def graph_digest(graph: Union[CsdfGraph, Mapping[str, Any]]) -> str:
    """Stable hex digest of a graph's semantic content."""
    return _sha(canonical_graph_dict(graph))


def _sha(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ThroughputJob:
    """One λ* query: a serialized graph plus the solve parameters.

    ``label`` is reporting-only (source file name, generator id, …) and
    never enters the digest.
    """

    graph_dict: Dict[str, Any]
    engine: str = DEFAULT_ENGINE
    fallback_engines: Tuple[str, ...] = ()
    update_policy: str = "lcm"
    initial_k: Optional[Dict[str, int]] = None
    max_rounds: int = 100_000
    time_budget: Optional[float] = None
    label: str = ""
    _digest: Optional[str] = field(default=None, repr=False, compare=False)
    _canonical: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )
    #: The graph this job decoded from its dict (``from_graph`` on a
    #: mapping), handed to an in-process solve so it never decodes the
    #: same dict again. ``None`` for a live graph the caller still owns.
    _graph: Optional[CsdfGraph] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_graph(
        cls,
        graph: Union[CsdfGraph, Mapping[str, Any]],
        **options: Any,
    ) -> "ThroughputJob":
        """A job for a live graph or a graph dict.

        A dict is decoded here, once: the digest hashes the decoded
        graph, the job keeps it for the solve, and ``graph_dict`` stays
        the caller's dict, so the payload is what they sent. Raises if
        the dict does not decode.
        """
        if isinstance(graph, CsdfGraph):
            graph_dict = graph.to_dict()
        else:
            graph_dict = dict(graph)
        options.setdefault("label", graph_dict.get("name", ""))
        job = cls(graph_dict=graph_dict, **options)
        if isinstance(graph, CsdfGraph):
            # Skip the defensive re-parse in canonical_graph_dict — the
            # dict came straight from a validated live graph.
            job._canonical = canonical_graph_dict(graph)
        else:
            job._graph = CsdfGraph.from_dict(graph_dict)
        return job

    def _canonical_form(self) -> Dict[str, Any]:
        if self._canonical is None:
            self._canonical = canonical_graph_dict(
                self._graph if self._graph is not None else self.graph_dict
            )
        return self._canonical

    @property
    def graph_digest(self) -> str:
        """Digest of the graph semantics alone (worker graph-reuse key)."""
        return _sha(self._canonical_form())

    @property
    def digest(self) -> str:
        """Content address: graph semantics + engine chain + K policy."""
        if self._digest is None:
            self._digest = _sha({
                "graph": self._canonical_form(),
                "engine": self.engine,
                "fallback_engines": list(self.fallback_engines),
                "update_policy": self.update_policy,
                "initial_k": sorted((self.initial_k or {}).items()),
            })
        return self._digest

    def payload(self) -> Dict[str, Any]:
        """The plain-dict form :func:`solve_kiter_payload` executes."""
        return {
            "graph": self.graph_dict,
            "engine": self.engine,
            "fallback_engines": list(self.fallback_engines),
            "update_policy": self.update_policy,
            "initial_k": self.initial_k,
            "max_rounds": self.max_rounds,
            "time_budget": self.time_budget,
            "digest": self.digest,
            "graph_digest": self.graph_digest,
        }


@dataclass
class JobOutcome:
    """Structured per-job result, JSON round-trippable.

    ``cache_hit`` is ``""`` for a fresh solve, ``"memory"`` / ``"disk"``
    for the tier that answered, and ``"batch"`` when an identical job in
    the same ``submit_many`` call solved first (in-flight dedup).
    """

    digest: str
    status: str
    period: Optional[Fraction] = None
    K: Optional[Dict[str, int]] = None
    rounds: int = 0
    engine_iterations: int = 0
    critical_tasks: Optional[List[str]] = None
    engine: str = ""
    engine_used: str = ""
    fallback: bool = False
    batched: bool = False
    cache_hit: str = ""
    wall_time: float = 0.0
    worker_pid: int = 0
    error: str = ""
    label: str = ""
    #: Flight-recorder trace id of the solve that produced this outcome
    #: ("" when tracing was off). Never written into the result cache —
    #: the facade strips it before a put, so the on-disk layout is
    #: unchanged and repeats get their own trace.
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    @property
    def cacheable(self) -> bool:
        return self.status in CACHEABLE_STATUSES

    @property
    def throughput(self) -> Optional[Fraction]:
        if self.period is None or self.period == 0:
            return None
        return Fraction(1, 1) / self.period

    @classmethod
    def from_solve(cls, job: ThroughputJob, result: Mapping[str, Any],
                   *, cache_hit: str = "") -> "JobOutcome":
        """Build from a :func:`solve_kiter_payload` outcome dict."""
        period = result.get("period")
        return cls(
            digest=job.digest,
            status=result["status"],
            period=Fraction(*period) if period is not None else None,
            K=result.get("K"),
            rounds=result.get("rounds", 0),
            engine_iterations=result.get("engine_iterations", 0),
            critical_tasks=result.get("critical_tasks"),
            engine=job.engine,
            engine_used=result.get("engine_used", job.engine),
            fallback=result.get("fallback", False),
            batched=result.get("batched", False),
            cache_hit=cache_hit,
            wall_time=result.get("wall_time", 0.0),
            worker_pid=result.get("worker_pid", 0),
            error=result.get("error", ""),
            label=job.label,
        )

    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "digest": self.digest,
            "status": self.status,
            "period": (
                [self.period.numerator, self.period.denominator]
                if self.period is not None else None
            ),
            "K": self.K,
            "rounds": self.rounds,
            "engine_iterations": self.engine_iterations,
            "critical_tasks": self.critical_tasks,
            "engine": self.engine,
            "engine_used": self.engine_used,
            "fallback": self.fallback,
            "batched": self.batched,
            "cache_hit": self.cache_hit,
            "wall_time": self.wall_time,
            "worker_pid": self.worker_pid,
        }
        if self.error:
            out["error"] = self.error
        if self.label:
            out["label"] = self.label
        if self.trace_id:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "JobOutcome":
        period = payload.get("period")
        return cls(
            digest=payload["digest"],
            status=payload["status"],
            period=Fraction(*period) if period is not None else None,
            K=payload.get("K"),
            rounds=payload.get("rounds", 0),
            engine_iterations=payload.get("engine_iterations", 0),
            critical_tasks=payload.get("critical_tasks"),
            engine=payload.get("engine", ""),
            engine_used=payload.get("engine_used", ""),
            fallback=payload.get("fallback", False),
            batched=payload.get("batched", False),
            cache_hit=payload.get("cache_hit", ""),
            wall_time=payload.get("wall_time", 0.0),
            worker_pid=payload.get("worker_pid", 0),
            error=payload.get("error", ""),
            label=payload.get("label", ""),
            trace_id=payload.get("trace_id", ""),
        )
