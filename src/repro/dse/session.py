"""`DseSession`: one graph under targeted edits, re-solved incrementally.

The inner loop of every design-space exploration — buffer sizing,
duration sensitivity, mapping sweeps — evaluates λ* after a *small*
edit: one capacity, one task's durations, one marking. A cold
:func:`~repro.kperiodic.kiter.throughput_kiter` call pays the full
price every time: the repetition vector, the serialization-loop copy,
every buffer's useful-pair sweep, and the whole K escalation ladder
from ``K ≡ 1``. The session keeps all four warm:

===================  =================================================
state                reuse across edits
===================  =================================================
expansion blocks     an edit drops only the touched buffers' blocks
                     (``(buffer, K_src, K_dst)`` keys — everything
                     else stays valid by construction)
assembled            the pre-merge arcs of the last Ks compiled: an
constraint graph     edit marks the touched buffers' slots dirty and
                     patches only their work-plan columns; the next
                     compile at one of those Ks re-derives and splices
                     only those slots
repetition vector    memoized; dropped only by rate edits
certified K          re-used as ``initial_k`` — always exactness-safe
                     (Theorem 4 certifies at the final K regardless of
                     the path there), skips the escalation ladder
certified λ*         seeds the first round's engine — only when every
                     edit since could not *lower* λ* (the downgrade
                     rule below)
warm certificate     the last solve's critical circuit and potentials
                     at λ*: when the first round's K is the certified
                     K, they are replayed before any engine runs, for
                     any edit direction (see below)
===================  =================================================

**Warm certificate.** A circuit of ratio ``λ̂`` proves ``λ* ≥ λ̂``;
potentials under which a relaxation at ``λ̂`` goes quiet prove that no
cycle is positive, so ``λ* ≤ λ̂``. Both are checked exactly on the
current graph, so a stale certificate costs at most 32 sweeps, and a
probe whose λ* and critical circuit did not move needs no engine call.

**Warm-start downgrade rule.** A seed above the true λ* costs restart
probes (never exactness — the engines detect an uncertified start).
Each edit therefore declares a direction: capacity shrink, token
removal and duration increase can only *raise* the period (tightening
a monotone constraint set), so the previous λ* stays a lower bound and
remains a safe seed. Any edit that could lower the period — capacity
growth, token addition, speedups, every rate edit — downgrades the
next solve to the plain utilization-bound start (the certified K is
still reused unless the repetition vector itself moved).

**Exactness contract.** Every ``solve()`` answer is bit-identical
(`Fraction` equality) to a cold solve of the current graph. Edits
build *new* graph objects (see :mod:`repro.transforms.surgery`), so no
count-validated weak-key memo can ever serve stale data; the session's
own block cache is invalidated per edit by name.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.consistency import repetition_vector
from repro.exceptions import DeadlockError, ModelError, ReproError
from repro.kperiodic.expansion import ExpansionBlockCache
from repro.kperiodic.kiter import KIterResult, WarmStart, throughput_kiter
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.obs.trace import span as _span
from repro.model.buffer import Buffer
from repro.transforms.surgery import (
    rebuild_graph,
    with_buffer_rates,
    with_initial_tokens,
    with_scaled_task,
    with_task_durations,
)
from repro.utils.rational import lcm_list

# Process-global cells (module import time, like every other subsystem);
# per-session numbers live in plain int attributes so sessions pickle.
_EDITS = _REGISTRY.counter("repro_session_edits_total")
_INVALIDATIONS = _REGISTRY.counter(
    "repro_session_block_invalidations_total")
_SOLVES = _REGISTRY.counter("repro_session_solves_total")
_WARM = _REGISTRY.counter("repro_session_warm_starts_total")
_ROUNDS_SAVED = _REGISTRY.counter("repro_session_rounds_saved_total")
_CERTIFIED = _REGISTRY.counter("repro_session_certified_total")


class DseSession:
    """One compiled graph plus its solver state, edited in place.

    Parameters
    ----------
    graph:
        The base design point. Never mutated — edits swap in new graph
        objects sharing every untouched task/buffer, and ``reset()``
        returns to this exact object.
    engine:
        MCRP engine for every solve (see
        :func:`repro.kperiodic.kiter.throughput_kiter`).
    warm_start:
        ``False`` disables the cross-solve λ* seed, the warm
        certificate and K-Iter's own intra-solve seeding
        (ablation/debug switch); the certified K is still reused.
    max_cells:
        Block-cache budget, as in
        :class:`~repro.kperiodic.expansion.ExpansionBlockCache`.
    """

    #: The public edit surface, pinned to the table in ``docs/dse.md``
    #: by ``tests/test_docs.py`` — extend both together.
    EDIT_METHODS: Tuple[str, ...] = (
        "set_capacity",
        "set_capacities",
        "set_initial_tokens",
        "set_durations",
        "scale_task",
        "set_rates",
        "apply",
    )

    def __init__(
        self,
        graph: CsdfGraph,
        *,
        engine: str = DEFAULT_ENGINE,
        warm_start: bool = True,
        max_cells: int = 16_000_000,
    ) -> None:
        self._base = graph
        self.graph = graph
        self.engine = engine
        self.warm_start = warm_start
        self._max_cells = max_cells
        self._cache = ExpansionBlockCache(max_cells)
        self._q: Optional[Dict[str, int]] = None
        self._last: Optional[KIterResult] = None
        # Validity of the previous certified solve as a starting point:
        # _k_valid — q unchanged, so the K vector still applies;
        # _seed_valid — every edit since was direction-"up", so the
        # previous λ* cannot overshoot. Both accumulate across edits
        # (and across failed solves) until the next certified solve.
        self._k_valid = False
        self._seed_valid = False
        # Every buffer name whose blocks went stale since construction
        # (reset() invalidates exactly these — blocks of never-edited
        # buffers are valid for the base graph by content identity).
        self._dirty: set = set()
        # (graph, its bounded buffers' capacities) — see _capacities().
        self._marks: Optional[Tuple[CsdfGraph, Dict[str, int]]] = None
        # Plain-int mirrors of the session.* metric families.
        self.edits: Dict[str, int] = {}
        self.invalidated_blocks = 0
        self.warm_outcomes: Dict[str, int] = {}
        self.rounds_saved = 0
        self.certified = 0
        self.solves: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Edit surface
    # ------------------------------------------------------------------
    def set_capacity(self, buffer_name: str, capacity: int) -> None:
        """Re-bound one data buffer's capacity.

        The graph must already be capacity-bounded (contain the
        ``__space_<name>`` reverse buffer of
        :func:`repro.buffers.capacity.bound_all_buffers`): a capacity
        edit is then a marking edit on that one space buffer. Shrinking
        keeps the warm λ* seed; growing downgrades it.
        """
        self._apply_capacities({buffer_name: capacity})

    def set_capacities(self, capacities: Mapping[str, int]) -> None:
        """Batch :meth:`set_capacity`: one edit, one invalidation pass."""
        self._apply_capacities(dict(capacities))

    def _apply_capacities(self, capacities: Dict[str, int]) -> None:
        graph = self.graph
        current = self._capacities()
        replacements: Dict[str, Buffer] = {}
        shrink_only = True
        for name, capacity in capacities.items():
            if current.get(name) == capacity:
                continue  # no-op: keep blocks, seed, everything
            data = graph.buffer(name)
            space_name = f"__space_{name}"
            if not graph.has_buffer(space_name):
                raise ModelError(
                    f"buffer {name!r} is not capacity-bounded (no "
                    f"{space_name!r}); build the session on "
                    "bound_all_buffers(graph, ...)"
                )
            if capacity < data.initial_tokens:
                raise ModelError(
                    f"capacity {capacity} of buffer {name!r} is below "
                    f"its initial marking {data.initial_tokens}"
                )
            space = graph.buffer(space_name)
            tokens = capacity - data.initial_tokens
            if tokens > space.initial_tokens:
                shrink_only = False
            replacements[space_name] = space.with_initial_tokens(tokens)
        if not replacements:
            return
        # One shared-reference rebuild for the whole batch — a
        # uniform-scale step touches every space buffer, and chaining
        # per-buffer copies would be quadratic.
        self._commit(
            "capacity", rebuild_graph(graph, buffers=replacements),
            list(replacements), seed_safe=shrink_only,
        )
        current.update(capacities)
        self._marks = (self.graph, current)

    def _capacities(self) -> Dict[str, int]:
        """Every bounded data buffer's capacity in the current graph.

        Memoized per graph object, so a batch is diffed against it
        with one dict lookup per entry.
        """
        marks = self._marks
        if marks is None or marks[0] is not self.graph:
            graph = self.graph
            capacities = {}
            for space in graph.buffers():
                if not space.name.startswith("__space_"):
                    continue
                name = space.name[len("__space_"):]
                if graph.has_buffer(name):
                    capacities[name] = (
                        graph.buffer(name).initial_tokens
                        + space.initial_tokens)
            marks = self._marks = (graph, capacities)
        return marks[1]

    def set_initial_tokens(self, buffer_name: str, tokens: int) -> None:
        """Replace one buffer's initial marking.

        Token removal tightens the precedence constraints (period can
        only rise → seed kept); addition downgrades the seed.
        """
        old = self.graph.buffer(buffer_name)
        if tokens == old.initial_tokens:
            return
        self._commit(
            "tokens",
            with_initial_tokens(self.graph, buffer_name, tokens),
            [buffer_name],
            seed_safe=tokens < old.initial_tokens,
        )

    def set_durations(
        self, task_name: str, durations: Sequence[int]
    ) -> None:
        """Replace one task's phase durations (phase count fixed).

        Invalidates the blocks of every buffer the task *produces into*
        (block costs are producer phase durations), including its
        serialization self-loop. A uniform slowdown keeps the seed; any
        phase getting faster downgrades it.
        """
        old = self.graph.task(task_name)
        new = tuple(int(d) for d in durations)
        if new == old.durations:
            return
        edited = with_task_durations(self.graph, task_name, new)
        self._commit(
            "duration",
            edited,
            self._source_buffers(task_name),
            seed_safe=(
                len(new) == len(old.durations)
                and all(a >= b for a, b in zip(new, old.durations))
            ),
        )

    def scale_task(
        self, task_name: str, numerator: int, denominator: int = 1
    ) -> None:
        """Scale one task's durations by ``numerator/denominator`` (floor)."""
        graph = with_scaled_task(
            self.graph, task_name, numerator, denominator)
        if graph.task(task_name).durations == \
                self.graph.task(task_name).durations:
            return
        self._commit(
            "duration", graph, self._source_buffers(task_name),
            seed_safe=numerator >= denominator,
        )

    def set_rates(
        self,
        buffer_name: str,
        *,
        production: Optional[Sequence[int]] = None,
        consumption: Optional[Sequence[int]] = None,
        initial_tokens: Optional[int] = None,
    ) -> None:
        """Replace one buffer's rate vectors (and optionally marking).

        The repetition vector may move, so the memoized ``q`` *and* the
        certified K are dropped along with the seed — the next solve
        restarts the escalation from ``K ≡ 1``. Only this buffer's
        blocks are invalidated (denominators are assembly-time).
        """
        self._commit(
            "rates",
            with_buffer_rates(
                self.graph, buffer_name,
                production=production, consumption=consumption,
                initial_tokens=initial_tokens,
            ),
            [buffer_name],
            seed_safe=False,
            k_safe=False,
        )

    def apply(self, edits: Iterable[Mapping[str, Any]]) -> None:
        """Apply a manifest edit list (the ``repro explore`` op schema).

        Each op is a dict with an ``"op"`` key naming an edit method
        (or ``"reset"``) and that method's arguments as the remaining
        keys, e.g. ``{"op": "set_capacity", "buffer": "A_B_0",
        "capacity": 7}``.
        """
        for edit in edits:
            op = dict(edit)
            kind = op.pop("op", None)
            if kind == "reset":
                self.reset()
            elif kind == "set_capacity":
                self.set_capacity(op.pop("buffer"), op.pop("capacity"))
            elif kind == "set_capacities":
                self.set_capacities(op.pop("capacities"))
            elif kind == "set_initial_tokens":
                self.set_initial_tokens(op.pop("buffer"), op.pop("tokens"))
            elif kind == "set_durations":
                self.set_durations(op.pop("task"), op.pop("durations"))
            elif kind == "scale_task":
                self.scale_task(
                    op.pop("task"), op.pop("numerator"),
                    op.pop("denominator", 1),
                )
            elif kind == "set_rates":
                self.set_rates(
                    op.pop("buffer"),
                    production=op.pop("production", None),
                    consumption=op.pop("consumption", None),
                    initial_tokens=op.pop("initial_tokens", None),
                )
            else:
                raise ModelError(f"unknown explore op {kind!r}")
            if op:
                raise ModelError(
                    f"unexpected keys {sorted(op)} in {kind!r} op")

    # ------------------------------------------------------------------
    # Edit plumbing
    # ------------------------------------------------------------------
    def _source_buffers(self, task_name: str) -> List[str]:
        self.graph.task(task_name)  # unknown names raise ModelError
        touched = [
            b.name for b in self.graph.buffers() if b.source == task_name
        ]
        # The serialization self-loop added by with_serialization_loops
        # carries the task's durations as block costs too; its blocks
        # are cached under this name even though the session graph does
        # not contain the loop itself.
        touched.append(f"__serial_{task_name}")
        return touched

    def _commit(
        self,
        kind: str,
        graph: CsdfGraph,
        touched: Iterable[str],
        *,
        seed_safe: bool,
        k_safe: bool = True,
    ) -> None:
        with _span("dse.edit", kind=kind) as sp:
            self.graph = graph
            dropped = 0
            touched = list(touched)
            for name in touched:
                dropped += self._cache.invalidate_buffer(name)
                self._dirty.add(name)
            # The assembled-K memo aggregates the whole graph and
            # validates only by counts — always stale after a content
            # edit. The serialization memo keeps its counts under
            # content edits, so it is rebound to the edited graph.
            self._cache.invalidate_compiled()
            self._cache.patch_serialized(graph, touched)
            if not seed_safe:
                self._seed_valid = False
            if not k_safe:
                self._k_valid = False
                self._q = None
            sp.attrs["invalidated"] = dropped
        self.edits[kind] = self.edits.get(kind, 0) + 1
        self.invalidated_blocks += dropped
        _EDITS.labels(kind=kind).inc()
        _INVALIDATIONS.inc(dropped)

    def _repetition(self) -> Dict[str, int]:
        if self._q is None:
            self._q = repetition_vector(self.graph)
        return self._q

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, *, build_schedule: bool = False) -> KIterResult:
        """Certified λ* of the current graph (exact, warm where safe).

        Raises :class:`~repro.exceptions.DeadlockError` exactly like a
        cold :func:`~repro.kperiodic.kiter.throughput_kiter`; the
        session stays usable (further edits keep accumulating against
        the last *certified* solve).
        """
        q = self._repetition()
        initial_k = None
        certificate = None
        if self._last is not None and self._k_valid:
            initial_k = dict(self._last.K)
            certificate = self._last.certificate
        warm = None
        if self.warm_start:
            warm = WarmStart(
                certificate,
                seed=certificate is not None and self._seed_valid,
            )
        with _span("dse.solve", engine=self.engine) as sp:
            sp.attrs["warm"] = warm is not None and warm.seed
            try:
                result = throughput_kiter(
                    self.graph,
                    engine=self.engine,
                    build_schedule=build_schedule,
                    initial_k=initial_k,
                    expansion_cache=self._cache,
                    repetition=q,
                    warm=warm,
                )
            except DeadlockError:
                self._count_solve("DEADLOCK")
                sp.attrs["status"] = "DEADLOCK"
                raise
            except ReproError:
                self._count_solve("ERROR")
                sp.attrs["status"] = "ERROR"
                raise
            sp.attrs["status"] = "OK"
            sp.attrs["rounds"] = result.iteration_count
        self._absorb_solve(result, warm, initial_k)
        return result

    def _absorb_solve(
        self,
        result: KIterResult,
        warm: Optional[WarmStart],
        initial_k: Optional[Dict[str, int]],
    ) -> None:
        first = result.rounds[0] if result.rounds else None
        if first is not None and first.warm_certified:
            self.certified += 1
            _CERTIFIED.inc()
        if warm is None or not warm.seed:
            outcome = "skipped"
        else:
            # A replayed certificate proves λ* = λ̂: the seed was a hit.
            overshoot = (
                first is not None
                and first.omega is not None
                and warm.certificate.lam
                > first.omega * lcm_list(first.K.values())
            )
            outcome = "overshoot" if overshoot else "hit"
        self.warm_outcomes[outcome] = self.warm_outcomes.get(outcome, 0) + 1
        _WARM.labels(outcome=outcome).inc()
        if initial_k is not None and self._last is not None:
            # Proxy for the escalation rounds the reused K skipped: the
            # ladder that produced it is at least that long again from
            # a cold all-ones start.
            saved = max(
                0, self._last.iteration_count - result.iteration_count)
            self.rounds_saved += saved
            _ROUNDS_SAVED.inc(saved)
        self._count_solve("OK")
        self._last = result
        self._k_valid = True
        self._seed_valid = True

    def _count_solve(self, status: str) -> None:
        self.solves[status] = self.solves.get(status, 0) + 1
        _SOLVES.labels(status=status).inc()

    def evaluate(self) -> Dict[str, Any]:
        """One design point as a JSON-able record (the explore row)."""
        started = time.perf_counter()
        try:
            result = self.solve()
        except DeadlockError as exc:
            return {
                "status": "DEADLOCK",
                "error": str(exc),
                "wall_time": time.perf_counter() - started,
            }
        except ReproError as exc:
            return {
                "status": "ERROR",
                "error": str(exc),
                "wall_time": time.perf_counter() - started,
            }
        throughput = result.throughput
        return {
            "status": "OK",
            "period": [result.period.numerator, result.period.denominator],
            "throughput": (
                None if throughput is None
                else [throughput.numerator, throughput.denominator]
            ),
            "K": dict(result.K),
            "rounds": result.iteration_count,
            "engine_iterations": result.engine_iteration_count,
            "critical_tasks": sorted(result.critical_tasks),
            "wall_time": time.perf_counter() - started,
        }

    @property
    def last_result(self) -> Optional[KIterResult]:
        """The most recent certified solve (``None`` before the first)."""
        return self._last

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Back to the base design point, forgetting the solve state.

        Blocks of never-edited buffers survive — they are keyed by
        buffer name and the base graph's content matches them; only the
        names dirtied since construction are dropped.
        """
        for name in self._dirty:
            self.invalidated_blocks += self._cache.invalidate_buffer(name)
        self._dirty.clear()
        self._cache.invalidate_assembled()
        self.graph = self._base
        self._q = None
        self._last = None
        self._k_valid = False
        self._seed_valid = False

    def stats(self) -> Dict[str, Any]:
        """Session counters plus the block cache's own statistics."""
        return {
            "edits": dict(self.edits),
            "invalidated_blocks": self.invalidated_blocks,
            "warm_starts": dict(self.warm_outcomes),
            "rounds_saved": self.rounds_saved,
            "certified": self.certified,
            "solves": dict(self.solves),
            "cache": self._cache.stats(),
        }

    # ------------------------------------------------------------------
    # Pickling: the block cache holds numpy arrays scaled to the
    # session's working set — drop it and rebuild cold on the far side.
    # Graphs, the q memo and the last certified solve travel, so an
    # unpickled session still warm-starts from its certificate, λ* and
    # the certified K.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_cache"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # The names stay dirty: blocks the far side computes for them
        # belong to the edited graph, and reset() must drop them.
        self._cache = ExpansionBlockCache(self._max_cells)
