"""The K-expansion ``G → G̃`` (paper §3.2) and its direct compilation.

For a periodicity vector ``K``, every task ``t`` of ``G̃`` has
``ϕ̃(t) = K_t·ϕ(t)`` phases obtained by duplicating its duration vector
``K_t`` times; every buffer duplicates its production (resp. consumption)
vector ``K_t`` (resp. ``K_{t'}``) times; markings are unchanged. A
1-periodic schedule of ``G̃`` *is* a K-periodic schedule of ``G``, with
periods related by ``Ω_G = Ω_G̃ / lcm(K)`` (Theorem 3).

:func:`expand_graph` materializes ``G̃`` as a real
:class:`~repro.model.graph.CsdfGraph` — the reference path.
:func:`compile_expansion` skips it entirely: Theorem 2's useful pairs of
every expanded buffer are computed with numpy straight from the *base*
buffer plus ``(K_src, K_dst)`` (the expanded prefix sums are affine in
the tile index — see
:func:`repro.analysis.precedence.expanded_useful_pair_arrays`), emitted
as int64 ``(src, dst, cost, β)`` arc blocks with one shared per-buffer
denominator ``q̃_t·ĩ_b``, and assembled arithmetically into a
:class:`~repro.mcrp.compiled.CompiledGraph` — zero per-arc ``Fraction``
allocation; Fractions materialize lazily through the
:class:`~repro.mcrp.graph.FrozenBiValuedGraph` views only for
certification and back-mapping. Blocks are cached per ``(buffer name,
K_src, K_dst)`` (:class:`ExpansionBlockCache`), so a K-Iter round whose
escalation leaves a task's K unchanged reuses that task's blocks, and
service-pool workers reuse them across jobs sharing a graph.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from collections import OrderedDict
from typing import (
    Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple,
)

try:  # the direct pipeline is numpy-only; the legacy path is the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.analysis.constraint_graph import (
    int64_lcm,
    merge_parallel_candidates,
)
from repro.analysis.precedence import segmented_useful_pair_arrays
from repro.exceptions import ModelError
from repro.mcrp.compiled import CompiledGraph
from repro.mcrp.graph import FrozenBiValuedGraph
from repro.model.buffer import Buffer
from repro.model.graph import CsdfGraph
from repro.model.task import Task
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.utils.rational import lcm_list

# Pre-bound registry cells: the block cache is consulted once per
# buffer per K-Iter round, so each event costs one attribute load and
# an integer add on top of the existing int counters.
_BLOCK_EVENTS = _REGISTRY.counter("repro_expansion_block_cache_total")
_BLOCK_HIT = _BLOCK_EVENTS.labels(event="hit")
_BLOCK_MISS = _BLOCK_EVENTS.labels(event="miss")
_BLOCK_EVICTION = _BLOCK_EVENTS.labels(event="eviction")
_COMPILED_EVENTS = _REGISTRY.counter("repro_expansion_compiled_total")
_COMPILED_HIT = _COMPILED_EVENTS.labels(event="hit")
_COMPILED_MISS = _COMPILED_EVENTS.labels(event="miss")

#: int64 head-room guard shared by every overflow gate of the direct
#: pipeline: whenever an intermediate product could reach this bound the
#: pipeline reports "unavailable" and the caller falls back to the
#: arbitrary-precision legacy path.
_DIRECT_INT64_GUARD = 1 << 62


def _duplicate(vector: tuple, times: int) -> tuple:
    """The paper's ``[v]^P`` vector-duplication operator."""
    return tuple(vector) * times


def validate_periodicity(graph: CsdfGraph, K: Mapping[str, int]) -> Dict[str, int]:
    """Check that ``K`` maps every task to a positive integer."""
    result: Dict[str, int] = {}
    for t in graph.tasks():
        k = K.get(t.name)
        if k is None:
            raise ModelError(f"periodicity vector misses task {t.name!r}")
        if not isinstance(k, int) or k < 1:
            raise ModelError(
                f"periodicity K[{t.name!r}] must be a positive integer, got {k!r}"
            )
        result[t.name] = k
    return result


def expand_graph(graph: CsdfGraph, K: Mapping[str, int]) -> CsdfGraph:
    """Build ``G̃`` for periodicity vector ``K``.

    Examples
    --------
    >>> from repro.model import csdf
    >>> g = csdf({"A": [1, 2]}, [("A", "A", [1, 0], [0, 1], 1)])
    >>> expand_graph(g, {"A": 2}).task("A").durations
    (1, 2, 1, 2)
    """
    K = validate_periodicity(graph, K)
    expanded = CsdfGraph(f"{graph.name}~K")
    for t in graph.tasks():
        expanded.add_task(Task(t.name, _duplicate(t.durations, K[t.name])))
    for b in graph.buffers():
        expanded.add_buffer(
            Buffer(
                name=b.name,
                source=b.source,
                target=b.target,
                production=_duplicate(b.production, K[b.source]),
                consumption=_duplicate(b.consumption, K[b.target]),
                initial_tokens=b.initial_tokens,
                serialization=b.serialization,
            )
        )
    return expanded


def expanded_repetition_vector(
    repetition: Mapping[str, int],
    K: Mapping[str, int],
) -> Dict[str, int]:
    """The paper's ``q̃_t = q_t · lcm(K) / K_t`` repetition vector of ``G̃``.

    Theorem 2's constraint denominators — and therefore the period
    normalization of Theorem 3 — assume exactly this (possibly non-minimal)
    repetition vector, so it is computed directly rather than re-derived
    from ``G̃``.
    """
    lcm_k = lcm_list(K.values())
    q_tilde: Dict[str, int] = {}
    for t, q_t in repetition.items():
        k_t = K[t]
        scaled = q_t * lcm_k
        if scaled % k_t != 0:  # pragma: no cover - lcm(K) is divisible by K_t
            raise ModelError(f"q̃ not integral for task {t!r}")
        q_tilde[t] = scaled // k_t
    return q_tilde


# ----------------------------------------------------------------------
# Direct (G, K) → CompiledGraph pipeline
# ----------------------------------------------------------------------
class ArcBlock:
    """One buffer's K-expanded constraint arcs, in buffer-local phases.

    ``arcs`` is a read-only ``(4, n)`` int64 array whose rows are
    ``src_phase``/``dst_phase`` — 0-based phases of the *expanded*
    producer/consumer (``P ∈ 0..K_src·ϕ−1``) — ``cost``, the producer
    phase durations ``d(t_P)``, and ``beta``, Theorem 2's β. Read-only
    makes cache sharing across rounds/jobs safe, and one array per block
    lets assembly stack a round's blocks with a single concatenate. It
    is a view into :attr:`base`, the one array that holds every block
    one compile derived (copied out of the pass that derived them), so
    the blocks of a compile share one allocation and a cache holding
    any of them holds all of it. The per-buffer denominator ``q̃_t·ĩ_b`` is *not* part of the block: it
    depends on ``lcm(K)`` and is recomputed at assembly each round,
    which is exactly what makes the block reusable whenever
    ``(K_src, K_dst)`` did not change.
    """

    __slots__ = ("arcs", "arc_count")

    def __init__(self, arcs):
        self.arcs = arcs
        self.arc_count = arcs.shape[1]

    @property
    def base(self):
        """The array whose memory the block's arcs live in."""
        return self.arcs if self.arcs.base is None else self.arcs.base


class ExpansionBlockCache:
    """LRU cache of :class:`ArcBlock`\\ s keyed ``(buffer, K_src, K_dst)``.

    The reuse contract: an entry is valid for every future round/job on
    the **same** :class:`~repro.model.graph.CsdfGraph` object (buffers
    are immutable and graphs append-only, so a buffer name pins its
    content) as long as the producer's and consumer's K entries match
    the key — everything else (``lcm(K)``, the other tasks' K, node
    offsets, denominators) is applied at assembly time. Under K-Iter's
    lcm update policy K only ever grows along critical circuits, so a
    round typically re-derives blocks for the few escalated tasks and
    hits the cache for the rest.

    Bounded by total int64 cells (LRU eviction), not entry count, since
    block sizes vary by orders of magnitude across K. The cells counted
    are those of the :attr:`ArcBlock.base` arrays the cached blocks
    keep alive, each counted once while any block in it is cached, so
    the bound holds for the memory the cache actually pins.
    """

    def __init__(self, max_cells: int = 16_000_000):
        self.max_cells = max_cells
        self._blocks: "OrderedDict[Tuple[str, int, int], ArcBlock]" = (
            OrderedDict()
        )
        self._cells = 0
        # buffer name → the keys of its cached blocks, so invalidating
        # one buffer costs its own blocks, not a scan of the cache
        self._keys_of: Dict[str, Set[Tuple[str, int, int]]] = {}
        # id(base) → [cached blocks in it, its cells]; an entry keeps
        # its base alive, so the id cannot be reused while counted.
        self._bases: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # The work plan of the bound graph (its buffers plus the
        # serialization loops, read into columns), revalidated by
        # task/buffer counts: every K-Iter round re-derives the same
        # plan otherwise, and under warm service traffic that rebuild
        # dominates small compiles.
        self._serialized: Optional[Tuple[Tuple[int, int], "_WorkPlan"]] = None
        # Fully assembled compiled constraint graphs keyed by the K
        # vector (task-name sorted). K-Iter's escalation sequence is
        # deterministic per graph, so a warm worker re-assembles the
        # same few (bi_graph, space) pairs for every repeat solve; the
        # frozen compiled form is immutable and safe to share. Small
        # LRU — entries are per-K and graphs see a handful of rounds.
        self.max_compiled = 32
        self._compiled: "OrderedDict[Tuple[Tuple[str, int], ...], Tuple[object, object]]" = (
            OrderedDict()
        )
        self._compiled_counts: Optional[Tuple[int, int]] = None
        self.compiled_hits = 0
        self.compiled_misses = 0
        # The pre-merge arcs of the Ks this cache assembled last (as
        # many as the assembled-K memo keeps): a compile at one of those
        # Ks re-derives and splices only the buffers edited since. Kept
        # only once a buffer was invalidated: without edits, the
        # assembled-K memo answers every repeat compile.
        self._assemblies: "OrderedDict[Tuple[int, ...], _Assembly]" = (
            OrderedDict()
        )
        self._edits_seen = False
        # The buffer names invalidated while assemblies are kept, oldest
        # first, from log position _edited_from on; an assembly is
        # current up to its mark, a position in this log.
        self._edited: List[str] = []
        self._edited_from = 0
        self._edit_room = 0  # the log length that calls for a prune
        # A compile against an assembly counts its clean slots as hits
        # in bulk and leaves its LRU moves owed: (the keys of every
        # slot, the slots it derived), keyed by id of the keys list. The
        # moves run, in order, before anything else reads or reorders
        # the LRU; a later compile owing the same keys supersedes an
        # entry, since it moves every one of them again.
        self._owed: "OrderedDict[int, Tuple[list, list]]" = OrderedDict()

    def compiled_for(self, graph, k_key) -> Optional[Tuple[object, object]]:
        """The assembled ``(bi_graph, space)`` for this K, if cached."""
        if self._compiled_counts != (graph.task_count, graph.buffer_count):
            self.compiled_misses += 1
            _COMPILED_MISS.inc()
            return None
        built = self._compiled.get(k_key)
        if built is None:
            self.compiled_misses += 1
            _COMPILED_MISS.inc()
            return None
        self._compiled.move_to_end(k_key)
        self.compiled_hits += 1
        _COMPILED_HIT.inc()
        return built

    def store_compiled(self, graph, k_key, built) -> None:
        counts = (graph.task_count, graph.buffer_count)
        if self._compiled_counts != counts:
            self._compiled.clear()
            self._compiled_counts = counts
        self._compiled[k_key] = built
        while len(self._compiled) > self.max_compiled:
            self._compiled.popitem(last=False)

    def serialized_for(self, graph) -> Optional["_WorkPlan"]:
        """The cached serialization-loop work plan, if still valid."""
        entry = self._serialized
        if entry is not None and entry[0] == (
            graph.task_count, graph.buffer_count
        ):
            return entry[1]
        return None

    def store_serialized(self, graph, plan: "_WorkPlan") -> None:
        self._serialized = ((graph.task_count, graph.buffer_count), plan)

    def assembly_for(self, plan, K, repetition) -> Optional["_Assembly"]:
        """The assembly of this K, if it was built from ``plan`` and
        this ``q̃`` (``K`` validated: in the graph's task order)."""
        assembly = self._assemblies.get(tuple(K.values()))
        if (
            assembly is not None
            and assembly.plan is plan
            and assembly.K == K
            and assembly.repetition == repetition
        ):
            return assembly
        return None

    def edit_mark(self) -> int:
        """The current position of the invalidation log."""
        return self._edited_from + len(self._edited)

    def dirty_slots(self, assembly: "_Assembly") -> List[int]:
        """The slots of ``assembly`` invalidated since it was made,
        ascending."""
        slot_of = assembly.plan.slot_of
        return sorted({
            slot_of[name]
            for name in self._edited[assembly.mark - self._edited_from:]
            if name in slot_of
        })

    def store_assembly(self, assembly: "_Assembly", evictions: int) -> None:
        """Keep ``assembly`` as the base of the next compile at its K.

        ``evictions`` is this cache's eviction count when the compile
        resolved its blocks: an eviction since may have dropped a block
        the assembly counts as cached, so it is not kept. Neither is it
        before any buffer was invalidated.
        """
        if evictions != self.evictions or not self._edits_seen:
            return
        assemblies = self._assemblies
        key = tuple(assembly.K.values())
        assemblies[key] = assembly
        assemblies.move_to_end(key)
        while len(assemblies) > self.max_compiled:
            assemblies.popitem(last=False)
        self._prune()

    def _prune(self) -> None:
        """Drop the assemblies with more edits pending than they have
        slots, and the log entries no kept assembly reads.

        Such an assembly is as good as rebuilt by its next compile, and
        a K compiled once (an escalation step of a cold solve) is never
        compiled again: pruning bounds both the log and the memory the
        assemblies pin, not just their count.
        """
        head = self.edit_mark()
        assemblies = self._assemblies
        for key in [key for key, kept in assemblies.items()
                    if head - kept.mark > len(kept.plan.names)]:
            del assemblies[key]
        oldest = min((kept.mark for kept in assemblies.values()),
                     default=head)
        del self._edited[:oldest - self._edited_from]
        self._edited_from = oldest
        self._edit_room = max(
            (len(kept.plan.names) for kept in assemblies.values()),
            default=0)

    def _drop_assemblies(self) -> None:
        self._assemblies.clear()
        self._prune()

    def peek(
        self, keys: Sequence[Tuple[str, int, int]]
    ) -> List[Optional[ArcBlock]]:
        """The cached block of every key (``None`` if absent), uncounted.

        A compile peeks before its block pass and :meth:`record`\\ s the
        lookups only once that pass succeeded, so a failed pass counts
        nothing.
        """
        get = self._blocks.get
        return [get(key) for key in keys]

    def record(
        self,
        hit_keys: Sequence[Tuple[str, int, int]],
        derived: Sequence[Tuple[Tuple[str, int, int], ArcBlock]],
        *,
        clean: int = 0,
        owed: Optional[Tuple[list, list]] = None,
    ) -> None:
        """Count one compile's lookups and store the blocks it derived.

        ``hit_keys`` were found — cached, or derived for an earlier
        compile of the same pass — and move to the LRU end; every
        ``(key, block)`` of ``derived`` is one miss, stored here.

        A compile against an assembly passes ``clean``, the slots it
        did not look up (each a hit), and ``owed``, ``(keys of every
        slot, slots derived)``: its LRU moves are deferred to the next
        reader of the LRU, and a later compile at the same K makes them
        moot by owing the same keys again.
        """
        blocks = self._blocks
        if owed is not None:
            self._owed.pop(id(owed[0]), None)
            self._owed[id(owed[0])] = owed
        else:
            self._settle()
            for key in hit_keys:
                if key in blocks:  # an eviction may have dropped it since
                    blocks.move_to_end(key)
        # Derived keys were peeked as absent, so nothing is replaced.
        blocks.update(derived)
        keys_of = self._keys_of
        for key, block in derived:
            self._hold(block)
            keys = keys_of.get(key[0])
            if keys is None:
                keys_of[key[0]] = {key}
            else:
                keys.add(key)
        self.hits += len(hit_keys) + clean
        self.misses += len(derived)
        _BLOCK_HIT.inc(len(hit_keys) + clean)
        _BLOCK_MISS.inc(len(derived))
        self._evict()

    def _settle(self) -> None:
        """Make the LRU moves that compiles against assemblies owe."""
        blocks = self._blocks
        for keys, derived in self._owed.values():
            fresh = set(derived)
            for slot, key in enumerate(keys):
                if slot not in fresh and key in blocks:
                    blocks.move_to_end(key)
            for slot in derived:
                if keys[slot] in blocks:
                    blocks.move_to_end(keys[slot])
        self._owed.clear()

    def _evict(self) -> None:
        """Drop least recently used blocks until the cell budget holds.

        The assemblies count their blocks as cached, so any eviction
        drops them: the next compile looks every block up again.
        """
        if self._cells <= self.max_cells or len(self._blocks) <= 1:
            return
        self._settle()
        self._drop_assemblies()
        while self._cells > self.max_cells and len(self._blocks) > 1:
            key, evicted = self._blocks.popitem(last=False)
            self._release(evicted)
            keys = self._keys_of[key[0]]
            keys.discard(key)
            if not keys:
                del self._keys_of[key[0]]
            self.evictions += 1
            _BLOCK_EVICTION.inc()

    def _hold(self, block: ArcBlock) -> None:
        base = block.base
        entry = self._bases.get(id(base))
        if entry is None:
            self._bases[id(base)] = [1, base.size]
            self._cells += base.size
        else:
            entry[0] += 1

    def _release(self, block: ArcBlock) -> None:
        key = id(block.base)
        entry = self._bases[key]
        entry[0] -= 1
        if not entry[0]:
            del self._bases[key]
            self._cells -= entry[1]

    def clear(self) -> None:
        self._blocks.clear()
        self._keys_of.clear()
        self._bases.clear()
        self._cells = 0
        self._owed.clear()
        self._drop_assemblies()

    def invalidate_buffer(self, name: str) -> int:
        """Drop every cached block of buffer ``name`` (any ``K`` pair).

        The targeted edit surface of :class:`repro.dse.DseSession`: an
        edit to one buffer's content (rates, marking, or — through the
        bounded-buffer transformation — capacity) stales exactly the
        blocks keyed ``(name, *, *)``; everything else remains valid
        because a block depends only on its own buffer plus
        ``(K_src, K_dst)``. The name is logged while assemblies are
        kept, so the next compile at one of their Ks re-derives and
        splices the buffer's slot alone. The assembled-K memo is *not*
        touched here — it aggregates every buffer, so the caller drops
        it once per edit batch via :meth:`invalidate_compiled` and
        rebinds the work plan via :meth:`patch_serialized`. Returns the
        number of blocks dropped (the ``session.*`` invalidation
        metric). The per-buffer key index makes this O(blocks dropped).
        """
        self._edits_seen = True
        if self._assemblies:
            self._edited.append(name)
            if len(self._edited) > self._edit_room:
                self._prune()
        stale = self._keys_of.pop(name, ())
        for key in stale:
            self._release(self._blocks.pop(key))
        return len(stale)

    def invalidate_assembled(self) -> None:
        """Drop the assembled-graph memo, the serialization copy and the
        assemblies.

        All three are aggregates of the whole graph (the first two
        validated only by task/buffer *counts*), so any content edit
        stales them even when the counts are unchanged. Per-buffer
        blocks survive — the reuse they carry is the point of selective
        invalidation.
        """
        self._compiled.clear()
        self._compiled_counts = None
        self._serialized = None
        self._drop_assemblies()

    def invalidate_compiled(self) -> None:
        """Drop only the assembled-K memo, keeping the serialized copy."""
        self._compiled.clear()
        self._compiled_counts = None

    def patch_serialized(self, graph, names: Sequence[str]) -> bool:
        """Rebind the serialization-loop memo to an edited ``graph``.

        A *content* edit (rates, marking, durations — same topology)
        keeps the task and buffer counts the memo is validated by, so
        only the slots of the buffers ``names`` are re-read from the
        edited graph — the steady-state path of
        :class:`repro.dse.DseSession` edits, which pass the buffers
        they invalidated. A count change drops the memo and the
        assemblies instead: returns ``False`` and the next compile
        rebuilds.
        """
        entry = self._serialized
        if entry is None:
            return False
        if entry[0] != (graph.task_count, graph.buffer_count):
            self._serialized = None
            self._drop_assemblies()
            return False
        entry[1].patch(graph, names)
        return True

    def __len__(self) -> int:
        return len(self._blocks)

    def stats(self) -> Dict[str, int]:
        return {
            "blocks": len(self._blocks),
            "cells": self._cells,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Per-graph block caches: keyed by the graph *object* (weakly — a
#: collected graph drops its blocks), so K-Iter rounds on one graph and
#: service-pool jobs reusing a worker's parsed graph share one cache.
_GRAPH_CACHES: "weakref.WeakKeyDictionary[CsdfGraph, ExpansionBlockCache]" = (
    weakref.WeakKeyDictionary()
)


def expansion_cache_for(graph: CsdfGraph) -> ExpansionBlockCache:
    """The block cache bound to ``graph`` (created on first use)."""
    cache = _GRAPH_CACHES.get(graph)
    if cache is None:
        cache = ExpansionBlockCache()
        _GRAPH_CACHES[graph] = cache
    return cache


class _ExpandedLabels(Sequence):
    """Lazy ``(task, expanded phase)`` labels of an expanded node space.

    Semantically the list the legacy builder materializes, computed on
    access instead (labels are only read for critical circuits and
    deadlock certificates — a handful of nodes out of ``Σ K_t·ϕ(t)``).
    """

    __slots__ = ("_space",)

    def __init__(self, space: "ExpandedNodeSpace"):
        self._space = space

    def __len__(self) -> int:
        return self._space.node_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._space.label(i) for i in range(len(self))[index]]
        if index < 0:
            index += len(self)
        return self._space.label(index)

    def __iter__(self):
        for name, start, count in self._space.spans():
            for p in range(1, count + 1):
                yield (name, p)


class ExpandedNodeSpace:
    """Node layout of the K-expanded constraint graph (task-major).

    Task ``t`` owns the contiguous node range
    ``[offset(t), offset(t) + K_t·ϕ(t))`` in task insertion order — the
    exact layout the legacy ``build_constraint_graph`` produces — and
    node ``offset(t) + P`` is the first execution ``⟨t_{P+1}, 1⟩`` of
    expanded phase ``P+1``.
    """

    __slots__ = ("_names", "_starts", "node_count")

    def __init__(self, phase_counts: Sequence[Tuple[str, int]]):
        self._names: List[str] = []
        self._starts: List[int] = []
        total = 0
        for name, count in phase_counts:
            self._names.append(name)
            self._starts.append(total)
            total += count
        self.node_count = total

    def starts(self):
        """Each task's first node, in layout order (an int64 array)."""
        return _np.asarray(self._starts, dtype=_np.int64)

    def spans(self):
        """Yield ``(task, start, phase count)`` per task in layout order."""
        for i, name in enumerate(self._names):
            start = self._starts[i]
            end = (
                self._starts[i + 1]
                if i + 1 < len(self._starts)
                else self.node_count
            )
            yield name, start, end - start

    def label(self, node: int) -> Tuple[str, int]:
        if not 0 <= node < self.node_count:
            raise IndexError(node)
        i = bisect_right(self._starts, node) - 1
        return (self._names[i], node - self._starts[i] + 1)

    @property
    def labels(self) -> Sequence[Hashable]:
        return _ExpandedLabels(self)

    def nodes_of(
        self, labels: Sequence[Tuple[str, int]]
    ) -> Optional[List[int]]:
        """Node ids of ``(task, expanded phase)`` labels (``None`` when
        one of them is not in this space)."""
        spans = {name: (start, count) for name, start, count in self.spans()}
        nodes = []
        for task, phase in labels:
            start, count = spans.get(task, (0, 0))
            if not 1 <= phase <= count:
                return None
            nodes.append(start + phase - 1)
        return nodes

    def node_index(self) -> Dict[Tuple[str, int], int]:
        """The dense ``(task, expanded phase) → node id`` dict.

        Materialized on demand (schedule extraction needs the full map;
        nothing else does).
        """
        return {
            (name, p): start + p - 1
            for name, start, count in self.spans()
            for p in range(1, count + 1)
        }


class _WorkPlan:
    """The compile's static view of one graph.

    Its buffers are those of ``graph.with_serialization_loops()`` (or of
    ``graph`` itself when not serializing), read once into per-buffer
    columns (one *slot* per buffer) and memoized on the block cache, so
    a round's key and denominator computation is a few list
    comprehensions. ``shared`` flags the slots whose buffer joins the
    same task pair as another (``None`` when ``shared_pairs`` says none
    does): only their arcs can be parallel, so only they need merging.
    """

    __slots__ = ("tasks", "buffers", "names", "sources", "targets",
                 "totals", "durations", "shared", "shared_pairs", "ends",
                 "slot_of")

    def __init__(self, graph: CsdfGraph, serialize: bool):
        self.tasks = list(graph.tasks())
        self.buffers = (
            graph.serialized_buffers() if serialize else list(graph.buffers())
        )
        self.names = [b.name for b in self.buffers]
        self.slot_of = {name: slot for slot, name in enumerate(self.names)}
        self.sources = [b.source for b in self.buffers]
        self.targets = [b.target for b in self.buffers]
        self.totals = [b.total_production for b in self.buffers]
        durations = {t.name: t.durations for t in self.tasks}
        self.durations = [durations[t] for t in self.sources]
        pairs = list(zip(self.sources, self.targets))
        self.shared_pairs = len(set(pairs)) < len(pairs)
        self.shared = None
        if self.shared_pairs:
            count: Dict[Tuple[str, str], int] = {}
            for pair in pairs:
                count[pair] = count.get(pair, 0) + 1
            self.shared = _np.asarray(
                [count[pair] > 1 for pair in pairs], dtype=bool)
        # Task positions of each buffer's producer and consumer, as
        # numpy rows: node offsets become one gather per round.
        position = {t.name: i for i, t in enumerate(self.tasks)}
        self.ends = _np.asarray(
            [[position[t] for t in self.sources],
             [position[t] for t in self.targets]],
            dtype=_np.int64,
        ).reshape(2, len(self.buffers))

    def patch(self, graph: CsdfGraph, names: Sequence[str]) -> None:
        """Re-read the slots of buffers ``names`` from an edited graph.

        The edit kept every name, endpoint and phase count, so only a
        slot's buffer, total and producer durations can have moved.
        """
        self.tasks = list(graph.tasks())
        for name in names:
            slot = self.slot_of.get(name)
            if slot is None:
                continue
            if graph.has_buffer(name):  # else a loop the plan added
                buffer = graph.buffer(name)
                self.buffers[slot] = buffer
                self.totals[slot] = buffer.total_production
            self.durations[slot] = graph.task(self.sources[slot]).durations

    def block_keys(self, K, repetition, slots=None):
        """``(keys, denominators)`` of this round's ``slots``, or ``None``.

        ``keys`` are the ``(buffer, K_src, K_dst)`` block keys and the
        denominators are ``q̃_t·ĩ_b``, of every slot when ``slots`` is
        ``None``; ``None`` when a denominator trips the int64 guard,
        which makes the compile unavailable.
        """
        names, sources, targets, totals = (
            self.names, self.sources, self.targets, self.totals)
        if slots is not None:
            names = [names[slot] for slot in slots]
            sources = [sources[slot] for slot in slots]
            targets = [targets[slot] for slot in slots]
            totals = [totals[slot] for slot in slots]
        k_src = [K[t] for t in sources]
        k_dst = [K[t] for t in targets]
        dens = [repetition[t] * k * total for t, k, total
                in zip(sources, k_src, totals)]
        if dens and max(dens) >= _DIRECT_INT64_GUARD:
            return None
        return list(zip(names, k_src, k_dst)), dens


def _work_plan(graph: CsdfGraph, cache, serialize: bool) -> _WorkPlan:
    """The :class:`_WorkPlan` of ``graph``, memoized on ``cache``."""
    if serialize and cache is not None:
        plan = cache.serialized_for(graph)
        if plan is not None:
            return plan
    plan = _WorkPlan(graph, serialize)
    if serialize and cache is not None:
        cache.store_serialized(graph, plan)
    return plan


def _derive_arcs(requests, durations):
    """The stacked arcs of many ``(buffer, K_src, K_dst)`` requests.

    Every request's useful pairs come from one
    :func:`~repro.analysis.precedence.segmented_useful_pair_arrays`
    pass; the producer durations ``d(t_P)`` (``durations``, one tuple
    per request) are gathered in the same stacked space. Returns the
    ``(4, total)`` arcs and the request bounds, a list of
    ``len(requests) + 1`` offsets.
    """
    p, pp, beta, bounds = segmented_useful_pair_arrays(requests)
    phi = _np.asarray([len(d) for d in durations], dtype=_np.int64)
    seg = _np.repeat(_np.arange(phi.shape[0], dtype=_np.int64),
                     _np.diff(bounds))
    starts = _np.cumsum(phi) - phi
    flat = _np.asarray([d for ds in durations for d in ds], dtype=_np.int64)
    cost = flat[starts[seg] + p % phi[seg]]
    return _np.stack([p, pp, cost, beta]), bounds.tolist()


class BlockSet:
    """The arc blocks one compile needs, resolved ahead of its assembly.

    ``K`` is the compile's validated periodicity vector and
    ``repetition`` its ``q̃``. ``base`` is the cache's assembly of this
    K when it was made from the same plan and ``q̃`` — then ``slots``
    are its dirty slots, the only ones resolved — else ``None`` and
    ``slots`` is ``None``: every slot. ``keys`` and ``denominators``
    (:meth:`_WorkPlan.block_keys`) and the blocks ``found`` are aligned
    with those slots; ``evictions`` and ``mark`` are the cache's
    eviction count and invalidation-log position before the lookups
    were recorded. Made by
    :func:`derive_expansion_blocks` and consumed by
    ``compile_expansion(..., blocks=)``.
    """

    __slots__ = ("plan", "K", "repetition", "cache", "base", "slots",
                 "keys", "denominators", "found", "evictions", "mark")

    def __init__(self, plan, K, repetition, cache, base, slots, keys,
                 denominators, found):
        self.plan = plan
        self.K = K
        self.repetition = repetition
        self.cache = cache
        self.base = base
        self.slots = slots
        self.keys = keys
        self.denominators = denominators
        self.found = found
        self.evictions = cache.evictions if cache is not None else 0
        self.mark = cache.edit_mark() if cache is not None else 0


class _Assembly:
    """The pre-merge constraint arcs of one compile, slot by slot.

    ``arcs`` is a read-only ``(5, m)`` int64 array — global ``src`` and
    ``dst`` nodes, ``cost``, and ``β`` over the arc's denominator
    ``q̃_t·ĩ_b``, in lowest terms — holding the arcs of plan slot ``i``
    at ``bounds[i]:bounds[i+1]``. ``keys`` are every slot's block keys
    and ``space`` the node layout; ``mark`` is the position of its
    cache's invalidation log it is current up to. A cache keeps the
    last few, one per K; a compile from the same plan object, K and
    ``q̃`` starts from one and splices in only the slots invalidated
    since.
    """

    __slots__ = ("plan", "K", "repetition", "keys", "space", "arcs",
                 "bounds", "mark")

    def __init__(self, plan, K, repetition, keys, space, arcs, bounds,
                 mark):
        self.plan = plan
        self.K = K
        self.repetition = repetition
        self.keys = keys
        self.space = space
        self.arcs = arcs
        self.bounds = bounds
        self.mark = mark


def _resolve(compiles, serialize: bool) -> List[Optional[BlockSet]]:
    """Resolve the blocks of many compiles, deriving all misses at once.

    Each compile peeks at its cache — for every slot, or only for the
    dirty slots when the cache keeps an assembly made at the same K,
    the clean ones counting as hits in bulk; the blocks none of them
    holds are swept by one :func:`_derive_arcs` pass, and each compile
    copies its own out as the base of its new blocks, so no block pins
    the pass or another compile's arcs. A block two compiles on the
    same cache both miss is derived once: the first counts the miss,
    the second a hit, as if they had run one after the other. Lookups
    are counted and derived blocks stored only after the pass
    succeeded. ``None`` marks a compile whose int64 guard trips.
    """
    resolved: List[Optional[BlockSet]] = []
    pending = []
    requests: List[Tuple[Buffer, int, int]] = []
    durations: List[tuple] = []
    # Caches that more than one compile of the pass uses, mapped to the
    # request each missing key was first claimed by.
    seen: set = set()
    claimed: Dict[int, Dict[Tuple[str, int, int], int]] = {}
    for *_, cache in compiles:
        if cache is not None:
            if id(cache) in seen:
                claimed[id(cache)] = {}
            seen.add(id(cache))
    for graph, K, repetition, cache in compiles:
        K = validate_periodicity(graph, K)
        plan = _work_plan(graph, cache, serialize)
        base = slots = None
        if cache is not None:
            base = cache.assembly_for(plan, K, repetition)
            if base is not None:
                slots = cache.dirty_slots(base)
        keyed = plan.block_keys(K, repetition, slots)
        if keyed is None:
            resolved.append(None)
            continue
        keys, dens = keyed
        if cache is not None and len(cache):
            found = cache.peek(keys)
            missing = [i for i, block in enumerate(found) if block is None]
        else:
            found = [None] * len(keys)
            missing = list(range(len(keys)))
        linked = []  # (position, request) derived for an earlier compile
        taken = claimed.get(id(cache)) if cache is not None else None
        if taken is not None:
            own = []
            for i in missing:
                request = taken.get(keys[i])
                if request is None:
                    taken[keys[i]] = len(requests) + len(own)
                    own.append(i)
                else:
                    linked.append((i, request))
            missing = own
        first = len(requests)
        at = range(len(keys)) if slots is None else slots
        buffers, plan_durations = plan.buffers, plan.durations
        requests.extend([(buffers[at[i]], keys[i][1], keys[i][2])
                         for i in missing])
        durations.extend([plan_durations[at[i]] for i in missing])
        entry = BlockSet(plan, K, repetition, cache, base, slots, keys,
                         dens, found)
        resolved.append(entry)
        pending.append((cache, entry, missing, first, linked))
    arcs, cuts = _derive_arcs(requests, durations) if requests else (None, [])
    blocks: List[ArcBlock] = []
    for _, _, missing, first, _ in pending:
        if missing:
            start, stop = cuts[first], cuts[first + len(missing)]
            base = arcs[:, start:stop].copy()
            base.setflags(write=False)  # and so is every view of it
            blocks.extend(
                ArcBlock(base[:, lo - start:hi - start]) for lo, hi
                in zip(cuts[first:], cuts[first + 1:first + len(missing) + 1])
            )
    for cache, entry, missing, first, linked in pending:
        found, keys = entry.found, entry.keys
        hits = ([key for key, block in zip(keys, found) if block is not None]
                if cache is not None else [])
        for request, i in enumerate(missing, first):
            found[i] = blocks[request]
        for i, request in linked:
            found[i] = blocks[request]
            hits.append(keys[i])
        if cache is None:
            continue
        derived = [(keys[i], found[i]) for i in missing]
        if entry.base is None:
            cache.record(hits, derived)
        else:
            cache.record(
                hits, derived,
                clean=len(entry.plan.names) - len(entry.slots),
                owed=(entry.base.keys, [entry.slots[i] for i in missing]),
            )
    return resolved


def _assemble(blocks: BlockSet) -> _Assembly:
    """The pre-merge arcs of a compile: its resolved slots spliced into
    its base assembly — a cold compile resolved every slot and has no
    base, so its arcs are the resolved ones alone."""
    plan, base, found = blocks.plan, blocks.base, blocks.found
    if base is None:
        space = ExpandedNodeSpace(
            [(t.name, blocks.K[t.name] * t.phase_count) for t in plan.tasks]
        )
        ends, keys = plan.ends, blocks.keys
    else:
        space, keys = base.space, base.keys
        ends = plan.ends[:, blocks.slots]
    lens = _np.asarray([block.arc_count for block in found],
                       dtype=_np.int64)
    fresh = _np.empty((5, int(lens.sum())), dtype=_np.int64)
    if found:
        _np.concatenate([block.arcs for block in found], axis=1,
                        out=fresh[:4])
        fresh[:2] += _np.repeat(space.starts()[ends], lens, axis=1)
        # The per-buffer denominator q̃_t·ĩ_b is constant across a
        # block's arcs; each β/den is kept in lowest terms.
        fresh[4] = _np.repeat(
            _np.asarray(blocks.denominators, dtype=_np.int64), lens)
        fresh[3:] //= _np.gcd(fresh[3], fresh[4])  # β=0 ⇒ den ⇒ 0/1
    if base is None:
        arcs = fresh
        bounds = _np.concatenate(([0], _np.cumsum(lens)))
    else:
        arcs, bounds = _splice(base.arcs, base.bounds, blocks.slots,
                               fresh, lens)
    arcs.setflags(write=False)
    return _Assembly(plan, blocks.K, blocks.repetition, keys, space, arcs,
                     bounds, blocks.mark)


def _splice(arcs, bounds, slots, fresh, lens):
    """``arcs`` with the segments of ``slots`` (ascending) replaced.

    ``fresh`` holds the new segments, ``lens`` arcs each, in slot
    order. Returns the spliced arcs and their slot bounds; a run of
    consecutive slots splices as one piece.
    """
    if not slots:
        return arcs, bounds
    at = _np.asarray(slots, dtype=_np.int64)
    breaks = (_np.flatnonzero(_np.diff(at) != 1) + 1).tolist()
    cuts = [0, *_np.cumsum(lens).tolist()]
    parts = []
    done = 0
    for first, last in zip([0, *breaks], [*breaks, len(slots)]):
        parts.append(arcs[:, done:bounds[slots[first]]])
        parts.append(fresh[:, cuts[first]:cuts[last]])
        done = bounds[slots[last - 1] + 1]
    parts.append(arcs[:, done:])
    widths = _np.diff(bounds)
    widths[at] = lens
    return (_np.concatenate(parts, axis=1),
            _np.concatenate(([0], _np.cumsum(widths))))


def derive_expansion_blocks(
    compiles: Sequence[Tuple[CsdfGraph, Mapping[str, int], Mapping[str, int],
                             Optional[ExpansionBlockCache]]],
) -> List[Optional[BlockSet]]:
    """Resolve the blocks of many compiles in one segmented pass.

    ``compiles`` lists the ``(graph, K, repetition, cache)`` arguments
    of :func:`compile_expansion` calls (serializing, as K-Iter compiles)
    about to run — one K-Iter round of a whole fleet. Every block those
    calls would miss in their caches is swept by one
    :func:`~repro.analysis.precedence.segmented_useful_pair_arrays`
    pass and stored; each lookup counts one hit or one miss, exactly as
    the compile itself would count it.

    Returns, per compile, its :class:`BlockSet`, to hand to
    ``compile_expansion(..., blocks=)``, which then assembles without
    a lookup of its own. ``None`` marks a compile whose int64 guard
    trips (or every compile, without numpy); that compile then runs
    exactly as without the pass.
    """
    if _np is None:
        return [None] * len(compiles)
    return _resolve(compiles, serialize=True)


def compile_expansion(
    graph: CsdfGraph,
    K: Mapping[str, int],
    repetition: Mapping[str, int],
    *,
    cache: Optional[ExpansionBlockCache] = None,
    serialize: bool = True,
    merge_parallel: bool = True,
    blocks: Optional[BlockSet] = None,
) -> Optional[Tuple[FrozenBiValuedGraph, ExpandedNodeSpace]]:
    """Compile the constraint graph of ``G̃`` directly from ``(G, K)``.

    Produces the same graph as ``build_constraint_graph(expand_graph(G,
    K), repetition)`` — identical compiled ``scale``/``cost``/``transit``
    arrays, pinned by the parity suite — without materializing ``G̃`` or
    any per-arc ``Fraction``:

    1. per buffer, the expanded arc block is looked up in ``cache``
       under ``(buffer, K_src, K_dst)``, and the misses are derived
       together by one segmented affine-tile sweep and cached — unless
       ``blocks`` (:func:`derive_expansion_blocks`) resolved them all
       ahead for this ``K``, lookups counted. When ``cache`` keeps an
       assembly of this very K (same work plan and ``q̃``), only the
       buffers invalidated since — its dirty slots — are looked up; the
       others count as hits without a lookup;
    2. the resolved blocks are offset into the task-major node space
       and concatenated as int64 ``(src, dst, cost, β)`` arrays with one
       shared denominator ``q̃_t·ĩ_b`` per buffer; against an assembly,
       they are spliced into its arrays in place of the dirty slots'
       old segments, and ``cache`` keeps the result as the next
       compile's base at this K — a cold compile is the same with every
       slot dirty;
    3. parallel arcs merge through the shared vectorized lexsort pass,
       run over the arcs of buffers that share a task pair only (no
       other arc can be parallel to one); every other arc passes
       through in place;
    4. the global scale is the lcm of the per-arc *reduced* denominators
       ``den/gcd(β, den)`` (what ``Fraction`` normalization would have
       produced; arcs are reduced as they are assembled, merged minima
       as they are kept), and the scaled integer arrays feed
       :meth:`~repro.mcrp.compiled.CompiledGraph.from_int64_arrays`.

    ``repetition`` must be the expanded repetition vector ``q̃`` (see
    :func:`expanded_repetition_vector`) — the same one the legacy path
    receives.

    Returns ``None`` when the pipeline is unavailable — no numpy, or an
    int64 overflow gate tripped — in which case the caller runs the
    legacy expand+build path, which is exact at any magnitude.
    """
    if _np is None:
        return None
    if blocks is None:
        blocks = _resolve([(graph, K, repetition, cache)], serialize)[0]
        if blocks is None:
            return None
    plan = blocks.plan
    assembly = _assemble(blocks)
    if blocks.cache is not None:
        blocks.cache.store_assembly(assembly, blocks.evictions)
    space = assembly.space
    srcs, dsts, costs, betas, denoms = assembly.arcs

    if merge_parallel and plan.shared_pairs and srcs.shape[0]:
        # Only arcs of buffers sharing a task pair can share a node
        # pair (phase pairs are unique within one buffer).
        shared = _np.flatnonzero(
            _np.repeat(plan.shared, _np.diff(assembly.bounds)))
        merged = merge_parallel_candidates(
            srcs, dsts, costs, betas, denoms, space.node_count, only=shared
        )
        if merged is None:
            return None
        srcs, dsts, costs, betas, denoms = merged

    # Global scale = lcm of the per-arc denominators, which are reduced
    # (the assembly stores β/den in lowest terms, the merge reduces the
    # minima it keeps) — exactly the lcm of Fraction(−β, den).denominator
    # the legacy compile derives, without constructing a single Fraction.
    if srcs.shape[0]:
        scale = int64_lcm(denoms)
        if scale is None or scale >= _DIRECT_INT64_GUARD:
            return None
        factor = scale // denoms
        max_transit = int(_np.abs(betas).max()) * int(factor.max())
        max_cost = int(costs.max()) * scale
        if (
            max_transit >= _DIRECT_INT64_GUARD
            or max_cost >= _DIRECT_INT64_GUARD
        ):
            return None
        transit_scaled = -(betas * factor)
        cost_scaled = costs * scale
    else:
        scale = 1
        transit_scaled = cost_scaled = _np.empty(0, dtype=_np.int64)

    compiled = CompiledGraph.from_int64_arrays(
        node_count=space.node_count,
        labels=space.labels,
        src=srcs,
        dst=dsts,
        scale=scale,
        cost=cost_scaled,
        transit=transit_scaled,
    )
    return FrozenBiValuedGraph(compiled), space
