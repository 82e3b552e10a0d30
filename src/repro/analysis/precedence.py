"""Theorem 2: precedence constraints of a feasible periodic schedule.

For a buffer ``b = (t, t')`` and a phase pair ``(p, p')`` the paper defines

* ``Q_b(p,p') = Oa⟨t'_{p'},1⟩ − Ia⟨t_p,1⟩ − M0(b) + in_b(p)``
* ``gcd_b = gcd(i_b, o_b)``
* ``α_b(p,p') = ⌈ Q_b(p,p') − min(in_b(p), out_b(p')) ⌉^{gcd_b}``
* ``β_b(p,p')  = ⌊ Q_b(p,p') − 1 ⌋^{gcd_b}``

where ``⌈x⌉^γ``/``⌊x⌋^γ`` round to multiples of γ. A pair is *useful* when
``α ≤ β``; each useful pair yields the linear constraint

    ``S⟨t'_{p'},1⟩ − S⟨t_p,1⟩ ≥ d(t_p) + Ω · β_b(p,p') / (q_t · i_b)``

on the first start times of a periodic schedule of period Ω (Theorem 2).

Sanity anchors (hand-checked, also enforced by the unit tests):

* an all-ones self-loop with one token yields the phase-chaining
  constraints ``S⟨t_{p+1}⟩ ≥ S⟨t_p⟩ + d(t_p)`` (β = 0) plus a wrap-around
  constraint with ``β = −i_b`` giving the utilization bound
  ``Ω ≥ q_t · Σ_p d(t_p)``;
* on the Figure 1 buffer, ``⟨t'_2,1⟩`` becomes executable exactly at the
  completion of ``⟨t_1,2⟩``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

try:  # numpy accelerates the O(ϕ·ϕ') candidate sweep; optional
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.model.buffer import Buffer
from repro.model.graph import CsdfGraph
from repro.utils.rational import ceil_to_multiple, floor_to_multiple

#: Cell budget of one pass of the vectorized O(ϕ·ϕ') useful-pair sweep
#: (:func:`segmented_useful_pair_arrays`): each pass materializes at
#: most ``PAIR_SWEEP_BLOCK_CELLS`` int64 cells per intermediate (64 Ki
#: cells = 512 KiB each, a handful of them live at once). That bounds
#: the sweep's working memory whatever the request set — a whole fleet
#: round, or one huge K-expanded buffer — and is already far past the
#: size where numpy's per-call cost stops mattering.
PAIR_SWEEP_BLOCK_CELLS = 64 * 1024


@dataclass(frozen=True)
class PrecedenceConstraint:
    """One useful Theorem 2 constraint.

    The constraint reads ``S(target) − S(source) ≥ duration + Ω·omega_coeff``
    where *source* is the first execution of producer phase ``p`` and
    *target* the first execution of consumer phase ``p'``.

    ``omega_coeff`` is the exact fraction ``β/(q_t·i_b)``; in the bi-valued
    MCRP graph the arc carries ``(L, H) = (duration, −omega_coeff)``.
    """

    buffer_name: str
    source_task: str
    source_phase: int
    target_task: str
    target_phase: int
    duration: int
    beta: int
    omega_coeff: Fraction

    @property
    def height(self) -> Fraction:
        """The MCRP transit value ``H = −β/(q_t·i_b)``."""
        return -self.omega_coeff


def token_balance(buffer: Buffer, p: int, n: int, p_prime: int, n_prime: int) -> int:
    """``M0(b) + Ia⟨t_p,n⟩ − Oa⟨t'_{p'},n'⟩`` — the executability margin.

    ``⟨t'_{p'},n'⟩`` can be done at the completion of ``⟨t_p,n⟩`` iff this is
    non-negative (§3.1 of the paper).
    """
    return (
        buffer.initial_tokens
        + buffer.produced_upto(p, n)
        - buffer.consumed_upto(p_prime, n_prime)
    )


def q_value(buffer: Buffer, p: int, p_prime: int) -> int:
    """``Q_b(p,p')`` as defined above."""
    return (
        buffer.consumed_upto(p_prime, 1)
        - buffer.produced_upto(p, 1)
        - buffer.initial_tokens
        + buffer.production[p - 1]
    )


def constraint_window(buffer: Buffer, p: int, p_prime: int) -> Tuple[int, int]:
    """``(α_b(p,p'), β_b(p,p'))`` for one phase pair.

    The pair contributes a constraint iff ``α ≤ β``.
    """
    q = q_value(buffer, p, p_prime)
    gcd_b = buffer.rate_gcd
    in_p = buffer.production[p - 1]
    out_p = buffer.consumption[p_prime - 1]
    alpha = ceil_to_multiple(q - min(in_p, out_p), gcd_b)
    beta = floor_to_multiple(q - 1, gcd_b)
    return alpha, beta


def useful_pairs(buffer: Buffer) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(p, p', β)`` for every useful pair of the buffer.

    This is the set ``Y(b)`` of the paper, enumerated lazily: the number of
    candidate pairs is ``ϕ(t)·ϕ(t')`` which grows quadratically under
    K-expansion, so callers stream rather than materialize.
    """
    phi_p = len(buffer.production)
    phi_c = len(buffer.consumption)
    m0 = buffer.initial_tokens
    gcd_b = buffer.rate_gcd
    # Prefix sums once; the inner loop then runs on plain ints.
    produced_prefix = [0] * (phi_p + 1)
    for i, r in enumerate(buffer.production, start=1):
        produced_prefix[i] = produced_prefix[i - 1] + r
    consumed_prefix = [0] * (phi_c + 1)
    for i, r in enumerate(buffer.consumption, start=1):
        consumed_prefix[i] = consumed_prefix[i - 1] + r
    for p in range(1, phi_p + 1):
        in_p = buffer.production[p - 1]
        base = in_p - produced_prefix[p] - m0
        for p_prime in range(1, phi_c + 1):
            q = consumed_prefix[p_prime] + base
            out_p = buffer.consumption[p_prime - 1]
            alpha = ceil_to_multiple(q - min(in_p, out_p), gcd_b)
            beta = floor_to_multiple(q - 1, gcd_b)
            if alpha <= beta:
                yield p, p_prime, beta


def useful_pair_arrays(buffer: Buffer):
    """Vectorized ``Y(b)``: arrays ``(p0, pp0, beta)`` with 0-based phases.

    Semantically identical to :func:`useful_pairs` (a unit test pins the
    equivalence) but evaluates the α ≤ β filter with numpy, which is what
    makes K-expanded constraint generation tractable on the Table 2
    graphs: a one-segment call of :func:`segmented_useful_pair_arrays`.
    Falls back to the streaming implementation without numpy.
    """
    if _np is None:  # pragma: no cover - numpy is present in CI
        ps, pps, betas = [], [], []
        for p, pp, beta in useful_pairs(buffer):
            ps.append(p - 1)
            pps.append(pp - 1)
            betas.append(beta)
        return ps, pps, betas
    return segmented_useful_pair_arrays([(buffer, 1, 1)])[:3]


def expanded_useful_pair_arrays(buffer: Buffer, k_src: int, k_dst: int):
    """``Y(b̃)`` of the K-expanded buffer, straight from the base buffer.

    Returns the same ``(p0, pp0, beta)`` arrays
    :func:`useful_pair_arrays` would return on the materialized
    expansion (production duplicated ``k_src`` times, consumption
    ``k_dst`` times — §3.2's ``[v]^P`` operator), without building the
    expanded :class:`~repro.model.buffer.Buffer`: a one-segment call of
    :func:`segmented_useful_pair_arrays`.

    Requires numpy (the direct pipeline is gated on it); raises
    :class:`RuntimeError` otherwise.
    """
    return segmented_useful_pair_arrays([(buffer, k_src, k_dst)])[:3]


def segmented_useful_pair_arrays(requests: Sequence[Tuple[Buffer, int, int]]):
    """``Y(b̃)`` of many K-expanded buffers in one vectorized sweep.

    ``requests`` lists ``(buffer, k_src, k_dst)`` segments. Returns
    ``(p0, pp0, beta, bounds)``: stacked int64 arrays in which segment
    ``i`` is the slice ``bounds[i]:bounds[i + 1]`` and holds exactly
    what :func:`useful_pairs` yields on the materialized expansion
    (production duplicated ``k_src`` times, consumption ``k_dst`` times
    — §3.2's ``[v]^P`` operator), with 0-based phases, row-major in the
    producer phase.

    No expanded :class:`~repro.model.buffer.Buffer` is built. The
    expanded prefix sums are **affine in the tile index**,

        ``prefix̃[j·ϕ + p] = j·total + prefix[p]``,

    so they come from the base cumsum by one gather and one add, and the
    expanded rounding gcd is ``gcd(k_src·i_b, k_dst·o_b)``. Every
    segment's ``k_src·ϕ × k_dst·ϕ'`` cell grid is flattened row-major
    into one index space, and one α ≤ β test covers all cells of all
    segments; the per-buffer numpy overhead is gone, which is what
    matters on fleet graphs of a few cells per buffer.

    A pass holds at most :data:`PAIR_SWEEP_BLOCK_CELLS` cells: a larger
    request set is split into several passes at row boundaries, so one
    oversized buffer is swept in row blocks (a single row wider than the
    budget is its own pass). All-ones segments with ``k_src == k_dst``
    — every serialization loop — never enter the grid: with unit rates
    each expanded phase ``P`` has exactly one useful pair, the phase
    the ``M0``-th-next token enables, ``P' = (P + M0) mod ñ`` with
    ``β = P' − P − M0`` (the unique multiple of ``ñ = k·ϕ`` in the
    window), evaluated in Θ(ñ) for all such segments at once.

    Requires numpy; raises :class:`RuntimeError` otherwise.
    """
    if _np is None:  # pragma: no cover - numpy is present in CI
        raise RuntimeError("segmented_useful_pair_arrays requires numpy")
    np = _np
    ones: List[int] = []
    generic: List[int] = []
    for position, (buffer, k_src, k_dst) in enumerate(requests):
        prod = buffer.production
        if (k_src == k_dst and prod == buffer.consumption
                and prod.count(1) == len(prod)):
            ones.append(position)
        else:
            generic.append(position)

    parts = []
    if generic:
        buffers, k_p, k_c = zip(*[requests[position] for position in generic])
        k_p = np.asarray(k_p, dtype=np.int64)
        k_c = np.asarray(k_c, dtype=np.int64)
        rows = _expanded_rates([b.production for b in buffers], k_p)
        cols = _expanded_rates([b.consumption for b in buffers], k_c)
        parts.append(_grid_sweep(
            np.asarray(generic, dtype=np.int64), rows, cols,
            np.asarray([b.initial_tokens for b in buffers], dtype=np.int64),
            np.gcd(k_p * rows[-1], k_c * cols[-1]),
        ))
    if ones:
        buffers, k, _ = zip(*[requests[position] for position in ones])
        n = np.asarray([len(b.production) for b in buffers],
                       dtype=np.int64) * np.asarray(k, dtype=np.int64)
        seg, p = _segment_ranges(n)
        tokens = np.asarray([b.initial_tokens for b in buffers],
                            dtype=np.int64)[seg]
        pp = (p + tokens) % n[seg]
        parts.append((np.asarray(ones, dtype=np.int64)[seg],
                      p, pp, pp - p - tokens))
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(len(requests) + 1, np.int64)
    if len(parts) == 1:
        seg, p, pp, beta = parts[0]
    else:
        seg, p, pp, beta = (np.concatenate(arrays) for arrays in zip(*parts))
        # Two runs, each sorted by request: a stable sort interleaves
        # them back into request order, keeping row-major order inside.
        order = np.argsort(seg, kind="stable")
        seg, p, pp, beta = seg[order], p[order], pp[order], beta[order]
    bounds = np.searchsorted(seg, np.arange(len(requests) + 1), side="left")
    return p, pp, beta, bounds


def _segment_ranges(lengths):
    """``(segment, local index)`` of every element of concatenated ranges."""
    seg = _np.repeat(_np.arange(lengths.shape[0], dtype=_np.int64), lengths)
    starts = _np.cumsum(lengths) - lengths
    return seg, _np.arange(seg.shape[0], dtype=_np.int64) - starts[seg]


def _expanded_rates(vectors, ks):
    """Tiled rates and affine prefix sums of every segment, end to end.

    ``vectors`` holds each segment's base rate tuple and ``ks`` its
    duplication count. Returns ``(segment, local phase, rate, prefix,
    starts, lengths, totals)``: per expanded phase
    ``rate[j·ϕ + p] = rate[p]`` and
    ``prefix[j·ϕ + p] = j·total + Σ_{α≤p} rate[α]``, then each
    segment's start and length in that concatenation and its base
    total (``i_b`` or ``o_b``).
    """
    np = _np
    base = np.asarray([r for vector in vectors for r in vector],
                      dtype=np.int64)
    phi = np.asarray([len(vector) for vector in vectors], dtype=np.int64)
    lengths = phi * ks
    base_start = np.cumsum(phi) - phi
    totals = np.add.reduceat(base, base_start)
    # Per-buffer cumsums from one global cumsum; int64 wraps modulo
    # 2**64, so each difference is exact whenever its own value fits.
    cum = np.cumsum(base)
    seg, local = _segment_ranges(lengths)
    phi_e = phi[seg]
    tile = local // phi_e
    at = base_start[seg] + local - tile * phi_e
    before = (cum - base)[base_start]
    prefix = cum[at] - before[seg] + tile * totals[seg]
    return (seg, local, base[at], prefix, np.cumsum(lengths) - lengths,
            lengths, totals)


def _grid_sweep(index, rows, cols, m0, g):
    """The α ≤ β test over every cell of every generic segment.

    ``rows``/``cols`` are :func:`_expanded_rates` of the producer and
    consumer sides, ``index`` maps a segment to its request. Returns
    ``(request, p0, pp0, β)`` sorted by request, row-major within each.
    """
    np = _np
    row_seg, row_local, row_rate, row_prefix, _, _, _ = rows
    _, _, col_rate, col_prefix, col_start, col_len, _ = cols
    # in(P) − Σ_{α≤P} in(α) − M0 per expanded producer phase P
    base = row_rate - row_prefix - m0[row_seg]
    width = col_len[row_seg]
    row_col = col_start[row_seg]
    row_g = g[row_seg]
    cells_end = np.cumsum(width)
    out_rows: List = []
    out_cols: List = []
    out_beta: List = []
    lo = 0
    while lo < row_seg.shape[0]:
        # One pass: the rows whose cells fit the budget (at least one).
        first = int(cells_end[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(
            cells_end, first + PAIR_SWEEP_BLOCK_CELLS, side="right")))
        w = width[lo:hi]
        cell_start = cells_end[lo:hi] - w - first
        col = np.arange(int(cells_end[hi - 1]) - first, dtype=np.int64)
        col += np.repeat(row_col[lo:hi] - cell_start, w)
        # q − 1 per cell, and its residue modulo the rounding gcd g:
        # α ≤ β holds iff a multiple of g lies in [q − min, q − 1], i.e.
        # iff (q − 1) mod g < min(in, out), and then β = (q − 1) − that
        # residue (floor semantics, so negative q are exact too).
        q = col_prefix[col]
        q += np.repeat(base[lo:hi] - 1, w)
        residue = np.repeat(row_g[lo:hi], w)
        np.remainder(q, residue, out=residue)
        min_rate = np.repeat(row_rate[lo:hi], w)
        np.minimum(min_rate, col_rate[col], out=min_rate)
        hit = np.flatnonzero(residue < min_rate)
        out_rows.append(
            np.searchsorted(cell_start, hit, side="right") - 1 + lo)
        out_cols.append(col[hit])
        out_beta.append(q[hit] - residue[hit])
        lo = hi
    hit_rows = np.concatenate(out_rows)
    seg = row_seg[hit_rows]
    return (
        index[seg],
        row_local[hit_rows],
        np.concatenate(out_cols) - col_start[seg],
        np.concatenate(out_beta),
    )


def buffer_constraints(
    graph: CsdfGraph,
    buffer: Buffer,
    repetition: Dict[str, int],
) -> List[PrecedenceConstraint]:
    """All useful Theorem 2 constraints of one buffer.

    ``repetition`` must be the repetition vector of the graph the buffer
    belongs to (the denominator of the Ω coefficient is ``q_t·i_b`` with
    ``t`` the producer).
    """
    producer = graph.task(buffer.source)
    q_t = repetition[buffer.source]
    denom = q_t * buffer.total_production
    constraints = []
    for p, p_prime, beta in useful_pairs(buffer):
        constraints.append(
            PrecedenceConstraint(
                buffer_name=buffer.name,
                source_task=buffer.source,
                source_phase=p,
                target_task=buffer.target,
                target_phase=p_prime,
                duration=producer.duration(p),
                beta=beta,
                omega_coeff=Fraction(beta, denom),
            )
        )
    return constraints


def graph_constraints(
    graph: CsdfGraph,
    repetition: Dict[str, int],
) -> List[PrecedenceConstraint]:
    """Theorem 2 constraints of every buffer of the graph."""
    constraints: List[PrecedenceConstraint] = []
    for b in graph.buffers():
        constraints.extend(buffer_constraints(graph, b, repetition))
    return constraints
