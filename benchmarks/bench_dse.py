"""Ablation A6: incremental re-solve (DseSession) vs cold re-submission.

A design-space exploration is a *sequence* of near-identical solves:
probe i+1 differs from probe i by one capacity or one task's
durations. The cold baseline pays the full pipeline per probe —
repetition vector, serialization copy, every buffer's expansion
blocks, the whole K escalation ladder; the session re-solves
incrementally, recomputing only the touched buffers' blocks and
re-entering K-Iter at the previously certified K (seeded with the
previous λ* when the edit was monotone).

``test_sizing_sweep_beats_cold_submission`` is the acceptance gate of
the incremental engine: the identical probe sequence — a uniform
capacity-scale descent plus per-buffer shrinks, the shape of
``minimize_total_storage``'s search — must run ≥5x faster through one
``DseSession`` than through cold ``ThroughputService.submit_many``
calls (workers=0: inline solves, no pool overhead in the baseline),
with **bit-identical certified λ*** on every probe. The duration
sensitivity sweep rides along as an informational row.

``test_probe_time_goes_to_the_oracle`` splits one warm probe of the
same sweep on golden_synthetic2 into its layers: the edit
(``set_capacities``), block invalidation, the K-expansion compile, the
SCC sweep plus the component slice, the warm-certificate replay and
the positive-cycle oracle. A probe's one constraint graph is a single
SCC, so the bookkeeping around the oracle must stay ≤0.10 of the probe
wall; a probe edits one buffer or a few, and its compile re-derives
and splices only those into the last assembly, so on every live probe
each compile may splice at most as many assembly slots, and the probe
derive at most as many blocks per compile, as the probe edited
buffers (counts: they do not depend on the host; the compile plus edit
share of the wall is reported, not gated); and a probe whose λ* and
critical circuit did not move is proven by replaying the previous
probe's certificate, so ≥80% of the live probes must be certified
without an engine call (a count as well).

``test_uncertified_probes_start_from_the_schedule`` takes every live
probe of the same sweep whose certificate replay failed on a graph of
its K (outcome ``circuit-broken`` or ``not-quiet``) and solves that
probe's prepared constraint graph through ``solve_mcrp`` twice: once
started from the certificate's potentials, once from zero. λ* must be
identical, and over the probes where the hint was taken the seeded
solves must run ≤0.5x the Jacobi sweeps of the zero-start ones (read
from ``repro_mcrp_oracle_sweeps_total``; a count again). The probes
whose solve never ran a seeded sweep are reported as declined.

The tests add their rows to ``BENCH_dse.json`` and their lines to
``results/ablation_dse.txt``.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from benchmarks.conftest import BUDGET, write_artifact
from repro.analysis.consistency import repetition_vector
from repro.buffers.capacity import bound_all_buffers, minimal_buffer_capacity
from repro.dse import DseSession
from repro.exceptions import DeadlockError
from repro.io import load_graph
from repro.kperiodic import expansion, kiter, solver
from repro.kperiodic.expansion import ExpansionBlockCache
from repro.mcrp import decompose, ratio_iteration
from repro.mcrp.registry import DEFAULT_ENGINE, solve_mcrp
from repro.obs.metrics import REGISTRY

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
try:
    INDEX = json.loads((DATA / "golden_index.json").read_text())
except FileNotFoundError:  # pragma: no cover - sparse checkout
    pytest.skip(
        "golden corpus not present; regenerate with "
        "tools/make_golden_corpus.py",
        allow_module_level=True,
    )


def _corpus_by_expanded_size():
    """Golden graphs, largest full-q expansion first."""
    rows = []
    for entry in INDEX:
        graph = load_graph(DATA / entry["file"])
        q = repetition_vector(graph)
        size = sum(q[t.name] * t.phase_count for t in graph.tasks())
        rows.append((size, entry["file"], graph))
    rows.sort(key=lambda r: r[0], reverse=True)
    return rows


def _probe_sequence(graph, *, base_scale=16, per_buffer_limit=48):
    """The sizing-search probe shape: scale descent + per-buffer shrinks.

    Every probe is a *full* capacity map (what ``minimize_total_storage``
    evaluates), so the session and the cold baseline see byte-identical
    design points. The descent stops at ``base_scale`` (live on every
    corpus entry — capacity monotonicity keeps the whole ladder live);
    the per-buffer phase then halves one buffer at a time against the
    ``base_scale`` background, the exact inner loop of the local
    shrinking search.
    """
    floors = {
        b.name: minimal_buffer_capacity(b)
        for b in graph.buffers() if not b.is_self_loop()
    }
    probes = []
    for scale in (base_scale + 4, base_scale + 2, base_scale):
        probes.append({name: scale * floor
                       for name, floor in floors.items()})
    trial = {name: base_scale * floor for name, floor in floors.items()}
    for name in sorted(floors)[:per_buffer_limit]:
        trial = dict(trial)
        trial[name] = (base_scale // 2) * floors[name]
        probes.append(trial)
    return probes


def _session_sweep(graph, probes):
    """All probes through one session; returns (seconds, periods, stats)."""
    start = time.perf_counter()
    session = DseSession(bound_all_buffers(graph, probes[0]))
    periods = []
    for caps in probes:
        session.set_capacities(caps)
        try:
            periods.append(session.solve().period)
        except DeadlockError:
            periods.append(None)
    return time.perf_counter() - start, periods, session.stats()


def _cold_sweep(graph, probes):
    """The same probes, one cold service submission each."""
    from repro.service import ThroughputService

    periods = []
    with ThroughputService(workers=0) as service:
        start = time.perf_counter()
        for caps in probes:
            outcome = service.submit_many(
                [bound_all_buffers(graph, caps)])[0]
            periods.append(
                outcome.period if outcome.status == "OK" else None)
        elapsed = time.perf_counter() - start
    return elapsed, periods


def test_sizing_sweep_beats_cold_submission(results_dir):
    rows = []
    deadline = time.perf_counter() + BUDGET
    # Smallest of the top-3 first: the per-probe cold cost grows with
    # the expansion while the session's incremental cost grows slower,
    # so under a tight budget the most informative cell still runs.
    for size, name, graph in reversed(_corpus_by_expanded_size()[:3]):
        probes = _probe_sequence(graph)
        warm_s, warm_periods, stats = _session_sweep(graph, probes)
        cold_s, cold_periods = _cold_sweep(graph, probes)
        assert warm_periods == cold_periods, (
            f"exactness violated on {name}: session sweep diverged from "
            f"cold submissions"
        )
        rows.append((name, size, len(probes), cold_s, warm_s,
                     cold_s / max(warm_s, 1e-12), stats))
        if time.perf_counter() > deadline:
            break

    sensitivity_row = _sensitivity_sweep()

    text = "\n".join(
        f"{name:<24} nodes={size:<6} probes={n:<3} "
        f"cold-submit {cold * 1e3:9.2f}ms   "
        f"session {warm * 1e3:9.2f}ms   speedup {speedup:6.2f}x   "
        f"(blocks dropped {stats['invalidated_blocks']}, warm "
        f"{stats['warm_starts']})"
        for name, size, n, cold, warm, speedup, stats in rows
    )
    text += "\n" + sensitivity_row
    text += (
        "\n(identical probe sequences, bit-identical certified λ* per "
        "probe; cold = one ThroughputService(workers=0) submission per "
        "design point)"
    )
    best = max(rows, key=lambda r: r[5])
    _report(
        "sweep", text,
        [{"name": "sizing_sweep_speedup", "value": best[5], "unit": "x"},
         {"name": "sizing_sweep_session_seconds", "value": best[4],
          "unit": "s"},
         {"name": "sizing_sweep_cold_seconds", "value": best[3],
          "unit": "s"}],
        {"graph": best[0], "probes": best[2]},
    )
    assert best[5] >= 5.0, (
        f"incremental sizing sweep ({best[4]:.4f}s) must be ≥5x faster "
        f"than cold re-submission ({best[3]:.4f}s) on {best[0]}:\n{text}"
    )


def _sensitivity_sweep():
    """Informational: duration_sensitivity (session) vs cold per-probe."""
    from repro.analysis.sensitivity import duration_sensitivity
    from repro.kperiodic.kiter import throughput_kiter
    from repro.model.graph import CsdfGraph
    from repro.transforms.surgery import with_task_durations

    _, name, graph = _corpus_by_expanded_size()[2]
    start = time.perf_counter()
    warm_out = duration_sensitivity(graph)
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    cold = {}
    base = throughput_kiter(
        CsdfGraph.from_dict(graph.to_dict())).period
    for task in graph.task_names():
        original = graph.task(task).durations
        pair = []
        for scaled in (tuple(d // 2 for d in original),
                       tuple(d * 2 for d in original)):
            probe = with_task_durations(graph, task, scaled)
            pair.append(throughput_kiter(
                CsdfGraph.from_dict(probe.to_dict())).period)
        cold[task] = tuple(pair)
    cold_s = time.perf_counter() - start

    for task, sens in warm_out.items():
        assert sens.base_period == base
        assert (sens.period_when_faster,
                sens.period_when_slower) == cold[task], (
            f"sensitivity parity violated for task {task!r} on {name}"
        )
    return (
        f"{name:<24} sensitivity ({2 * len(cold) + 1} solves)    "
        f"cold {cold_s * 1e3:9.2f}ms   session {warm_s * 1e3:9.2f}ms   "
        f"speedup {cold_s / max(warm_s, 1e-12):6.2f}x"
    )


# ----------------------------------------------------------------------
# Where a warm probe's time goes
# ----------------------------------------------------------------------
#: The probe layers timed, each as the functions whose calls it sums.
_LAYERS = {
    "edit": [(DseSession, "set_capacities")],
    "invalidation": [(ExpansionBlockCache, "invalidate_buffer")],
    "compile": [(solver, "compile_expansion")],
    "scc_slice": [(decompose, "strongly_connected_node_sets"),
                  (decompose, "_subgraph")],
    "certify": [(kiter, "certify_warm")],
    "oracle": [(ratio_iteration, "find_positive_cycle"),
               (decompose, "find_positive_cycle")],
}


@contextmanager
def _timed_layers(monkeypatch):
    """Seconds spent inside each layer's functions while the block runs."""
    spent = dict.fromkeys(_LAYERS, 0.0)

    def timed(layer, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start
        return wrapper

    for layer, sites in _LAYERS.items():
        for owner, name in sites:
            monkeypatch.setattr(owner, name, timed(layer, getattr(owner, name)))
    yield spent
    monkeypatch.undo()


def test_probe_time_goes_to_the_oracle(results_dir, monkeypatch):
    graph = load_graph(DATA / "golden_synthetic2.json")
    probes = _probe_sequence(graph)
    session = DseSession(bound_all_buffers(graph, probes[0]))
    warm_periods = []
    for caps in probes:  # untimed: the cold first solve is not a probe
        session.set_capacities(caps)
        warm_periods.append(_solve(session))
    passes = 3
    wall = 0.0
    certified_before = session.certified
    # Per compile, the assembly slots it spliced into a kept assembly
    # (a cold assembly counts every slot of its plan).
    spliced = []
    assemble = expansion._assemble

    def counted(blocks):
        spliced.append(len(blocks.plan.names) if blocks.base is None
                       else len(blocks.slots))
        return assemble(blocks)

    # per probe: (buffers edited, slots per compile, blocks derived, live)
    work = []
    with _timed_layers(monkeypatch) as spent:
        monkeypatch.setattr(expansion, "_assemble", counted)
        previous = probes[-1]
        for _ in range(passes):
            periods = []
            for caps in probes:
                edited = sum(caps[name] != previous[name] for name in caps)
                previous = caps
                first = len(spliced)
                misses = session.stats()["cache"]["misses"]
                start = time.perf_counter()
                session.set_capacities(caps)
                periods.append(_solve(session))
                wall += time.perf_counter() - start
                work.append((edited, spliced[first:],
                             session.stats()["cache"]["misses"] - misses,
                             periods[-1] is not None))
            assert periods == warm_periods
    count = passes * len(probes)
    live = passes * sum(period is not None for period in warm_periods)
    certified = (session.certified - certified_before) / live
    ms = {layer: 1e3 * seconds / count for layer, seconds in spent.items()}
    probe_ms = 1e3 * wall / count
    share = (ms["invalidation"] + ms["scc_slice"]) / probe_ms
    patch_share = (ms["compile"] + ms["edit"]) / probe_ms
    live_work = [row for row in work if row[3]]
    # A live probe compiles at its certified K: each compile splices
    # the edited buffers' slots and derives their blocks, no more.
    overworked = [
        (edited, slots, derived)
        for edited, slots, derived, _live in live_work
        if max(slots, default=0) > edited or derived > edited * len(slots)
    ]
    spliced_per_probe = sum(sum(row[1]) for row in live_work) / live
    derived_per_probe = sum(row[2] for row in live_work) / live
    edited_per_probe = sum(row[0] for row in live_work) / live
    text = (
        f"golden_synthetic2.json   per warm probe ({count} probes): "
        f"wall {probe_ms:7.2f}ms   edit {ms['edit']:6.3f}ms"
        f"   invalidation {ms['invalidation']:6.3f}ms"
        f"   compile {ms['compile']:6.3f}ms"
        f"   scc+slice {ms['scc_slice']:6.3f}ms"
        f"   certify {ms['certify']:6.3f}ms"
        f"   oracle {ms['oracle']:7.2f}ms   "
        f"(invalidation+scc+slice share {share:.3f}, gate ≤0.10; "
        f"compile+edit share {patch_share:.3f}; per live probe "
        f"{edited_per_probe:.1f} buffers edited, {spliced_per_probe:.1f} "
        f"slots spliced, {derived_per_probe:.1f} blocks derived, gate "
        f"each ≤ edited per compile; certified without an engine call "
        f"{certified:.3f} of live probes, gate ≥0.80)"
    )
    _report(
        "probe_layers", text,
        [{"name": "probe_ms", "value": probe_ms, "unit": "ms"},
         {"name": "probe_edit_ms", "value": ms["edit"], "unit": "ms"},
         {"name": "probe_invalidation_ms", "value": ms["invalidation"],
          "unit": "ms"},
         {"name": "probe_compile_ms", "value": ms["compile"], "unit": "ms"},
         {"name": "probe_scc_slice_ms", "value": ms["scc_slice"],
          "unit": "ms"},
         {"name": "probe_certify_ms", "value": ms["certify"], "unit": "ms"},
         {"name": "probe_oracle_ms", "value": ms["oracle"], "unit": "ms"},
         {"name": "probe_bookkeeping_share", "value": share,
          "unit": "share"},
         {"name": "probe_compile_edit_share", "value": patch_share,
          "unit": "share"},
         {"name": "probe_edited_buffers", "value": edited_per_probe,
          "unit": "count/probe"},
         {"name": "probe_spliced_slots", "value": spliced_per_probe,
          "unit": "count/probe"},
         {"name": "probe_derived_blocks", "value": derived_per_probe,
          "unit": "count/probe"},
         {"name": "probe_certified_share", "value": certified,
          "unit": "share"}],
    )
    assert share <= 0.10, (
        f"invalidation + SCC + slice take {share:.3f} of a warm probe "
        f"(gate ≤0.10):\n{text}"
    )
    assert not overworked, (
        f"{len(overworked)} live probes compiled more than their edited "
        f"buffers, as (edited, slots spliced per compile, blocks "
        f"derived): {overworked[:5]}:\n{text}"
    )
    assert certified >= 0.80, (
        f"only {certified:.3f} of the live warm probes were certified "
        f"without an engine call (gate ≥0.80):\n{text}"
    )


# ----------------------------------------------------------------------
# An uncertified probe starts from the stored schedule
# ----------------------------------------------------------------------
_SWEEPS = REGISTRY.counter("repro_mcrp_oracle_sweeps_total")


def _oracle_sweeps():
    """``repro_mcrp_oracle_sweeps_total`` as ``(seeded, zero)``."""
    return (_SWEEPS.labels(start="seeded").value,
            _SWEEPS.labels(start="zero").value)


def test_uncertified_probes_start_from_the_schedule(results_dir, monkeypatch):
    graph = load_graph(DATA / "golden_synthetic2.json")
    probes = _probe_sequence(graph)
    session = DseSession(bound_all_buffers(graph, probes[0]))
    failed = []  # this probe's (prepared round, certificate) replays
    replay = kiter.certify_warm

    def recorded(prepared, certificate):
        check = replay(prepared, certificate)
        if check.outcome in ("circuit-broken", "not-quiet"):
            failed.append((prepared, certificate))
        return check

    monkeypatch.setattr(kiter, "certify_warm", recorded)
    rows = []  # (seeded sweeps, zero sweeps, seeded ms, zero ms, taken)
    for _ in range(2):  # the first pass's cold solve has no certificate
        for caps in probes:
            failed.clear()
            session.set_capacities(caps)
            if _solve(session) is None:
                continue
            for prepared, certificate in failed:
                before = _oracle_sweeps()
                start = time.perf_counter()
                seeded = solve_mcrp(
                    prepared.bi_graph, DEFAULT_ENGINE,
                    lower_bound=prepared.lower, start=certificate.hint)
                seeded_ms = 1e3 * (time.perf_counter() - start)
                middle = _oracle_sweeps()
                start = time.perf_counter()
                zero = solve_mcrp(prepared.bi_graph, DEFAULT_ENGINE,
                                  lower_bound=prepared.lower)
                zero_ms = 1e3 * (time.perf_counter() - start)
                after = _oracle_sweeps()
                assert seeded.ratio == zero.ratio, (
                    f"a seeded probe gave {seeded.ratio}, the zero start "
                    f"{zero.ratio}")
                rows.append((sum(middle) - sum(before),
                             sum(after) - sum(middle), seeded_ms, zero_ms,
                             middle[0] > before[0]))
    monkeypatch.undo()
    taken = [row for row in rows if row[4]]
    assert taken, "no uncertified live probe took its start hint"
    seeded_sweeps = sum(row[0] for row in taken)
    zero_sweeps = sum(row[1] for row in taken)
    ratio = seeded_sweeps / max(zero_sweeps, 1)
    text = (
        f"golden_synthetic2.json   uncertified live probes {len(rows)} "
        f"(hint declined on {len(rows) - len(taken)}): Jacobi sweeps "
        f"seeded {seeded_sweeps} vs zero start {zero_sweeps} "
        f"(ratio {ratio:.3f}, gate ≤0.5); solve "
        f"{sum(row[2] for row in rows):.2f}ms vs "
        f"{sum(row[3] for row in rows):.2f}ms"
    )
    _report(
        "seeded_probes", text,
        [{"name": "uncertified_probes", "value": len(rows), "unit": "count"},
         {"name": "uncertified_hints_declined",
          "value": len(rows) - len(taken), "unit": "count"},
         {"name": "seeded_sweeps", "value": seeded_sweeps, "unit": "count"},
         {"name": "zero_start_sweeps", "value": zero_sweeps,
          "unit": "count"},
         {"name": "seeded_sweep_ratio", "value": ratio, "unit": "ratio"}],
    )
    assert ratio <= 0.5, (
        f"seeded probes ran {ratio:.3f}x the zero-start sweeps "
        f"(gate ≤0.5):\n{text}"
    )


def _solve(session):
    try:
        return session.solve().period
    except DeadlockError:
        return None


#: Per-test rows and artifact lines, re-emitted whole by every test so
#: ``BENCH_dse.json`` and ``ablation_dse.txt`` carry all that ran.
_SECTIONS = {}


def _report(key, text, metrics, extra=None):
    from repro.obs.bench import emit_bench

    _SECTIONS[key] = (text, metrics, extra or {})
    sections = [_SECTIONS[k]
                for k in ("sweep", "probe_layers", "seeded_probes")
                if k in _SECTIONS]
    write_artifact("ablation_dse.txt",
                   "\n".join(text for text, _, _ in sections))
    envelope_extra = {}
    for _, _, section_extra in sections:
        envelope_extra.update(section_extra)
    emit_bench(
        "dse", [row for _, rows, _ in sections for row in rows],
        extra=envelope_extra,
        out_dir=str(Path(__file__).resolve().parent.parent),
    )
