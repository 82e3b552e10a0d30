"""Command-line interface: ``python -m repro <command> …``.

Commands
--------
``info``        graph summary, repetition vector, liveness, period bounds
``throughput``  exact/approximate throughput with a chosen method
``batch``       run a manifest of graphs through the throughput service
                (``--coordinator URL`` routes it through a coordinator;
                ``--trace out.jsonl`` records a flight-recorder trace)
``serve``       run a coordinator node (HTTP cache + job queue)
``worker``      run a worker daemon against a coordinator or queue
``serve-stats`` summarize the on-disk result cache, or a live
                coordinator with ``--coordinator URL`` (``--metrics``
                prints its raw Prometheus scrape)
``trace``       summarize a flight-recorder trace file (span trees,
                self/total time, top spans)
``convert``     JSON ↔ SDF3-XML ↔ DOT conversion (by file extension)
``gantt``       ASCII Gantt of the ASAP or optimal K-periodic schedule
``generate``    emit a benchmark graph (paper figures, apps, categories)
``engines``     list the registered MCRP engines and their fleet kernels
``bench``       regenerate Table 1 / Table 2

Graphs are read from ``.json`` (native format) or ``.xml`` (SDF3 subset).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from repro.analysis import is_consistent, is_live, repetition_vector
from repro.analysis.bounds import period_bounds
from repro.exceptions import ReproError
from repro.io import (
    graph_to_dot,
    load_graph,
    read_sdf3_xml,
    save_graph,
    write_sdf3_xml,
)
from repro.mcrp.registry import DEFAULT_ENGINE
from repro.model.graph import CsdfGraph


def _read_graph(path: str) -> CsdfGraph:
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return load_graph(path)
    if suffix == ".xml":
        return read_sdf3_xml(path)
    raise ReproError(f"unknown graph format {suffix!r} (use .json or .xml)")


def _write_graph(graph: CsdfGraph, path: str) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        save_graph(graph, path)
    elif suffix == ".xml":
        write_sdf3_xml(graph, path)
    elif suffix == ".dot":
        Path(path).write_text(graph_to_dot(graph))
    else:
        raise ReproError(
            f"unknown output format {suffix!r} (use .json, .xml or .dot)"
        )


# ----------------------------------------------------------------------
def cmd_info(args) -> int:
    graph = _read_graph(args.graph)
    print(graph.summary())
    if not is_consistent(graph):
        print("consistent: no (throughput undefined)")
        return 1
    q = repetition_vector(graph)
    print("consistent: yes")
    print("repetition vector:", q)
    print("sum(q):", sum(q.values()))
    live = is_live(graph)
    print("live:", "yes" if live else "no (deadlock)")
    if live:
        bounds = period_bounds(graph, q)
        print(f"period bounds: [{bounds.lower}, {bounds.upper}] "
              f"(bottleneck: {bounds.bottleneck_task})")
    else:
        from repro.analysis.deadlock import explain_deadlock

        diagnosis = explain_deadlock(graph)
        if diagnosis is not None:
            print(diagnosis.describe())
    return 0


def cmd_throughput(args) -> int:
    from repro.bench.runner import run_method

    graph = _read_graph(args.graph)
    outcome = run_method(args.method, graph, args.budget,
                         engine=args.engine)
    print(f"method: {args.method}")
    if args.engine is not None:
        print(f"engine: {args.engine}")
    print(f"status: {outcome.status}")
    if outcome.period is not None:
        print(f"period: {outcome.period}")
        if outcome.period != 0:
            th = Fraction(1, 1) / outcome.period
            print(f"throughput: {th} (~{float(th):.6g})")
    print(f"time: {outcome.time_text()}")
    return 0 if outcome.status in ("OK",) else 1


def _load_manifest(path: str):
    """Parse a batch manifest into ``(label, graph_path, expected)`` rows.

    Accepted shapes (all JSON): a list of path strings; a list of
    objects with ``"file"`` and an optional exact ``"period"``
    ``[num, den]`` pair (the golden-corpus ``golden_index.json`` is
    exactly this); or an object with a ``"graphs"`` key holding either.
    Paths are resolved relative to the manifest's directory.
    """
    import json

    manifest_path = Path(path)
    try:
        payload = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read manifest {path!r}: {exc}") from exc
    if isinstance(payload, dict):
        payload = payload.get("graphs")
    if not isinstance(payload, list) or not payload:
        raise ReproError(
            f"manifest {path!r} must be a non-empty JSON list of graph "
            "paths or {file, period?} objects (or {'graphs': [...]})"
        )
    rows = []
    for entry in payload:
        if isinstance(entry, str):
            file_name, expected = entry, None
        elif isinstance(entry, dict) and "file" in entry:
            file_name = entry["file"]
            period = entry.get("period")
            expected = None if period is None else Fraction(*period)
        else:
            raise ReproError(f"bad manifest entry {entry!r}")
        rows.append(
            (file_name, manifest_path.parent / file_name, expected)
        )
    return rows


def cmd_batch(args) -> int:
    import json

    from repro.service import ResultCache, ThroughputService

    if args.trace:
        # Configure before the service exists so spawned pool children
        # inherit REPRO_TRACE and append to the same file.
        from repro.obs.trace import configure_tracing

        configure_tracing(args.trace)
    if args.profile:
        # Same bootstrap rule: pool children inherit REPRO_PROFILE and
        # append their own envelopes to the same file.
        from repro.obs.profiler import configure_profiling

        configure_profiling(args.profile)
    rows = _load_manifest(args.manifest)
    cache = (
        ResultCache(disk_root=args.cache_dir)
        if args.cache_dir else ResultCache()
    )
    fallbacks = tuple(args.fallback or ())
    if args.coordinator and args.queue:
        raise ReproError("pick one of --coordinator or --queue")
    if args.coordinator or args.queue:
        from repro.distributed import CoordinatorClient, make_job_queue

        queue = (
            CoordinatorClient(args.coordinator) if args.coordinator
            else make_job_queue(args.queue)
        )
        service = ThroughputService(
            engine=args.engine,
            fallback_engines=fallbacks,
            time_budget=args.budget,
            cache=cache,
            queue=queue,
            queue_poll=args.poll,
            queue_wait_timeout=args.wait_timeout,
        )
    else:
        service = ThroughputService(
            engine=args.engine,
            fallback_engines=fallbacks,
            workers=args.workers,
            mp_context=args.mp_context,
            chunk_size=args.chunk_size,
            job_timeout=args.job_timeout,
            time_budget=args.budget,
            cache=cache,
        )
    failures = 0
    mismatches = 0
    with service:
        jobs = [
            service.job_for(_read_graph(str(graph_path)), label=label)
            for label, graph_path, _expected in rows
        ]
        outcomes = service.submit_many(jobs)
        with open(args.output, "w") as sink:
            for (label, _path, expected), outcome in zip(rows, outcomes):
                record = outcome.to_json_dict()
                record["file"] = label
                if outcome.status not in ("OK", "DEADLOCK"):
                    failures += 1
                if args.check and expected is not None:
                    matched = outcome.period == expected
                    record["expected_period"] = [
                        expected.numerator, expected.denominator
                    ]
                    record["matched"] = matched
                    if not matched:
                        mismatches += 1
                        print(
                            f"MISMATCH {label}: expected {expected}, "
                            f"got {outcome.period} "
                            f"(status {outcome.status})",
                            file=sys.stderr,
                        )
                sink.write(json.dumps(record) + "\n")
        stats = service.stats()
    print(f"wrote {args.output}: {stats.jobs} job(s), "
          f"{stats.by_status.get('OK', 0)} OK, {failures} failed")
    print(f"cache: {stats.cache.get('memory_hits', 0)} memory hit(s), "
          f"{stats.cache.get('disk_hits', 0)} disk hit(s), "
          f"{stats.batch_dedup} batch-dedup, {stats.solves} solve(s)")
    print(f"routing: {stats.batched} batched solve(s), "
          f"{stats.fallback} engine fallback(s)")
    if stats.pool:
        print(f"pool: {args.workers} worker(s), "
              f"{stats.pool['chunks']} chunk(s), "
              f"{stats.pool['crashes']} crash(es), "
              f"{stats.pool['timeouts']} timeout(s)")
    if args.coordinator or args.queue:
        remote_hits = sum(
            1 for o in outcomes if o.cache_hit == "remote"
        )
        print(f"coordinator: {args.coordinator or args.queue}, "
              f"{remote_hits} remote cache hit(s)")
        if stats.queue:
            queue_stats = stats.queue.get("queue", stats.queue)
            print("queue: " + ", ".join(
                f"{state}={queue_stats.get(state, 0)}"
                for state in ("pending", "leased", "done", "dead")
            ))
    print(f"wall time: {stats.wall_time:.3f}s")
    if args.trace:
        print(f"trace: {args.trace} (summarize with `repro trace "
              f"{args.trace}`)")
    from repro.obs.profiler import (profile_path, profiling_enabled,
                                    write_profile)
    if profiling_enabled():
        # Flush this process's samples now (pool children flush via
        # their atexit hooks) so the file is complete on return.
        written = write_profile()
        if written:
            print(f"profile: {written} (render with `repro profile "
                  f"{written}`)")
        else:
            print(f"profile: no samples landed in a profiled span "
                  f"(batch too fast for the sampling interval); "
                  f"{profile_path()} untouched")
    if args.check:
        checked = sum(1 for _l, _p, e in rows if e is not None)
        print(f"check: {checked - mismatches}/{checked} exact period "
              f"match(es)")
    return 1 if (failures or mismatches) else 0


def cmd_explore(args) -> int:
    import json

    from repro.service import ThroughputService

    manifest_path = Path(args.manifest)
    try:
        payload = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(
            f"cannot read manifest {args.manifest!r}: {exc}") from exc
    graph_file = None
    if isinstance(payload, list):
        points = payload
    elif isinstance(payload, dict):
        points = payload.get("points")
        graph_file = payload.get("graph")
    else:
        points = None
    if not isinstance(points, list) or not points:
        raise ReproError(
            f"manifest {args.manifest!r} must be a non-empty JSON list "
            "of design points (or {'graph': ..., 'points': [...]}); see "
            "docs/dse.md for the point/edit schema"
        )
    if args.graph:
        graph = _read_graph(args.graph)
    elif isinstance(graph_file, str):
        graph = _read_graph(str(manifest_path.parent / graph_file))
    else:
        raise ReproError(
            "no graph to explore: pass --graph FILE or put a 'graph' "
            "path in the manifest"
        )
    with ThroughputService(
        engine=args.engine, workers=args.workers,
        warm_start=not args.no_warm,
    ) as service:
        records = service.explore(graph, points, check=args.check)
    failures = 0
    deadlocks = 0
    with open(args.output, "w") as sink:
        for record in records:
            if record["status"] == "DEADLOCK":
                deadlocks += 1
            elif record["status"] != "OK":
                failures += 1
            sink.write(json.dumps(record) + "\n")
    print(f"wrote {args.output}: {len(records)} design point(s), "
          f"{len(records) - failures - deadlocks} OK, "
          f"{deadlocks} deadlocked, {failures} failed")
    if args.check:
        print(f"check: every certified λ* matched a cold solve "
              f"({len(records)} point(s))")
    return 1 if failures else 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.distributed import (
        CoordinatorServer,
        make_cache_backend,
        make_job_queue,
    )

    if args.cache.startswith(("http://", "https://")) or \
            args.queue.startswith(("http://", "https://")):
        raise ReproError(
            "a coordinator owns its own storage; give it a "
            "memory/disk/sqlite cache and a memory/sqlite queue"
        )
    cache = make_cache_backend(args.cache)
    queue = make_job_queue(
        args.queue,
        visibility_timeout=args.visibility_timeout,
        max_attempts=args.max_attempts,
    )
    server = CoordinatorServer(
        host=args.host, port=args.port, cache=cache, queue=queue,
        verbose=args.verbose,
    )
    server.start()
    print(f"coordinator listening on {server.url}", flush=True)
    print(f"cache backend: {cache.name}; queue backend: {queue.name} "
          f"(visibility {queue.visibility_timeout:g}s, "
          f"max {queue.max_attempts} attempt(s))", flush=True)
    stop = threading.Event()

    def _shutdown(signum, frame):  # pragma: no cover - signal path
        stop.set()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        stop.wait()
    finally:
        server.shutdown()
        print("coordinator stopped")
    return 0


def cmd_worker(args) -> int:
    import signal

    from repro.distributed import (
        CoordinatorClient,
        Worker,
        make_cache_backend,
        make_job_queue,
    )

    if bool(args.coordinator) == bool(args.queue):
        raise ReproError(
            "pick exactly one job source: --coordinator URL or "
            "--queue sqlite:PATH"
        )
    if args.coordinator:
        queue = CoordinatorClient(args.coordinator)
        source = args.coordinator
    else:
        queue = make_job_queue(
            args.queue, visibility_timeout=args.visibility_timeout or 30.0
        )
        source = args.queue
    cache = make_cache_backend(args.cache) if args.cache else None
    worker = Worker(
        queue,
        cache=cache,
        worker_id=args.id,
        workers=args.workers,
        mp_context=args.mp_context,
        chunk_size=args.chunk_size,
        poll_interval=args.poll,
        visibility_timeout=args.visibility_timeout,
        drain=args.drain,
        max_chunks=args.max_chunks,
    )

    def _shutdown(signum, frame):  # pragma: no cover - signal path
        worker.stop()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    print(f"worker {worker.worker_id} draining {source} "
          f"(chunk {worker.chunk_size}, "
          f"{args.workers or 'inline'} solver process(es))", flush=True)
    stats = worker.run()
    print(f"worker {worker.worker_id} stopped: "
          f"{stats.jobs} job(s) in {stats.chunks} chunk(s), "
          f"{stats.acks} acked, {stats.stale} stale, "
          f"{stats.nacks} nacked")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.summary import load_events, render_summary
    from repro.obs.trace import trace_dropped_total

    events = load_events(args.file)
    if not events:
        print(f"no trace events in {args.file}")
        return 1
    print(render_summary(
        events, top=args.top, trace_id=args.trace_id,
        max_traces=args.max_traces, dropped=trace_dropped_total(),
    ))
    return 0


def cmd_profile(args) -> int:
    from repro.obs.summary import load_profiles, render_profile

    try:
        envelopes = load_profiles(args.file)
    except OSError as exc:
        raise ReproError(f"cannot read profile {args.file!r}: {exc}")
    if not envelopes:
        print(f"no profile envelopes in {args.file}")
        return 1
    print(render_profile(envelopes, top=args.top))
    return 0


def cmd_replay(args) -> int:
    from repro.obs.slowlog import render_replay, replay_entry

    try:
        report = replay_entry(args.entry, trace=not args.no_trace)
    except (OSError, ValueError, KeyError) as exc:
        raise ReproError(f"cannot replay {args.entry!r}: {exc}")
    print(render_replay(report), end="")
    return 0 if report["match"] else 1


def cmd_bench_report(args) -> int:
    from repro.obs.history import (bench_report, history_path,
                                   load_history, render_bench_report)

    paths = [Path(p) for p in args.bench] if args.bench else \
        sorted(Path(".").glob("BENCH_*.json"))
    hist = Path(args.history) if args.history else history_path()
    rows = load_history(hist) if hist else []
    threshold = args.threshold / 100.0
    report = bench_report(paths, rows, threshold=threshold)
    print(render_bench_report(report, threshold=threshold), end="")
    if not report:
        return 0  # nothing to gate on — CI-friendly no-op
    regressed = [row for row in report if row["regressed"]]
    if regressed and not args.informational:
        return 1
    return 0


def cmd_report(args) -> int:
    if args.coordinator:
        from repro.distributed.client import http_text

        status, body = http_text(f"{args.coordinator}/report")
        if status != 200:
            raise ReproError(
                f"coordinator /report returned HTTP {status}")
        html = body
    else:
        import json

        from repro.obs.history import history_path, load_history
        from repro.obs.metrics import REGISTRY
        from repro.obs.report import build_report
        from repro.obs.slowlog import slowlog_entries
        from repro.obs.summary import load_events
        from repro.obs.trace import trace_dropped_total

        events = load_events(args.trace) if args.trace else []
        captures = []
        for path in slowlog_entries(args.slowlog):
            try:
                captures.append(
                    json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue
        hist = Path(args.history) if args.history else history_path()
        rows = load_history(hist) if hist else []
        html = build_report(
            snapshot=REGISTRY.snapshot(), events=events,
            slowlog_entries=captures, history_rows=rows,
            dropped=trace_dropped_total(),
        )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html, encoding="utf-8")
    print(f"wrote {out} ({len(html)} bytes)")
    return 0


def _coordinator_stats(url: str, *, metrics: bool = False) -> int:
    from repro.distributed import CoordinatorClient

    client = CoordinatorClient(url)
    if metrics:
        # the raw Prometheus scrape, exactly as a scraper would see it
        sys.stdout.write(client.metrics_text())
        return 0
    stats = client.stats()
    print(f"coordinator: {url}")
    print(f"uptime: {stats.get('uptime', 0):.1f}s, "
          f"jobs submitted: {stats.get('submitted', 0)} "
          f"({stats.get('cache_short_circuits', 0)} cache "
          f"short-circuit(s))")
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    rate = (100.0 * cache.get("hits", 0) / lookups) if lookups else 0.0
    print(f"cache [{cache.get('backend', '?')}]: "
          f"{cache.get('hits', 0)} hit(s), "
          f"{cache.get('misses', 0)} miss(es) ({rate:.0f}% hit rate), "
          f"{cache.get('puts', 0)} put(s), "
          f"{cache.get('entries', '?')} entrie(s)")
    queue = stats.get("queue", {})
    print(f"queue [{queue.get('backend', '?')}]: " + ", ".join(
        f"{state}={queue.get(state, 0)}"
        for state in ("pending", "leased", "done", "dead")
    ) + f", {queue.get('redeliveries', 0)} redeliverie(s)")
    workers = stats.get("workers", {})
    print(f"workers: {len(workers)} seen")
    for worker_id, info in sorted(workers.items()):
        print(f"  {worker_id}: last seen {info.get('age', 0):.1f}s ago, "
              f"{info.get('leases', 0)} lease(s), "
              f"{info.get('results', 0)} result(s), "
              f"{info.get('heartbeats', 0)} heartbeat(s)")
    dead = stats.get("dead_letters", [])
    if dead:
        print(f"dead letters: {len(dead)}")
        for entry in dead:
            print(f"  {entry['digest'][:12]}…: {entry['error']} "
                  f"({entry['attempts']} attempt(s))")
    else:
        print("dead letters: none")
    return 0


def cmd_serve_stats(args) -> int:
    from collections import Counter

    from repro.service import ResultCache

    if args.coordinator:
        return _coordinator_stats(args.coordinator, metrics=args.metrics)
    if args.metrics:
        raise ReproError("--metrics needs --coordinator URL")
    cache = ResultCache(memory_size=0, disk_root=args.cache_dir)
    statuses: Counter = Counter()
    engines: Counter = Counter()
    entries = 0
    batched = 0
    solve_time = 0.0
    for _digest, outcome in cache.disk_entries():
        entries += 1
        statuses[outcome.get("status", "?")] += 1
        engines[outcome.get("engine_used") or "?"] += 1
        batched += bool(outcome.get("batched"))
        solve_time += outcome.get("wall_time", 0.0)
    print(f"cache dir: {args.cache_dir}")
    print(f"entries: {entries} "
          f"({cache.disk_size_bytes() / 1024:.1f} KiB)")
    if not entries:
        return 0
    print("by status: " + ", ".join(
        f"{status}={count}" for status, count in sorted(statuses.items())
    ))
    print("by engine: " + ", ".join(
        f"{engine}={count}" for engine, count in sorted(engines.items())
    ))
    print(f"batched solves: {batched}/{entries}")
    print(f"solve time banked: {solve_time:.3f}s "
          f"(re-spent on every hit instead of re-solving)")
    return 0


def cmd_convert(args) -> int:
    graph = _read_graph(args.input)
    _write_graph(graph, args.output)
    print(f"wrote {args.output}")
    return 0


def _binding_from_args(graph, args):
    """``--resources N`` → a balanced N-processor unit-capacity binding."""
    resources = getattr(args, "resources", None)
    if not resources:
        return None
    from repro.scheduling import ResourceBinding

    return ResourceBinding.balanced(graph, resources)


def _policy_options_from_args(args):
    # only forward what the user actually set — policies reject options
    # they don't understand, which is the right failure for e.g.
    # ``--policy asap --priority mobility``.
    options = {}
    priority = getattr(args, "priority", None)
    if priority:
        options["priority"] = priority
    return options


def cmd_gantt(args) -> int:
    from repro.scheduling import asap_schedule, policy_gantt, render_gantt

    graph = _read_graph(args.graph)
    policy = args.policy
    if args.kperiodic and policy is None:
        policy = "asap"  # historic spelling of --policy asap
    if policy is not None:
        print(policy_gantt(
            graph, policy,
            engine=args.engine,
            binding=_binding_from_args(graph, args),
            horizon_iterations=args.iterations,
            width=args.width,
            **_policy_options_from_args(args),
        ))
        return 0
    records = asap_schedule(graph, iterations=args.iterations)
    print("as-soon-as-possible schedule (self-timed simulation)")
    print(render_gantt(records, width=args.width))
    return 0


def cmd_generate(args) -> int:
    from repro.generators import (
        blackscholes, echo, figure1_buffer, figure2_graph, h263_decoder,
        h264_encoder, jpeg2000, large_hsdf, large_transient, mimic_dsp,
        modem, mp3_playback, pdetect, samplerate_converter,
        satellite_receiver,
    )
    from repro.generators.synthetic import (
        graph1, graph2, graph3, graph4, graph5,
    )

    seeded = {
        "mimic-dsp": mimic_dsp,
        "large-hsdf": large_hsdf,
        "large-transient": large_transient,
    }
    scaled = {
        "blackscholes": blackscholes,
        "echo": echo,
        "jpeg2000": jpeg2000,
        "pdetect": pdetect,
        "h264": h264_encoder,
        "graph1": graph1, "graph2": graph2, "graph3": graph3,
        "graph4": graph4, "graph5": graph5,
    }
    plain = {
        "figure1": figure1_buffer,
        "figure2": figure2_graph,
        "h263": h263_decoder,
        "samplerate": samplerate_converter,
        "satellite": satellite_receiver,
        "modem": modem,
        "mp3": mp3_playback,
    }
    name = args.name
    if name in seeded:
        graph = seeded[name](args.seed)
    elif name in scaled:
        graph = scaled[name](args.scale)
    elif name in plain:
        graph = plain[name]()
    else:
        known = sorted([*seeded, *scaled, *plain])
        raise ReproError(f"unknown generator {name!r}; choose from {known}")
    _write_graph(graph, args.output)
    print(f"wrote {args.output}: {graph.task_count} tasks, "
          f"{graph.buffer_count} buffers")
    return 0


def cmd_schedule(args) -> int:
    from repro.io.schedule_format import save_schedule
    from repro.scheduling import build_schedule

    graph = _read_graph(args.graph)
    outcome = build_schedule(
        graph, args.policy or "asap",
        engine=args.engine,
        binding=_binding_from_args(graph, args),
        **_policy_options_from_args(args),
    )
    outcome.schedule.verify(graph, iterations=3)
    save_schedule(outcome.schedule, args.output)
    print(f"policy: {outcome.policy}")
    print(f"period: {outcome.omega}")
    print(f"K: {outcome.K}")
    for key in sorted(outcome.stats):
        print(f"  {key}: {outcome.stats[key]}")
    print(f"schedule verified over 3 iterations and written to "
          f"{args.output}")
    return 0


def cmd_map(args) -> int:
    from repro.kperiodic import throughput_kiter
    from repro.mapping import greedy_load_balance, throughput_under_mapping

    graph = _read_graph(args.graph)
    limit = throughput_kiter(graph).period
    print(f"dataflow-limited period (no resource constraint): {limit}")
    for procs in range(1, args.processors + 1):
        mapping = greedy_load_balance(graph, procs)
        result, _ = throughput_under_mapping(graph, mapping)
        usage = len(mapping.processors())
        print(f"{procs} processor(s): period {result.period} "
              f"({usage} used, {mapping.granularity}-granular orders)")
    return 0


def cmd_engines(args) -> int:
    from repro.mcrp.batched import BATCHED_ORACLES
    from repro.mcrp.registry import all_engines

    print("registered MCRP engines (selectable via throughput --engine):")
    print()
    for info in all_engines():
        batched = "[batched]" if info.name in BATCHED_ORACLES else ""
        print(f"  {info.name:<16} {batched}".rstrip())
        if info.summary:
            print(f"  {'':<16} {info.summary}")
    return 0


def cmd_policies(args) -> int:
    from repro.scheduling import all_policies, priority_names

    print("registered scheduling policies "
          "(selectable via schedule/gantt --policy):")
    print()
    for info in all_policies():
        flags = []
        if info.resource_constrained:
            flags.append("resource-constrained")
        if info.refinement:
            flags.append("refinement")
        flags.append("certified-period")  # the family invariant
        print(f"  {info.name:<16} [{', '.join(flags)}]")
        if info.summary:
            print(f"  {'':<16} {info.summary}")
    print()
    print(f"list-scheduling priorities: {', '.join(priority_names())}")
    return 0


def cmd_bench(args) -> int:
    if args.table == "table1":
        from repro.bench import format_table1, run_table1

        rows = run_table1(
            graphs_per_category=args.count, budget=args.budget
        )
        print(format_table1(rows))
    else:
        from repro.bench import format_table2, run_table2

        blocks = run_table2(scale=args.scale, budget=args.budget)
        print(format_table2(blocks))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exact CSDF throughput evaluation (K-Iter, DAC'16).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="analyse a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("throughput", help="evaluate throughput")
    p.add_argument("graph")
    # method and engine names are validated by the registry-driven
    # run_method (its errors list the choices); resolving them here
    # would drag the whole engine stack into every CLI invocation,
    # including info/convert, and would go stale as engines register.
    p.add_argument("--method", default="kiter", metavar="METHOD",
                   help="throughput method: kiter, kiter-fullq, "
                        "periodic, symbolic, expansion, expansion-full, "
                        "unfolding, maxplus, or kiter@<engine>")
    p.add_argument("--engine", default=None, metavar="ENGINE",
                   help="MCRP engine for the kiter methods "
                        "(see `repro engines`)")
    p.add_argument("--budget", type=float, default=60.0,
                   help="wall-clock budget in seconds")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser(
        "batch",
        help="run a manifest of graphs through the throughput service",
    )
    p.add_argument("manifest",
                   help="JSON list of graph paths or {file, period?} "
                        "objects (e.g. tests/data/golden_index.json)")
    p.add_argument("-o", "--output", required=True,
                   help="JSONL sink: one result object per graph")
    p.add_argument("--workers", type=int, default=0,
                   help="solver pool processes (0 = solve inline)")
    p.add_argument("--engine", default=DEFAULT_ENGINE, metavar="ENGINE",
                   help="primary MCRP engine (see `repro engines`)")
    p.add_argument("--fallback", action="append", metavar="ENGINE",
                   default=None,
                   help="fallback engine(s) tried on certification "
                        "failure (repeatable; default none)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent result cache directory "
                        "(e.g. results/cache)")
    p.add_argument("--budget", type=float, default=None,
                   help="per-job wall-clock budget in seconds")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="hard per-job pool timeout in seconds "
                        "(kills the worker)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="jobs per pool chunk (default: auto)")
    p.add_argument("--mp-context", default=None,
                   choices=["fork", "spawn", "forkserver"],
                   help="multiprocessing start method")
    p.add_argument("--check", action="store_true",
                   help="verify exact periods against the manifest's "
                        "`period` entries (nonzero exit on mismatch)")
    p.add_argument("--coordinator", default=None, metavar="URL",
                   help="route the batch through a coordinator node "
                        "(its workers solve; --workers is ignored)")
    p.add_argument("--queue", default=None, metavar="SPEC",
                   help="route the batch through a shared job queue "
                        "instead (sqlite:PATH + `repro worker --queue`)")
    p.add_argument("--poll", type=float, default=0.1,
                   help="result poll interval in coordinator mode "
                        "(seconds)")
    p.add_argument("--wait-timeout", type=float, default=None,
                   help="give up on unanswered coordinator jobs after "
                        "this many seconds (default: wait forever)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record a flight-recorder trace (JSONL spans; "
                        "summarize with `repro trace FILE`)")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="attach the sampling profiler (JSONL envelopes; "
                        "render with `repro profile FILE`)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "explore",
        help="sweep an edit manifest through one incremental DSE session",
    )
    p.add_argument("manifest",
                   help="JSON design-point list (or {'graph': PATH, "
                        "'points': [...]}); each point is {name?, "
                        "reset?, edits: [{op, ...}]} — see docs/dse.md")
    p.add_argument("-o", "--output", required=True,
                   help="JSONL sink: one certified result per point")
    p.add_argument("--graph", default=None, metavar="FILE",
                   help="base graph (overrides the manifest's "
                        "'graph' path)")
    p.add_argument("--engine", default=DEFAULT_ENGINE, metavar="ENGINE",
                   help="MCRP engine (see `repro engines`)")
    p.add_argument("--workers", type=int, default=0,
                   help="0 runs the session inline; N>=1 ships the "
                        "whole sweep to one pool worker")
    p.add_argument("--no-warm", action="store_true",
                   help="disable warm-start seeding (identical results; "
                        "ablation/debug switch)")
    p.add_argument("--check", action="store_true",
                   help="re-solve every point cold and assert "
                        "bit-identical λ* (the exactness contract)")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "serve",
        help="run a coordinator node (HTTP job queue + result cache)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8350,
                   help="TCP port (0 picks an ephemeral one)")
    p.add_argument("--cache", default="memory", metavar="SPEC",
                   help="cache backend: memory[:N], disk:DIR, "
                        "sqlite:PATH (default memory)")
    p.add_argument("--queue", default="memory", metavar="SPEC",
                   help="queue backend: memory or sqlite:PATH "
                        "(default memory)")
    p.add_argument("--visibility-timeout", type=float, default=30.0,
                   help="seconds a lease stays exclusive without a "
                        "heartbeat")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="deliveries per job before dead-lettering")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run a worker daemon against a coordinator or shared queue",
    )
    p.add_argument("--coordinator", default=None, metavar="URL",
                   help="coordinator to lease jobs from")
    p.add_argument("--queue", default=None, metavar="SPEC",
                   help="lease directly from a shared queue instead "
                        "(sqlite:PATH)")
    p.add_argument("--cache", default=None, metavar="SPEC",
                   help="optional local write-through cache backend "
                        "(for --queue mode; a coordinator caches "
                        "server-side)")
    p.add_argument("--id", default=None,
                   help="worker id shown in coordinator stats")
    p.add_argument("--workers", type=int, default=0,
                   help="solver pool processes (0 = solve inline)")
    p.add_argument("--mp-context", default=None,
                   choices=["fork", "spawn", "forkserver"])
    p.add_argument("--chunk-size", type=int, default=4,
                   help="jobs leased per round trip")
    p.add_argument("--poll", type=float, default=0.5,
                   help="idle sleep between empty leases (seconds)")
    p.add_argument("--visibility-timeout", type=float, default=None,
                   help="lease exclusivity window override (seconds)")
    p.add_argument("--drain", action="store_true",
                   help="exit once the queue is empty")
    p.add_argument("--max-chunks", type=int, default=None,
                   help="stop after this many chunks (smoke tests)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "serve-stats",
        help="summarize the on-disk result cache or a live coordinator",
    )
    p.add_argument("--cache-dir", default="results/cache", metavar="DIR")
    p.add_argument("--coordinator", default=None, metavar="URL",
                   help="print a live coordinator's /stats instead "
                        "(hit rates, queue depth, worker liveness)")
    p.add_argument("--metrics", action="store_true",
                   help="print the coordinator's raw /metrics scrape "
                        "(Prometheus text) instead of the summary")
    p.set_defaults(func=cmd_serve_stats)

    p = sub.add_parser(
        "trace",
        help="summarize a flight-recorder trace file",
    )
    p.add_argument("file", help="JSONL trace (from `repro batch --trace`)")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the top-spans table")
    p.add_argument("--trace-id", default=None,
                   help="show only this trace's span tree")
    p.add_argument("--max-traces", type=int, default=5,
                   help="span trees rendered before eliding")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="render a sampling-profiler file (flame/self-time tables)",
    )
    p.add_argument("file", help="JSONL profile (from `repro batch "
                                "--profile` or REPRO_PROFILE=1)")
    p.add_argument("--top", type=int, default=15,
                   help="frames shown per span")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "replay",
        help="re-solve a slowlog capture and diff it (nonzero exit on "
             "λ* mismatch)",
    )
    p.add_argument("entry", help="slowlog JSON file "
                                 "(see results/slowlog/)")
    p.add_argument("--no-trace", action="store_true",
                   help="skip the replay trace / self-time diff")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "bench-report",
        help="compare BENCH_*.json against best-of-history (nonzero "
             "exit on regression)",
    )
    p.add_argument("bench", nargs="*",
                   help="BENCH_*.json files (default: glob the current "
                        "directory)")
    p.add_argument("--history", default=None, metavar="FILE",
                   help="history JSONL (default: "
                        "results/bench_history.jsonl, or "
                        "$REPRO_BENCH_HISTORY)")
    p.add_argument("--threshold", type=float, default=30.0,
                   help="regression threshold in percent (default 30)")
    p.add_argument("--informational", action="store_true",
                   help="report regressions but always exit 0")
    p.set_defaults(func=cmd_bench_report)

    p = sub.add_parser(
        "report",
        help="write the static HTML ops report",
    )
    p.add_argument("-o", "--output", required=True,
                   help="HTML file to write")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="fold a JSONL trace file into the span sections")
    p.add_argument("--slowlog", default=None, metavar="DIR",
                   help="slowlog directory (default: the configured "
                        "root, or $REPRO_SLOWLOG)")
    p.add_argument("--history", default=None, metavar="FILE",
                   help="bench history JSONL (default: "
                        "results/bench_history.jsonl)")
    p.add_argument("--coordinator", default=None, metavar="URL",
                   help="fetch a live coordinator's GET /report instead "
                        "of building locally")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("convert", help="convert between formats")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gantt", help="render a schedule")
    p.add_argument("graph")
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--kperiodic", action="store_true",
                   help="render the optimal K-periodic schedule "
                        "instead of the self-timed simulation "
                        "(alias for --policy asap)")
    p.add_argument("--policy", default=None,
                   help="render a registered scheduling policy's "
                        "K-periodic schedule (see `repro policies`)")
    p.add_argument("--engine", default=DEFAULT_ENGINE,
                   help="MCRP engine for the certification solve")
    p.add_argument("--resources", type=int, default=None,
                   help="balanced N-processor unit-capacity binding "
                        "for resource-constrained policies")
    p.add_argument("--priority", default=None,
                   help="list-scheduling priority function")
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser("generate", help="emit a benchmark graph")
    p.add_argument("name")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("schedule",
                       help="export a certified schedule "
                            "(any registered policy)")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--policy", default="asap",
                   help="scheduling policy (see `repro policies`)")
    p.add_argument("--engine", default=DEFAULT_ENGINE,
                   help="MCRP engine for the certification solve")
    p.add_argument("--resources", type=int, default=None,
                   help="balanced N-processor unit-capacity binding "
                        "for resource-constrained policies")
    p.add_argument("--priority", default=None,
                   help="list-scheduling priority function")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("map", help="throughput under greedy mappings")
    p.add_argument("graph")
    p.add_argument("--processors", type=int, default=4,
                   help="sweep 1..N processors")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("engines",
                       help="list the registered MCRP engines")
    p.set_defaults(func=cmd_engines)

    p = sub.add_parser("policies",
                       help="list the registered scheduling policies")
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser("bench", help="regenerate a paper table")
    p.add_argument("table", choices=["table1", "table2"])
    p.add_argument("--budget", type=float, default=20.0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
