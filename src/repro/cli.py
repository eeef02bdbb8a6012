"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan``      — plan + simulate iterations of a Table 3/6 model and
                  print per-iteration statistics and the schedule diagram.
* ``compare``   — run all systems on a shared workload (a mini Fig. 8a).
* ``models``    — list the model zoo and combinations.
* ``trace``     — the trace & telemetry subsystem: ``export`` /
                  ``analyze`` / ``compare`` / ``recalibrate`` /
                  ``validate`` over per-rank event timelines.
* ``serve``     — run the concurrent planning service: DP replicas of
                  one or more jobs hammer a shared service (request
                  coalescing, shared plan cache, optional online
                  recalibration).  With ``--listen HOST:PORT`` or
                  ``--uds PATH`` the service is exposed over a socket
                  to *other processes* instead.
* ``fleet``     — the sharded planning fleet: ``serve`` spawns N
                  server subprocesses over one shared on-disk cache
                  tier and supervises them (crash restart, drain on
                  stop); ``drive`` hammers one ``repro serve
                  --listen/--uds`` server or a running fleet with
                  signature-routed clients (graphs are built and
                  replayed locally, searches run on the server, and
                  identical in-flight batches coalesce across
                  processes); ``bench`` measures plans/sec vs shard
                  count on the fig. 11 workload.
* ``service-bench`` — coalescing + aggregate-throughput comparison of
                  the service against serial per-replica planning.
* ``perf-bench``— evaluation-core throughput: the compiled kernel
                  (graph arrays + heap interleaver + one-pass simulator)
                  vs the original object-graph evaluators, with equal
                  search quality asserted.

Examples::

    python -m repro models
    python -m repro plan VLM-S --microbatches 6 --iterations 2 --diagram
    python -m repro compare T2V-S --microbatches 8
    python -m repro trace export VLM-S --output /tmp/vlm_s.trace.json
    python -m repro trace export VLM-S --merge --iterations 4
    python -m repro trace analyze VLM-S --microbatches 4
    python -m repro trace compare VLM-S --against natural
    python -m repro trace recalibrate VLM-S
    python -m repro trace validate /tmp/vlm_s.trace.json
    python -m repro serve VLM-S T2V-S --replicas 4 --iterations 3
    python -m repro serve VLM-S --uds /tmp/plan.sock --cache-file cache.json
    python -m repro fleet drive VLM-S --address /tmp/plan.sock --replicas 4
    python -m repro fleet serve VLM-S --shards 2 --cache-dir /tmp/plans
    python -m repro fleet drive VLM-S --address-file /tmp/fleet.json
    python -m repro fleet bench --shards 1 2 4 --output fleet.json
    python -m repro service-bench VLM-S --replicas 4 --iterations 2
    python -m repro perf-bench VLM-M --rollouts 60 --budget 120
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cluster.topology import ParallelConfig, cluster_h100, cluster_h800
from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.core.visualize import ascii_timeline, memory_sparkline
from repro.data.workload import t2v_workload, vlm_workload
from repro.metrics import mfu
from repro.models.lmm import build_combination
from repro.models.zoo import COMBINATIONS, MODEL_ZOO, combination_by_name
from repro.sim.costmodel import CostModel


def _setup(combo_name: str, budget: int, seed: int,
           plan_cache: bool = True, cache_size: int = 64,
           cache_file: Optional[str] = None, strategy: str = "mcts"):
    combo = combination_by_name(combo_name)
    arch = build_combination(combo)
    parallel = ParallelConfig(dp=1, tp=combo.tp, pp=combo.pp)
    nodes = max(1, parallel.world_size // 8)
    if combo_name.endswith(("-8k", "-16k", "-3k", "-6k")):
        cluster = cluster_h100(nodes)
    else:
        cluster = cluster_h800(nodes)
    cost_model = CostModel()
    searcher = ScheduleSearcher(cluster, parallel, cost_model,
                                strategy=strategy,
                                budget_evaluations=budget, seed=seed)
    shared_cache = None
    if plan_cache and cache_file:
        shared_cache = PlanCache.load(cache_file, capacity=cache_size)
    planner = OnlinePlanner(arch, cluster, parallel, cost_model,
                            searcher=searcher,
                            plan_cache=shared_cache,
                            enable_plan_cache=plan_cache,
                            cache_size=cache_size)
    return arch, cluster, parallel, planner


def _save_cache(planner: OnlinePlanner, args) -> None:
    """Persist the plan cache when ``--cache-file`` was given."""
    cache_file = getattr(args, "cache_file", None)
    if cache_file and planner.cache is not None:
        planner.cache.save(cache_file)


def _workload(arch, microbatches: int, seed: int):
    if arch.kind == "t2v":
        return t2v_workload(microbatches, seed=seed)
    return vlm_workload(microbatches, seed=seed)


def cmd_models(_args) -> int:
    print("Modules (Table 2):")
    for name, spec in MODEL_ZOO.items():
        print(f"  {name:12s} {spec.parameters_billion():7.2f}B  "
              f"{spec.num_layers} layers, d={spec.hidden_size}")
    print("\nCombinations (Tables 3 and 6):")
    for name, combo in COMBINATIONS.items():
        print(f"  {name:12s} {' + '.join(combo.module_names):24s} "
              f"TP{combo.tp} PP{combo.pp} DP{combo.dp} "
              f"({combo.num_gpus} GPUs)")
    return 0


def cmd_plan(args) -> int:
    arch, cluster, parallel, planner = _setup(args.model, args.budget,
                                              args.seed, args.plan_cache,
                                              args.cache_size,
                                              args.cache_file)
    print(f"{arch.name}: {arch.parameters_billion():.1f}B on "
          f"{parallel.describe()}  |  plan: {planner.plan.describe()}")
    stream = _workload(arch, args.microbatches, args.seed)
    reports = planner.run(stream.batches(args.iterations))
    for report in reports:
        predicted = report.search.schedule.predicted
        graph = report.search.schedule.graph
        value = mfu(graph.model_flops, report.train_ms, cluster.gpu, parallel)
        if report.cache_hit:
            plan_src = "cache hit"
        elif report.warm_start:
            plan_src = "warm search"
        else:
            plan_src = "cold search"
        print(f"iter {report.iteration}: {report.train_ms / 1e3:6.2f}s  "
              f"MFU {value:.3f}  bubble {predicted.bubble_ratio * 100:4.1f}%  "
              f"search {report.search_seconds:.2f}s  [{plan_src}]")
        if args.diagram:
            print(ascii_timeline(graph, predicted, width=args.width))
            print("mem PP0: "
                  + memory_sparkline(predicted, 0,
                                     limit_bytes=graph.memory_limit_bytes))
    stats = planner.cache_stats
    if stats is not None:
        print(f"plan cache: {stats.describe()}")
    _save_cache(planner, args)
    return 0


def cmd_compare(args) -> int:
    import importlib

    sys.path.insert(0, "benchmarks")
    try:
        common = importlib.import_module("common")
    except ImportError:
        print("compare requires the benchmarks/ directory", file=sys.stderr)
        return 2
    setup = common.make_setup(args.model)
    systems = ["megatron", "nnscaler", "dip"]
    if setup.arch.kind == "vlm":
        systems.insert(2, "optimus")
    times = common.average_times(setup, systems, args.iterations,
                                 args.microbatches, seed=args.seed,
                                 budget=args.budget)
    base = times["megatron"]
    print(f"{args.model}: normalized iteration time (Megatron-LM = 1.0)")
    for system, ms in times.items():
        bar = "#" * int(round(ms / base * 40))
        print(f"  {system:10s} {ms / base:5.3f}  {bar}")
    return 0


def cmd_tune(args) -> int:
    from repro.core.autotuner import tune_layout
    from repro.models.lmm import build_combination

    combo = combination_by_name(args.model)
    arch = build_combination(combo)
    nodes = max(1, combo.tp * combo.pp // 8)
    cluster = cluster_h800(nodes)
    candidates = tune_layout(arch, cluster, args.microbatches,
                             world_size=combo.tp * combo.pp,
                             min_pp=2, seed=args.seed,
                             search_budget=args.budget if args.search else 0)
    print(f"layout candidates for {arch.name} on "
          f"{combo.tp * combo.pp} GPUs (best first):")
    for cand in candidates:
        print("  " + cand.describe())
    return 0


def _planned_trace(args, strategy: str = "mcts"):
    """Plan one batch and build its trace (shared by trace subcommands)."""
    from repro.trace import trace_from_sim

    arch, cluster, parallel, planner = _setup(
        args.model, args.budget, args.seed, args.plan_cache,
        args.cache_size, getattr(args, "cache_file", None),
        strategy=strategy,
    )
    batch = _workload(arch, args.microbatches, args.seed).next_batch()
    result = planner.plan_iteration(batch)
    trace = trace_from_sim(
        result.schedule.graph, result.schedule.predicted,
        cluster, parallel, planner.cost_model,
        label=f"{args.model} ({result.schedule.label})",
        schedule_uid=result.signature or "",
    )
    return trace, planner


def _merged_trace(args):
    """Plan several iterations and merge the last K into one timeline."""
    from repro.trace import TraceRing, merge_traces, trace_from_sim

    arch, cluster, parallel, planner = _setup(
        args.model, args.budget, args.seed, args.plan_cache,
        args.cache_size, getattr(args, "cache_file", None),
    )
    stream = _workload(arch, args.microbatches, args.seed)
    ring = TraceRing(capacity=args.ring)
    for i, batch in enumerate(stream.batches(args.iterations)):
        result = planner.plan_iteration(batch)
        ring.append(trace_from_sim(
            result.schedule.graph, result.schedule.predicted,
            cluster, parallel, planner.cost_model,
            label=f"{args.model} iter {i}",
            schedule_uid=result.signature or "",
        ))
    merged = merge_traces(ring.snapshot(), label=f"{args.model} steady state")
    print(f"merged last {len(ring)} of {ring.appended} iterations "
          f"({merged.total_ms:.1f} ms steady-state timeline)")
    return merged, planner


def cmd_trace_export(args) -> int:
    from repro.trace import save_chrome

    if args.merge:
        trace, planner = _merged_trace(args)
    else:
        trace, planner = _planned_trace(args)
    if args.format == "chrome":
        path = save_chrome(trace, args.output, process_name=args.model)
        print(f"wrote {path} — open in chrome://tracing or ui.perfetto.dev")
    else:
        path = trace.save(args.output)
        print(f"wrote {path} (native format — analyze with "
              f"'repro trace analyze --input {path}')")
    _save_cache(planner, args)
    return 0


def _load_or_plan(args):
    import json

    from repro.trace import Trace, TraceValidationError

    if args.input:
        try:
            return Trace.load(args.input)
        except (OSError, json.JSONDecodeError,
                TraceValidationError) as exc:
            print(f"cannot load trace {args.input}: {exc}", file=sys.stderr)
            return None
    if not args.model:
        print("trace analyze needs a model name or --input FILE",
              file=sys.stderr)
        return None
    trace, planner = _planned_trace(args)
    _save_cache(planner, args)
    return trace


def cmd_trace_analyze(args) -> int:
    from repro.trace import critical_path, decompose_bubbles

    trace = _load_or_plan(args)
    if trace is None:
        return 2
    problems = trace.validate()
    if problems:
        print(f"invalid trace: {problems[0]}", file=sys.stderr)
        return 1
    report = decompose_bubbles(trace)
    print(f"{trace.meta.label or 'trace'}: {len(trace)} spans over "
          f"{trace.num_ranks} ranks, makespan {trace.total_ms:.2f} ms")
    print(report.describe())
    print(f"bubble ratio (event stream): {report.bubble_ratio * 100:.2f}%")
    header = (f"{'rank':>4} {'busy':>10} {'warmup':>10} {'depend':>10} "
              f"{'straggl':>10} {'cooldown':>10}")
    print(header)
    for bubbles in report.per_rank:
        print(f"{bubbles.rank:>4} {bubbles.busy_ms:>10.2f} "
              f"{bubbles.warmup_ms:>10.2f} {bubbles.dependency_ms:>10.2f} "
              f"{bubbles.straggler_ms:>10.2f} {bubbles.cooldown_ms:>10.2f}")
    print(critical_path(trace).describe())
    return 0


def cmd_trace_compare(args) -> int:
    from repro.trace import diff_traces, trace_from_sim

    if args.against == "replay":
        # Plan the identical batch twice through one *fresh private*
        # cache: the first pass must be a genuine cold search, the second
        # an exact-hit replay whose timeline must match.  A pre-loaded
        # --cache-file would silently turn the "cold" leg into a replay
        # too, so the flag is ignored (and never overwritten) here.
        arch, cluster, parallel, planner = _setup(
            args.model, args.budget, args.seed, True, args.cache_size)
        batch = _workload(arch, args.microbatches, args.seed).next_batch()

        def build(tag):
            result = planner.plan_iteration(batch)
            assert result.cache_hit == (tag == "replay")
            return trace_from_sim(
                result.schedule.graph, result.schedule.predicted,
                cluster, parallel, planner.cost_model,
                label=f"{args.model} ({tag})")

        trace_a, trace_b = build("cold"), build("replay")
    else:
        trace_a, planner_a = _planned_trace(args)
        trace_b, _ = _planned_trace(args, strategy=args.against)
        # Persist only the primary (mcts) planner's cache — the baseline
        # strategy's entries live under a different context fingerprint.
        _save_cache(planner_a, args)
    print(f"A: {trace_a.meta.label}   B: {trace_b.meta.label} "
          f"({args.against})")
    print(diff_traces(trace_a, trace_b).describe())
    return 0


def cmd_trace_recalibrate(args) -> int:
    from repro.sim.reference import ReferenceCostModel
    from repro.trace import measure_reference_traces, recalibrate_from_traces

    arch, cluster, parallel, planner = _setup(args.model, args.budget,
                                              args.seed, False)
    reference = ReferenceCostModel(seed=args.ref_seed)
    stream = _workload(arch, args.microbatches, args.seed)
    traces = measure_reference_traces(
        arch, planner.plan, stream.batches(args.iterations), cluster,
        parallel, reference, partitioner=planner.partitioner,
        label=args.model)
    report = recalibrate_from_traces(
        traces, planner.cost_model, cluster.gpu,
        {b.name: b.spec for b in arch.bindings}, tp=parallel.tp)
    print(report.describe())
    base = planner.cost_model
    fitted = report.calibrated
    print(f"{'factor':<22} {'analytic':>10} {'fitted':>10} {'hidden':>10}")
    for factor in ("compute_efficiency", "memory_efficiency",
                   "saturation_tokens", "kernel_overhead_us",
                   "stage_overhead_us"):
        print(f"{factor:<22} {getattr(base, factor):>10.3f} "
              f"{getattr(fitted, factor):>10.3f} "
              f"{getattr(reference, factor):>10.3f}")
    return 0 if report.improved else 1


def cmd_trace_validate(args) -> int:
    import json

    from repro.trace import Trace, validate_chrome_trace

    try:
        with open(args.file) as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load {args.file}: {exc}", file=sys.stderr)
        return 1
    if isinstance(payload, dict) and "traceEvents" in payload:
        problems = validate_chrome_trace(payload)
        flavor = "chrome"
    else:
        try:
            problems = Trace.from_dict(payload).validate()
        except Exception as exc:  # noqa: BLE001 — report, don't crash
            problems = [str(exc)]
        flavor = "native"
    if problems:
        print(f"{args.file}: INVALID {flavor} trace", file=sys.stderr)
        for problem in problems[:10]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"{args.file}: valid {flavor} trace")
    return 0


def _parse_fault_plan(args):
    """``--fault-plan`` accepts inline JSON or ``@/path/to/plan.json``;
    returns a :class:`~repro.chaos.faults.FaultPlan` or ``None``."""
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return None
    from repro.chaos.faults import FaultPlan

    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as handle:
            spec = handle.read()
    return FaultPlan.from_json(spec)


def _service_with_jobs(args, models, budget=None, fault_plan=None):
    """Build a PlanService with one registered job per model name."""
    from repro.service import PlanService, RecalibrationPolicy

    recalibration = None
    if getattr(args, "recalibrate", 0):
        recalibration = RecalibrationPolicy(interval=args.recalibrate,
                                            window=2 * args.recalibrate,
                                            sweeps=2)
    shared_cache = None
    cache_file = getattr(args, "cache_file", None)
    cache_dir = getattr(args, "cache_dir", None)
    disk_tier = None
    if cache_dir:
        from repro.core.cachetier import DiskCacheTier

        # One FaultPlan instance serves the whole process (RPC server
        # and disk tier), so per-site operation counters and the fault
        # log stay unified.
        disk_tier = DiskCacheTier(cache_dir, fault_plan=fault_plan)
    near_miss = getattr(args, "near_miss", True)
    if cache_file:
        shared_cache = PlanCache.load(cache_file, capacity=args.cache_size,
                                      disk_tier=disk_tier,
                                      near_miss=near_miss)
    elif disk_tier is not None or not near_miss:
        shared_cache = PlanCache(capacity=args.cache_size,
                                 disk_tier=disk_tier, near_miss=near_miss)
    service = PlanService(num_workers=args.workers, max_queue=args.queue,
                          cache_size=args.cache_size,
                          plan_cache=shared_cache,
                          recalibration=recalibration,
                          aging_s=getattr(args, "aging", None))
    for model in models:
        _arch, _cluster, _parallel, planner = _setup(
            model, budget if budget is not None else args.budget, args.seed,
            plan_cache=True, cache_size=args.cache_size,
        )
        service.register_job(model, planner=planner)
    return service


def _serve_socket(args, models) -> int:
    """Run the planning service behind a TCP / Unix socket.

    Blocks until a client sends ``shutdown`` (``repro fleet drive
    --shutdown``), ``--serve-seconds`` elapses, or Ctrl-C.
    """
    from repro.service import PlanServiceServer

    try:
        fault_plan = _parse_fault_plan(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bad --fault-plan: {exc}", file=sys.stderr)
        return 2
    service = _service_with_jobs(args, models, fault_plan=fault_plan)
    tracer = None
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir:
        import os

        from repro.obs import RequestTracer

        os.makedirs(trace_dir, exist_ok=True)
        tracer = RequestTracer(role="shard")
        service.tracer = tracer
    try:
        server = PlanServiceServer(
            service,
            listen=args.listen if args.uds is None else None,
            uds=args.uds,
            cache_path=getattr(args, "cache_file", None),
            shard_index=getattr(args, "shard_index", None),
            restarts=getattr(args, "shard_restarts", 0) or 0,
            fault_plan=fault_plan,
            fault_log=getattr(args, "fault_log", None),
        )
    except (OSError, ValueError) as exc:
        print(f"cannot serve on "
              f"{args.uds or args.listen}: {exc}", file=sys.stderr)
        service.close()
        return 2
    print(f"plan service listening on {server.address} "
          f"({len(models)} job(s): {', '.join(models)}; "
          f"{args.workers} workers, queue {args.queue})", flush=True)
    try:
        closed = server.wait_closed(timeout=args.serve_seconds)
        if not closed:
            print(f"--serve-seconds {args.serve_seconds} elapsed; "
                  f"shutting down")
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    server.close()
    if tracer is not None:
        import os

        path = os.path.join(trace_dir, tracer.default_filename())
        tracer.save(path)
        print(f"saved {len(tracer)} request span(s) to {path}")
    cache_file = getattr(args, "cache_file", None)
    if cache_file:
        service.cache.save(cache_file)
        print(f"saved plan cache to {cache_file} "
              f"({len(service.cache)} entries)")
    print(service.describe())
    remote = server.remote.snapshot()
    print(f"remote: {remote['connections_opened']} connections, "
          f"{remote['requests']} requests, "
          f"{remote['errors']} errors, "
          f"{remote['protocol_errors']} protocol errors, "
          f"{remote['disconnects_mid_request']} mid-request disconnects")
    service.close()
    return 0


def _print_drive_report(report, models, iterations) -> None:
    """Per-iteration makespans/spread, outcome mix, first errors —
    shared by the in-process and remote drive commands."""
    for model in models:
        for i in range(iterations):
            makespans = report.makespans(model, i)
            if not makespans:
                print(f"  {model} iter {i}: no replica received a plan")
                continue
            spread = max(makespans) - min(makespans)
            print(f"  {model} iter {i}: {len(makespans)} replicas, "
                  f"makespan {makespans[0] / 1e3:6.2f}s "
                  f"(spread {spread:.2e} ms)")
    outcomes = report.by_outcome()
    print("outcomes: " + ", ".join(f"{k}={v}"
                                   for k, v in sorted(outcomes.items())))
    for job, replica, iteration, error in report.errors[:5]:
        print(f"  ERROR {job} replica {replica} iter {iteration}: {error}",
              file=sys.stderr)


def cmd_serve(args) -> int:
    from repro.service import drive_replicas, run_recalibrating_replica
    from repro.sim.reference import ReferenceCostModel

    models = args.models
    if args.uds or args.listen:
        return _serve_socket(args, models)
    service = _service_with_jobs(args, models)
    streams = {}
    for model in models:
        arch = service.job(model).planner.arch
        streams[model] = _workload(arch, args.microbatches,
                                   args.seed).batches(args.iterations)
    print(f"serving {len(models)} job(s) x {args.replicas} replicas x "
          f"{args.iterations} iterations on {args.workers} workers "
          f"(queue {args.queue})")
    report = drive_replicas(service, streams, replicas=args.replicas)
    _print_drive_report(report, models, args.iterations)
    if args.recalibrate:
        reference = ReferenceCostModel(seed=args.ref_seed)
        for model in models:
            recal_report = run_recalibrating_replica(
                service, model,
                streams[model][:args.iterations], reference)
            errors = [r.sim_error for r in recal_report.records]
            print(f"  {model} recal loop: sim error "
                  + " -> ".join(f"{e * 100:.1f}%" for e in errors))
            for event in recal_report.recal_events:
                print(f"    {event.describe()}")
    print(service.describe())
    service.close()
    cache_file = getattr(args, "cache_file", None)
    if cache_file:
        service.cache.save(cache_file)
    return 1 if report.errors else 0


def _fleet_addresses(args) -> List[str]:
    """Shard addresses from repeated ``--address`` flags and/or the
    ``--address-file`` a ``repro fleet serve`` wrote."""
    addresses = list(args.address or [])
    if args.address_file:
        import json

        try:
            with open(args.address_file) as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.address_file}: {exc}",
                  file=sys.stderr)
            return []
        addresses.extend(payload.get("addresses", []))
    return addresses


def cmd_fleet_serve(args) -> int:
    import os

    from repro.fleet import FleetConfig, PlanFleet

    config = FleetConfig(
        models=args.models, shards=args.shards, cache_dir=args.cache_dir,
        runtime_dir=args.runtime_dir,
        transport="tcp" if args.tcp else "uds",
        budget=args.budget, seed=args.seed, workers=args.workers,
        queue=args.queue, cache_size=args.cache_size,
        near_miss=args.near_miss,
        serve_seconds=args.serve_seconds,
        restart_crashed=not args.no_restart,
        max_restarts=args.max_restarts,
        trace_dir=args.trace_dir,
    )
    fleet = PlanFleet(config)
    try:
        fleet.start()
    except RuntimeError as exc:
        print(f"fleet failed to start: {exc}", file=sys.stderr)
        return 2
    print(fleet.describe(), flush=True)
    for shard in fleet.shards:
        print(f"  shard {shard.index}: {shard.address}", flush=True)
    if args.address_file:
        from repro.core.plancache import atomic_write_json

        atomic_write_json(args.address_file,
                          {"addresses": fleet.addresses,
                           "models": list(args.models),
                           "pid": os.getpid()})
        print(f"wrote {args.address_file}", flush=True)
    try:
        # Blocks until every shard exits for good — a client's fleet-wide
        # shutdown, --serve-seconds elapsing, or Ctrl-C.
        fleet.wait()
        print("all shards exited; stopping")
    except KeyboardInterrupt:
        print("interrupted; stopping fleet")
    finally:
        fleet.stop()
        if args.address_file:
            try:
                os.unlink(args.address_file)
            except OSError:
                pass
    return 0


def cmd_fleet_drive(args) -> int:
    from repro.fleet import drive_fleet, fleet_stats
    from repro.service import PlanServiceClient

    addresses = _fleet_addresses(args)
    if not addresses:
        print("fleet drive needs --address ADDR (repeatable) or "
              "--address-file PATH", file=sys.stderr)
        return 2

    def planner_factory(model):
        _arch, _cluster, _parallel, planner = _setup(
            model, args.budget, args.seed, plan_cache=True,
            cache_size=args.cache_size,
        )
        return planner

    streams = {}
    for model in args.models:
        arch = build_combination(combination_by_name(model))
        streams[model] = _workload(arch, args.microbatches,
                                   args.seed).batches(args.iterations)
    tracer = None
    if args.trace_dir:
        import os

        from repro.obs import RequestTracer

        os.makedirs(args.trace_dir, exist_ok=True)
        tracer = RequestTracer(role="client")
    print(f"driving fleet of {len(addresses)} shard(s): "
          f"{len(args.models)} job(s) x {args.replicas} replicas x "
          f"{args.iterations} iterations")
    report, clients = drive_fleet(
        addresses, streams, replicas=args.replicas,
        planner_factory=planner_factory, timeout_s=args.timeout,
        failover=not args.no_failover, tracer=tracer,
        deadline_s=args.deadline, degraded=args.degraded,
    )
    if args.client_metrics_out:
        import json

        from repro.obs.registry import merge_snapshots

        merged_clients = merge_snapshots(
            [c.metrics_snapshot() for c in clients])
        with open(args.client_metrics_out, "w", encoding="utf-8") as f:
            json.dump(merged_clients, f, indent=2)
        print(f"wrote client metrics snapshot to "
              f"{args.client_metrics_out}")
    if tracer is not None:
        import os

        path = os.path.join(args.trace_dir, tracer.default_filename())
        tracer.save(path)
        print(f"saved {len(tracer)} client span(s) to {path}")
    _print_drive_report(report, args.models, args.iterations)
    failed = bool(report.errors)
    # Routing audit: absent failovers, every signature must have been
    # served by exactly one shard (the coalescing-locality invariant).
    shard_of = {}
    for client in clients:
        for digest, address in client.routes:
            shard_of.setdefault(digest, set()).add(address)
    failovers = sum(client.failovers for client in clients)
    split = sorted(d for d, s in shard_of.items() if len(s) > 1)
    print(f"routing: {len(shard_of)} signature(s) over "
          f"{len(addresses)} shard(s), {failovers} failover(s), "
          f"{len(split)} split signature(s)")
    if split and not failovers:
        print(f"signatures served by >1 shard without failover: "
              f"{[d[:12] for d in split]}", file=sys.stderr)
        failed = True
    stats = fleet_stats(addresses, timeout_s=args.timeout)
    svc = stats["service"]
    if args.show_stats:
        print(f"fleet: {svc['completed']} plans, {svc['searches']} "
              f"searches, {svc['replays']} replays, {svc['coalesced']} "
              f"coalesced ({svc['coalesce_rate'] * 100:.0f}%), "
              f"{svc['memory_hits']} memory hits, {svc['disk_hits']} "
              f"disk hits; {stats['reachable']}/{len(addresses)} shards "
              f"reachable")
        cache = stats["cache"]
        print(f"fleet cache: {cache.get('entries', 0):.0f} in-memory "
              f"entries, {cache.get('hits', 0):.0f} hits "
              f"({cache.get('disk_hits', 0):.0f} served from disk)")
    if (args.expect_searches is not None
            and svc["searches"] != args.expect_searches):
        print(f"fleet ran {svc['searches']} searches, expected exactly "
              f"{args.expect_searches} — same-signature requests should "
              f"land on one shard and coalesce/replay there",
              file=sys.stderr)
        failed = True
    if args.min_coalesced and svc["coalesced"] < args.min_coalesced:
        print(f"fleet coalesced only {svc['coalesced']} requests "
              f"(< {args.min_coalesced})", file=sys.stderr)
        failed = True
    if args.min_disk_hits and svc["disk_hits"] < args.min_disk_hits:
        print(f"fleet served only {svc['disk_hits']} disk-tier hits "
              f"(< {args.min_disk_hits})", file=sys.stderr)
        failed = True
    if args.save_cache:
        from repro.service import TRANSPORT_ERRORS, RemotePlanError

        for address in addresses:
            try:
                with PlanServiceClient(address,
                                       timeout_s=args.timeout) as client:
                    saved = client.save_cache()
            except (*TRANSPORT_ERRORS, RemotePlanError) as exc:
                print(f"save-cache {address}: {exc}", file=sys.stderr)
                failed = True
                continue
            print(f"{address} saved its plan cache to {saved['path']} "
                  f"({saved['entries']} entries)")
    if args.shutdown:
        for address in addresses:
            try:
                client = PlanServiceClient(address,
                                           timeout_s=args.timeout)
                try:
                    client.shutdown()
                finally:
                    client.close()
            except (OSError, TimeoutError) as exc:
                print(f"shutdown {address}: {exc}", file=sys.stderr)
        print("sent shutdown to every shard")
    return 1 if failed else 0


def cmd_fleet_bench(args) -> int:
    import json

    from repro.fleet.bench import (
        makespan_conflicts,
        print_fleet_bench,
        run_fleet_bench,
    )

    result = run_fleet_bench(
        shard_counts=tuple(args.shards), model=args.model,
        microbatches=args.microbatches, iterations=args.iterations,
        clients=args.clients, budget=args.budget, seed=args.seed,
        workers=args.workers, timeout_s=args.timeout,
    )
    print_fleet_bench(result)
    failed = False
    conflicts = makespan_conflicts(result)
    if conflicts:
        print(f"best makespans differ across fleet sizes for "
              f"{[d[:12] for d in conflicts]}", file=sys.stderr)
        failed = True
    errors = [e for size in result["sizes"].values()
              for e in size["errors"]]
    for error in errors[:5]:
        print(f"  ERROR {error}", file=sys.stderr)
    failed = failed or bool(errors)
    if args.output:
        with open(args.output, "w") as f:
            json.dump(result, f, indent=2)
        print(f"wrote {args.output}")
    if args.min_scaling and result["scaling"] < args.min_scaling:
        print(f"plans/sec scaled only {result['scaling']:.2f}x from the "
              f"smallest to the largest fleet (< {args.min_scaling}x)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


def cmd_fleet(args) -> int:
    handlers = {
        "serve": cmd_fleet_serve,
        "drive": cmd_fleet_drive,
        "bench": cmd_fleet_bench,
    }
    return handlers[args.fleet_command](args)


def cmd_obs_scrape(args) -> int:
    import json

    from repro.obs import render_exposition
    from repro.obs.scrape import check_scrape, merged_snapshot, scrape_fleet

    addresses = _fleet_addresses(args)
    if not addresses:
        print("obs scrape needs --address ADDR (repeatable) or "
              "--address-file PATH", file=sys.stderr)
        return 2
    scrapes = scrape_fleet(addresses, timeout_s=args.timeout)
    merged = merged_snapshot(scrapes)
    if args.format == "json":
        text = json.dumps(merged, indent=2) + "\n"
    else:
        text = render_exposition(merged)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output} "
              f"({sum(1 for s in scrapes if s.ok)}/{len(scrapes)} "
              f"shards scraped)")
    else:
        sys.stdout.write(text)
    failed = False
    if args.check:
        client_metrics = _load_client_metrics(args)
        if client_metrics is _BAD_CLIENT_METRICS:
            return 2
        problems = check_scrape(scrapes, client_metrics=client_metrics)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        failed = bool(problems)
        if not problems:
            extra = (" + client metrics"
                     if client_metrics is not None else "")
            print(f"checks passed on {len(scrapes)} shard(s){extra}")
    return 1 if failed else 0


#: Sentinel for "the --client-metrics file could not be read" — lets
#: callers tell a missing flag (None) from a broken file.
_BAD_CLIENT_METRICS = object()


def _load_client_metrics(args):
    """Read the --client-metrics JSON snapshot, if the flag was given."""
    import json

    path = getattr(args, "client_metrics", None)
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read client metrics {path}: {exc}",
              file=sys.stderr)
        return _BAD_CLIENT_METRICS


def cmd_obs_report(args) -> int:
    from repro.obs.scrape import render_report, scrape_fleet

    addresses = _fleet_addresses(args)
    if not addresses:
        print("obs report needs --address ADDR (repeatable) or "
              "--address-file PATH", file=sys.stderr)
        return 2
    scrapes = scrape_fleet(addresses, timeout_s=args.timeout)
    client_metrics = _load_client_metrics(args)
    if client_metrics is _BAD_CLIENT_METRICS:
        return 2
    print(render_report(scrapes, client_metrics=client_metrics))
    return 0 if any(s.ok for s in scrapes) else 1


def cmd_obs_merge(args) -> int:
    import json

    from repro.obs import merge_trace_files
    from repro.trace.export import validate_chrome_trace

    try:
        merged = merge_trace_files(args.traces, output=args.output)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot merge: {exc}", file=sys.stderr)
        return 2
    slices = sum(1 for e in merged["traceEvents"]
                 if e.get("ph") == "X")
    flows = sum(1 for e in merged["traceEvents"] if e.get("ph") == "s")
    print(f"merged {len(args.traces)} trace file(s): {slices} span(s), "
          f"{flows} cross-process flow(s)"
          + (f" -> {args.output}" if args.output else ""))
    if args.validate:
        problems = validate_chrome_trace(merged)
        if problems:
            print("INVALID merged timeline:", file=sys.stderr)
            for problem in problems[:10]:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print("merged timeline validates clean")
    if not args.output:
        sys.stdout.write(json.dumps(merged) + "\n")
    return 0


def cmd_obs(args) -> int:
    handlers = {
        "scrape": cmd_obs_scrape,
        "report": cmd_obs_report,
        "merge": cmd_obs_merge,
    }
    return handlers[args.obs_command](args)


def cmd_chaos_scenarios(_args) -> int:
    from repro.chaos import SCENARIOS

    for scenario in SCENARIOS.values():
        print(f"{scenario.name:14s} {len(scenario.specs)} fault "
              f"spec(s), {len(scenario.crash_points)} crash point(s), "
              f"deadline {scenario.deadline_s:.0f}s")
        print(f"{'':14s} {scenario.description}")
    return 0


def cmd_chaos_drive(args) -> int:
    import json

    from repro.chaos import scenario_by_name
    from repro.chaos.drive import render_report, run_scenario

    try:
        scenario = scenario_by_name(args.scenario)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.runtime_dir:
        runtime_dir = args.runtime_dir
    else:
        import tempfile

        runtime_dir = tempfile.mkdtemp(
            prefix=f"repro-chaos-{scenario.name}-")
    report = run_scenario(
        args.model,
        scenario,
        shards=args.shards,
        replicas=args.replicas,
        iterations=args.iterations,
        microbatches=args.microbatches,
        budget=args.budget,
        seed=args.seed,
        fault_seed=args.fault_seed,
        runtime_dir=runtime_dir,
        deadline_s=args.deadline,
        cache_size=args.cache_size,
        slack_s=args.slack,
    )
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote JSON report to {args.json}")
    if args.expect_degraded and report.degraded_plans < args.expect_degraded:
        print(f"only {report.degraded_plans} degraded plan(s), "
              f"expected at least {args.expect_degraded}",
              file=sys.stderr)
        return 1
    return 0 if report.ok() else 1


def cmd_chaos(args) -> int:
    handlers = {
        "scenarios": cmd_chaos_scenarios,
        "drive": cmd_chaos_drive,
    }
    return handlers[args.chaos_command](args)


def cmd_service_bench(args) -> int:
    import time as _time

    from repro.service import drive_replicas

    models = args.models
    streams = {}
    serial_s = 0.0
    serial_makespans = {}
    # Serial per-replica baseline: every replica plans alone.
    for model in models:
        _arch, _cluster, _parallel, probe = _setup(
            model, args.budget, args.seed, plan_cache=True,
            cache_size=args.cache_size)
        streams[model] = _workload(probe.arch, args.microbatches,
                                   args.seed).batches(args.iterations)
        for _replica in range(args.replicas):
            _a, _c, _p, planner = _setup(model, args.budget, args.seed,
                                         plan_cache=True,
                                         cache_size=args.cache_size)
            t0 = _time.monotonic()
            for i, batch in enumerate(streams[model]):
                result = planner.plan_iteration(batch)
                serial_makespans[(model, i)] = result.total_ms
            serial_s += _time.monotonic() - t0
    service = _service_with_jobs(args, models)
    t0 = _time.monotonic()
    report = drive_replicas(service, streams, replicas=args.replicas)
    service_s = _time.monotonic() - t0
    stats = service.stats.snapshot()
    total = len(models) * args.replicas * args.iterations
    mismatched = sum(
        1 for r in report.records
        if abs(r.predicted_ms - serial_makespans[(r.job, r.iteration)])
        > 1e-6 * serial_makespans[(r.job, r.iteration)]
    )
    gain = serial_s / max(service_s, 1e-9)
    print(f"plans: {len(report.records)}/{total}  "
          f"searches: {stats['searches']}  "
          f"coalesced: {stats['coalesced']} "
          f"({stats['coalesce_rate'] * 100:.0f}%)")
    print(f"serial {serial_s:.2f}s  service {service_s:.2f}s  "
          f"gain {gain:.2f}x")
    print(f"latency p50 {stats['plan_latency_p50_s'] * 1e3:.0f}ms  "
          f"p99 {stats['plan_latency_p99_s'] * 1e3:.0f}ms  "
          f"queue peak {stats['max_queue_depth']}")
    print(f"makespan mismatches vs serial: {mismatched}")
    print(service.describe())
    service.close()
    failed = (bool(report.errors) or mismatched
              or len(report.records) != total)
    return 1 if failed else 0


def cmd_perf_bench(args) -> int:
    import json

    from repro.perfbench import (
        EvalCoreMismatchError,
        describe_eval_core_bench,
        run_eval_core_bench,
    )

    try:
        report = run_eval_core_bench(
            model=args.model,
            microbatches=args.microbatches,
            budget=args.budget,
            rollouts=args.rollouts,
            repeats=args.repeats,
            seed=args.seed,
        )
    except EvalCoreMismatchError as exc:
        print(f"EVAL-CORE MISMATCH: {exc}", file=sys.stderr)
        return 1
    print(describe_eval_core_bench(report))
    if args.output:
        with open(args.output, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.output}")
    if args.min_speedup and report["rollouts"]["speedup"] < args.min_speedup:
        print(f"rollout speedup {report['rollouts']['speedup']:.2f}x below "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    handlers = {
        "export": cmd_trace_export,
        "analyze": cmd_trace_analyze,
        "compare": cmd_trace_compare,
        "recalibrate": cmd_trace_recalibrate,
        "validate": cmd_trace_validate,
    }
    return handlers[args.trace_command](args)


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIP (ASPLOS '26) reproduction — dynamic interleaved "
                    "pipeline planning on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo")

    def common_args(p):
        p.add_argument("model", help="combination name, e.g. VLM-S")
        p.add_argument("--microbatches", type=int, default=6)
        p.add_argument("--iterations", type=int, default=2)
        p.add_argument("--budget", type=int, default=25,
                       help="schedule-search evaluations per iteration")
        p.add_argument("--seed", type=int, default=0)

    def cache_args(p):
        # Only commands that drive an OnlinePlanner take these.
        p.add_argument("--plan-cache", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="reuse/warm-start plans for repeated batch "
                            "shapes (--no-plan-cache disables)")
        p.add_argument("--cache-size", type=_positive_int, default=64,
                       help="plan-cache capacity (LRU entries)")
        p.add_argument("--cache-file", default=None,
                       help="persist the plan cache to this JSON file "
                            "(loaded on start, saved on exit) so restarts "
                            "keep their amortization")

    plan = sub.add_parser("plan", help="plan + simulate training iterations")
    common_args(plan)
    cache_args(plan)
    plan.add_argument("--diagram", action="store_true",
                      help="print ASCII pipeline diagrams")
    plan.add_argument("--width", type=int, default=100)

    compare = sub.add_parser("compare", help="compare all systems")
    common_args(compare)

    trace = sub.add_parser(
        "trace", help="trace & telemetry: export / analyze / compare / "
                      "recalibrate / validate")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    def trace_batch_args(p, optional_model=False):
        # Trace subcommands plan exactly one batch — no --iterations,
        # which would otherwise be accepted and silently ignored.
        if optional_model:
            p.add_argument("model", nargs="?", default=None,
                           help="combination name, e.g. VLM-S (omit when "
                                "using --input)")
        else:
            p.add_argument("model", help="combination name, e.g. VLM-S")
        p.add_argument("--microbatches", type=int, default=6)
        p.add_argument("--budget", type=int, default=25,
                       help="schedule-search evaluations")
        p.add_argument("--seed", type=int, default=0)

    texport = tsub.add_parser("export",
                              help="plan one batch and export its trace")
    trace_batch_args(texport)
    cache_args(texport)
    texport.add_argument("--output", default="schedule.trace.json")
    texport.add_argument("--format", choices=("chrome", "native"),
                         default="chrome",
                         help="chrome://tracing JSON or the compact "
                              "native format (lossless, re-analyzable)")
    texport.add_argument("--merge", action="store_true",
                         help="plan --iterations batches, keep the last "
                              "--ring traces, and export one merged "
                              "steady-state timeline")
    texport.add_argument("--iterations", type=_positive_int, default=4,
                         help="iterations to plan when --merge is given")
    texport.add_argument("--ring", type=_positive_int, default=4,
                         help="ring-buffer capacity: how many trailing "
                              "iterations the merged export keeps")

    tanalyze = tsub.add_parser(
        "analyze", help="critical path + per-rank bubble decomposition")
    trace_batch_args(tanalyze, optional_model=True)
    tanalyze.add_argument("--input", default=None,
                          help="analyze a saved native trace instead of "
                               "planning a fresh batch")
    cache_args(tanalyze)

    tcompare = tsub.add_parser(
        "compare", help="diff two schedules of the same batch")
    trace_batch_args(tcompare)
    cache_args(tcompare)
    tcompare.add_argument("--against",
                          choices=("natural", "dfs", "random", "replay"),
                          default="natural",
                          help="baseline: another search strategy, or "
                               "'replay' to diff a cold search against "
                               "its plan-cache replay")

    trecal = tsub.add_parser(
        "recalibrate",
        help="fit cost-model efficiency factors from reference-system "
             "traces")
    common_args(trecal)
    trecal.add_argument("--ref-seed", type=int, default=7,
                        help="hidden-factor seed of the reference "
                             "'hardware' being traced")

    tvalidate = tsub.add_parser(
        "validate", help="validate a trace file against the event schema")
    tvalidate.add_argument("file", help="chrome or native trace JSON")

    tune = sub.add_parser("tune", help="rank DP x TP x PP layouts")
    common_args(tune)
    tune.add_argument("--search", action="store_true",
                      help="run schedule search per layout (slower)")

    def service_args(p):
        p.add_argument("models", nargs="+",
                       help="combination name(s), e.g. VLM-S T2V-S — one "
                            "registered job per model")
        p.add_argument("--replicas", type=_positive_int, default=4,
                       help="concurrent DP replicas per job")
        p.add_argument("--iterations", type=_positive_int, default=3)
        p.add_argument("--microbatches", type=int, default=4)
        p.add_argument("--budget", type=int, default=16,
                       help="schedule-search evaluations per search")
        p.add_argument("--workers", type=_positive_int, default=2,
                       help="search worker threads")
        p.add_argument("--queue", type=_positive_int, default=32,
                       help="bounded plan-queue capacity")
        p.add_argument("--cache-size", type=_positive_int, default=64,
                       help="shared plan-cache capacity")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--recalibrate", type=int, default=0, metavar="N",
                       help="online recalibration every N observed "
                            "iterations (0 disables)")
        p.add_argument("--ref-seed", type=int, default=7,
                       help="hidden-factor seed of the reference hardware "
                            "observed by the recalibration loop")
        p.add_argument("--aging", type=float, default=None, metavar="S",
                       help="priority-aging rate: queued requests gain one "
                            "effective priority level per S seconds waited, "
                            "so low-priority leaders cannot starve "
                            "(default: strict priority order)")
        p.add_argument("--cache-file", default=None,
                       help="persist the shared plan cache to this JSON "
                            "file (loaded on start, saved atomically on "
                            "exit / 'save-cache')")

    serve = sub.add_parser(
        "serve", help="concurrent planning service: DP replicas of one or "
                      "more jobs share one plan cache + worker pool; with "
                      "--listen/--uds, serve other processes over a socket")
    service_args(serve)
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve the planning service over TCP instead "
                            "of driving in-process replicas (port 0 picks "
                            "a free port)")
    serve.add_argument("--uds", default=None, metavar="PATH",
                       help="serve over a Unix-domain socket at PATH")
    serve.add_argument("--serve-seconds", type=float, default=None,
                       help="socket mode: shut down after this many "
                            "seconds (default: wait for a client's "
                            "shutdown request / Ctrl-C)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="back the in-memory plan cache with a shared "
                            "on-disk tier under DIR (one file per "
                            "signature; cross-process safe — fleet "
                            "shards share one directory)")
    serve.add_argument("--no-near-miss", dest="near_miss",
                       action="store_false",
                       help="disable near-miss warm starts so every "
                            "search depends only on (signature, "
                            "context, seed) — makes plans reproducible "
                            "across cache states and fleet sizes")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="socket mode: emit per-request spans "
                            "(queue wait, cache lookup, search/replay) "
                            "tagged with client trace ids, saved to "
                            "DIR on exit for 'repro obs merge'")
    serve.add_argument("--shard-index", type=int, default=None,
                       help="this server's shard slot in a fleet "
                            "(reported over ping/metrics; set by the "
                            "fleet launcher)")
    serve.add_argument("--shard-restarts", type=int, default=0,
                       help="crash respawns this shard slot has seen "
                            "(reported over ping/metrics; set by the "
                            "fleet launcher)")
    serve.add_argument("--fault-plan", default=None, metavar="JSON|@FILE",
                       help="chaos: arm this server with a deterministic "
                            "FaultPlan (inline JSON or @file); faults "
                            "fire at rpc.response/rpc.recv/disk.* sites "
                            "(set by the chaos driver)")
    serve.add_argument("--fault-log", default=None, metavar="PATH",
                       help="chaos: append fired-fault decisions as "
                            "JSONL to PATH on shutdown, for replay "
                            "verification against the plan's seed")

    fleet = sub.add_parser(
        "fleet",
        help="sharded planning fleet: N server shards over one shared "
             "on-disk cache tier, signature-routed clients, plans/sec "
             "scaling benchmark")
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)

    fserve = fsub.add_parser(
        "serve",
        help="spawn and supervise N 'repro serve' shard subprocesses "
             "sharing one --cache-dir (crash restarts, graceful drain)")
    fserve.add_argument("models", nargs="+",
                        help="combination name(s) registered on every "
                             "shard, e.g. VLM-S")
    fserve.add_argument("--shards", type=_positive_int, default=2)
    fserve.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared on-disk plan tier for every shard "
                             "(plans survive restarts, spread across "
                             "shards)")
    fserve.add_argument("--runtime-dir", default="/tmp/repro-fleet",
                        help="sockets + per-shard logs live here")
    fserve.add_argument("--tcp", action="store_true",
                        help="serve over TCP on 127.0.0.1 (default: one "
                             "Unix socket per shard)")
    fserve.add_argument("--workers", type=_positive_int, default=2,
                        help="search worker threads per shard")
    fserve.add_argument("--queue", type=_positive_int, default=32,
                        help="bounded plan-queue capacity per shard")
    fserve.add_argument("--budget", type=int, default=16,
                        help="schedule-search evaluations per search "
                             "(part of the planning context — clients "
                             "must match)")
    fserve.add_argument("--cache-size", type=_positive_int, default=64,
                        help="in-memory plan-cache capacity per shard")
    fserve.add_argument("--seed", type=int, default=0)
    fserve.add_argument("--no-near-miss", dest="near_miss",
                        action="store_false",
                        help="disable near-miss warm starts on every "
                             "shard (plans then depend only on "
                             "signature + context + seed, identical "
                             "across fleet sizes)")
    fserve.add_argument("--serve-seconds", type=float, default=None,
                        help="shards shut down after this many seconds "
                             "(default: wait for fleet-wide shutdown / "
                             "Ctrl-C)")
    fserve.add_argument("--address-file", default=None, metavar="PATH",
                        help="write the shard addresses to this JSON "
                             "file once every shard answers pings "
                             "(clients wait on it)")
    fserve.add_argument("--max-restarts", type=int, default=3,
                        help="crash-restart budget per shard")
    fserve.add_argument("--no-restart", action="store_true",
                        help="never restart crashed shards")
    fserve.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="every shard saves its request-span trace "
                             "file here on exit (merge with "
                             "'repro obs merge')")

    fdrive = fsub.add_parser(
        "drive",
        help="drive one 'repro serve --listen/--uds' server or a fleet "
             "from this process: local graphs, remote searches, "
             "canonical-plan replay; each batch is routed to its "
             "signature's shard through the consistent-hash ring")
    fdrive.add_argument("models", nargs="+",
                        help="job name(s) registered on the shards")
    fdrive.add_argument("--address", action="append", default=None,
                        metavar="ADDR",
                        help="server or shard address: HOST:PORT, "
                             "tcp://, uds:// or a socket path (repeat per "
                             "shard); every client must be given the "
                             "same set")
    fdrive.add_argument("--address-file", default=None, metavar="PATH",
                        help="JSON address file a 'repro fleet serve "
                             "--address-file' wrote")
    fdrive.add_argument("--replicas", type=_positive_int, default=4,
                        help="concurrent routed clients per job")
    fdrive.add_argument("--iterations", type=_positive_int, default=3)
    fdrive.add_argument("--microbatches", type=int, default=4)
    fdrive.add_argument("--budget", type=int, default=16,
                        help="must match the fleet's --budget (planning "
                             "context)")
    fdrive.add_argument("--cache-size", type=_positive_int, default=64,
                        help="local planner-mirror cache capacity")
    fdrive.add_argument("--seed", type=int, default=0)
    fdrive.add_argument("--timeout", type=float, default=300.0,
                        help="per-request timeout (seconds)")
    fdrive.add_argument("--no-failover", action="store_true",
                        help="surface shard loss as per-batch errors "
                             "instead of retrying ring successors")
    fdrive.add_argument("--show-stats", action="store_true",
                        help="print merged fleet service/cache stats "
                             "after driving")
    fdrive.add_argument("--expect-searches", type=int, default=None,
                        metavar="N",
                        help="exit nonzero unless the whole fleet ran "
                             "exactly N searches (CI gate: same-"
                             "signature requests land on one shard)")
    fdrive.add_argument("--min-coalesced", type=int, default=0,
                        metavar="N",
                        help="exit nonzero unless the fleet coalesced "
                             "at least N requests")
    fdrive.add_argument("--min-disk-hits", type=int, default=0,
                        metavar="N",
                        help="exit nonzero unless at least N hits were "
                             "served from the shared disk tier (CI "
                             "gate: restarts keep amortization)")
    fdrive.add_argument("--save-cache", action="store_true",
                        help="ask every shard to persist its plan cache "
                             "(atomic save to the --cache-file of a "
                             "'repro serve' shard); exit nonzero if one "
                             "cannot")
    fdrive.add_argument("--shutdown", action="store_true",
                        help="send shutdown to every shard after "
                             "driving")
    fdrive.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="stamp every submit with a distributed "
                             "trace id and save the client-side span "
                             "file here (merge with the shards' files "
                             "via 'repro obs merge')")
    fdrive.add_argument("--deadline", type=float, default=None,
                        help="per-submit deadline (seconds), carried "
                             "in the RPC envelope; shards shed expired "
                             "work instead of searching for a waiter "
                             "that already gave up")
    fdrive.add_argument("--degraded", action="store_true",
                        help="when a signature's whole ring preference "
                             "list is down/open, plan locally on the "
                             "client mirror (flagged degraded) instead "
                             "of erroring")
    fdrive.add_argument("--client-metrics-out", default=None,
                        metavar="PATH",
                        help="write the merged client-side metrics "
                             "snapshot (breaker states, retry/"
                             "degraded counters) as JSON for 'repro "
                             "obs scrape --check --client-metrics' / "
                             "'repro obs report --client-metrics'")

    fbench = fsub.add_parser(
        "bench",
        help="plans/sec vs shard count on the fig. 11 workload, many "
             "concurrent client processes")
    fbench.add_argument("model", nargs="?", default="VLM-M",
                        help="combination name (default: VLM-M)")
    fbench.add_argument("--shards", type=_positive_int, nargs="+",
                        default=[1, 2, 4],
                        help="fleet sizes to measure")
    fbench.add_argument("--clients", type=_positive_int, default=6,
                        help="concurrent client OS processes")
    fbench.add_argument("--iterations", type=_positive_int, default=8,
                        help="distinct batches per client stream")
    fbench.add_argument("--microbatches", type=int, default=12)
    fbench.add_argument("--budget", type=int, default=10)
    fbench.add_argument("--seed", type=int, default=0)
    fbench.add_argument("--workers", type=_positive_int, default=2,
                        help="search worker threads per shard")
    fbench.add_argument("--timeout", type=float, default=300.0)
    fbench.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    fbench.add_argument("--min-scaling", type=float, default=None,
                        help="exit nonzero when plans/sec scales less "
                             "than this factor from the smallest to "
                             "the largest fleet (CI gate)")

    obs = sub.add_parser(
        "obs",
        help="fleet telemetry plane: scrape per-shard metrics into "
             "Prometheus exposition, render a health report, merge "
             "client + shard request traces into one timeline")
    osub = obs.add_subparsers(dest="obs_command", required=True)

    def obs_addressing(p) -> None:
        p.add_argument("--address", action="append", default=None,
                       metavar="ADDR",
                       help="shard address (repeat per shard)")
        p.add_argument("--address-file", default=None, metavar="PATH",
                       help="JSON address file a 'repro fleet serve "
                            "--address-file' wrote")
        p.add_argument("--timeout", type=float, default=10.0,
                       help="per-shard RPC timeout (seconds)")

    oscrape = osub.add_parser(
        "scrape",
        help="poll every shard's metrics RPC and merge label-wise "
             "(each series gains a shard=\"N\" label)")
    obs_addressing(oscrape)
    oscrape.add_argument("--format", choices=("expo", "json"),
                         default="expo",
                         help="output format: Prometheus text "
                              "exposition (default) or the raw merged "
                              "JSON snapshot")
    oscrape.add_argument("--output", default=None, metavar="PATH",
                         help="write to PATH instead of stdout")
    oscrape.add_argument("--check", action="store_true",
                         help="exit nonzero unless cross-subsystem "
                              "consistency holds on every shard "
                              "(tier-split hits sum to totals, metrics "
                              "agree with the stats RPC, shed counter "
                              "matches)")
    oscrape.add_argument("--client-metrics", default=None,
                         metavar="PATH",
                         help="client-side metrics snapshot JSON "
                              "('repro fleet drive "
                              "--client-metrics-out') to include in "
                              "--check (breaker state codes legal, "
                              "resilience counters sane)")

    oreport = osub.add_parser(
        "report",
        help="human health summary per shard: identity, uptime, "
             "restarts, queue depth, hit rates, shed counts, latency "
             "percentiles — plus breaker states with --client-metrics")
    obs_addressing(oreport)
    oreport.add_argument("--client-metrics", default=None,
                         metavar="PATH",
                         help="client-side metrics snapshot JSON to "
                              "render a resilience section from "
                              "(breaker states, retry/degraded "
                              "counters)")

    omerge = osub.add_parser(
        "merge",
        help="join client + shard request-span files into one Chrome/"
             "Perfetto timeline with cross-process flow arrows per "
             "trace id")
    omerge.add_argument("traces", nargs="+", metavar="TRACE",
                        help="span files written by --trace-dir runs")
    omerge.add_argument("--output", default=None, metavar="PATH",
                        help="write the merged Chrome JSON here "
                             "(default: stdout)")
    omerge.add_argument("--validate", action="store_true",
                        help="exit nonzero unless the merged timeline "
                             "passes the Chrome-trace validator")

    chaos = sub.add_parser(
        "chaos",
        help="chaos-test a live fleet: deterministic fault injection "
             "(drops, stalls, corruption, crashes, disk errors) under "
             "named scenarios, with resilience invariants asserted")
    chsub = chaos.add_subparsers(dest="chaos_command", required=True)

    chsub.add_parser("scenarios",
                     help="list the named fault scenarios")

    chdrive = chsub.add_parser(
        "drive",
        help="spin up a fleet under a scenario, drive a client "
             "workload through it, and check that every submit "
             "terminates in-deadline with a baseline-identical plan "
             "or a typed error")
    chdrive.add_argument("model", nargs="?", default="VLM-S",
                         help="combination name (default: VLM-S)")
    chdrive.add_argument("--scenario", required=True,
                         help="scenario name (see 'repro chaos "
                              "scenarios')")
    chdrive.add_argument("--shards", type=_positive_int, default=2)
    chdrive.add_argument("--replicas", type=_positive_int, default=2)
    chdrive.add_argument("--iterations", type=_positive_int, default=4)
    chdrive.add_argument("--microbatches", type=int, default=3)
    chdrive.add_argument("--budget", type=int, default=8)
    chdrive.add_argument("--cache-size", type=int, default=64)
    chdrive.add_argument("--seed", type=int, default=0,
                         help="workload + search seed (shared by the "
                              "baseline, the shards and the mirrors)")
    chdrive.add_argument("--fault-seed", type=int, default=1,
                         help="base seed of the per-shard fault "
                              "schedules (shard i uses fault-seed+i)")
    chdrive.add_argument("--deadline", type=float, default=None,
                         help="per-submit deadline (seconds); default "
                              "is the scenario's")
    chdrive.add_argument("--slack", type=float, default=30.0,
                         help="termination-invariant slack on top of "
                              "the deadline (seconds)")
    chdrive.add_argument("--runtime-dir", default=None,
                         help="sockets / cache / fault logs live here "
                              "(default: fresh temp dir)")
    chdrive.add_argument("--json", default=None, metavar="PATH",
                         help="also write the report as JSON")
    chdrive.add_argument("--expect-degraded", type=int, default=None,
                         metavar="N",
                         help="exit nonzero unless at least N degraded "
                              "local plans were served (CI gate)")

    sbench = sub.add_parser(
        "service-bench",
        help="coalescing + throughput: planning service vs serial "
             "per-replica planning")
    service_args(sbench)

    pbench = sub.add_parser(
        "perf-bench",
        help="evaluation-core throughput: compiled kernel vs legacy "
             "evaluators (rollouts/sec + end-to-end search, equal "
             "quality asserted)")
    pbench.add_argument("model", nargs="?", default="VLM-M",
                        help="combination name (default: VLM-M, the "
                             "Fig. 11 stand-in workload)")
    pbench.add_argument("--microbatches", type=int, default=12)
    pbench.add_argument("--budget", type=int, default=120,
                        help="evaluations for the end-to-end search leg")
    pbench.add_argument("--rollouts", type=_positive_int, default=60,
                        help="random orderings per throughput repeat")
    pbench.add_argument("--repeats", type=_positive_int, default=5,
                        help="alternating timing repeats (best of N reported)")
    pbench.add_argument("--seed", type=int, default=0)
    pbench.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    pbench.add_argument("--min-speedup", type=float, default=None,
                        help="exit nonzero when the rollout speedup falls "
                             "below this factor (CI gate)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": cmd_models,
        "plan": cmd_plan,
        "compare": cmd_compare,
        "trace": cmd_trace,
        "tune": cmd_tune,
        "serve": cmd_serve,
        "fleet": cmd_fleet,
        "obs": cmd_obs,
        "chaos": cmd_chaos,
        "service-bench": cmd_service_bench,
        "perf-bench": cmd_perf_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
