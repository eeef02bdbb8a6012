"""Plan-latency benchmark for the DIP planner.

    python3 planbench/run.py --workload vlm-s-stream --seed 1 --seconds 50 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) from the root
of a checkout, checks every delivered plan, prints a human-readable
report and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run plus its tracing overhead.  The
names and units are listed in :data:`END_TO_END` / :data:`PER_LAYER`
and in ``BENCHMARK.json``.  Exits 2 without a result when the checkout
holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for fleet caches, logs and span files (removed after
#: each use, ignored by git).
WORK_DIR = os.path.join(BENCH_DIR, ".work")
#: Set-ups measured per untraced run; ``setup_s`` is their median.
SETUP_TRIALS = 5
#: Slices of the timed phase whose median rate is ``plans_per_s``.
WINDOWS = 10

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("plans_per_s", "plans/s"),
    ("plan_latency_p50_ms", "ms"),
    ("plan_latency_tail_ms", "ms"),
    ("sim_iteration_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graphbuilder.calls", "count"),
    ("graphbuilder.busy_s", "s"),
    ("signature.calls", "count"),
    ("signature.busy_s", "s"),
    ("plancache.lookups", "count"),
    ("plancache.lookup_busy_s", "s"),
    ("plancache.hit_ratio", "ratio"),
    ("plancache.near_ratio", "ratio"),
    ("plancache.evictions", "count"),
    ("cachetier.disk_hits", "count"),
    ("cachetier.disk_hit_ratio", "ratio"),
    ("memopt.candidates_busy_s", "s"),
    ("memopt.solve_calls", "count"),
    ("memopt.solve_busy_s", "s"),
    ("solver.bnb_nodes", "count"),
    ("solver.node_limit_hits", "count"),
    ("solver.optimal_rank_ratio", "ratio"),
    ("solver.saved_extra_ms", "ms"),
    ("mcts.reorder_busy_s", "s"),
    ("mcts.evaluations", "count"),
    ("evalcore.rollouts_per_s", "1/s"),
    ("evalcore.memo_hit_ratio", "ratio"),
    ("sim.simulate_busy_s", "s"),
    ("searcher.search_calls", "count"),
    ("searcher.search_busy_s", "s"),
    ("searcher.replay_calls", "count"),
    ("searcher.replay_busy_s", "s"),
    ("searcher.self_s", "s"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.searches", "count"),
    ("service.coalesce_ratio", "ratio"),
    ("service.max_queue_depth", "count"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("rpc.submit_busy_s", "s"),
    ("rpc.server_busy_s", "s"),
    ("rpc.wire_s", "s"),
    ("rpc.frames", "count"),
    ("client.replay_busy_s", "s"),
    ("fleet.retries", "count"),
    ("fleet.failovers", "count"),
    ("fleet.degraded_plans", "count"),
    ("proc.client_cpu_s", "s"),
    ("proc.server_cpu_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# -- statistics ------------------------------------------------------------


def latency_tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it: the 11th-highest sample.  Below 20 samples that
    would lie under the median, so the median (50) is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if not n:
        return 0.0, 0.0
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def windowed_rate(done_at_s: List[float], wall_s: float,
                  windows: int = WINDOWS) -> float:
    """Median over equal slices of the timed phase of plans delivered
    per second; a slowdown of the shared host during less than half the
    phase does not move it.  Plain count / wall for short phases."""
    if len(done_at_s) < 2 * windows or wall_s <= 0:
        return ratio(len(done_at_s), wall_s)
    width = wall_s / windows
    counts = [0] * windows
    for t in done_at_s:
        counts[min(windows - 1, int(t / width))] += 1
    return statistics.median(counts) / width


# -- provenance ------------------------------------------------------------


def source_digest() -> str:
    """sha256 over every file under ``src/`` — identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float,
               trace: int) -> Dict:
    import numpy

    try:
        import scipy
        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "host": platform.node(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# -- set-up ----------------------------------------------------------------


def work_dir() -> str:
    path = os.path.join(WORK_DIR, f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


def set_up(workload, traced: bool = False):
    """Everything before the first timed submit: a planner for a stream
    workload, a started fleet with its clients for the fleet one."""
    from workloads import STREAM_BUDGET, FleetRun, StreamWorkload, \
        build_planner

    if isinstance(workload, StreamWorkload):
        return build_planner(workload.model, STREAM_BUDGET)
    return FleetRun(workload, work_dir(), traced=traced)


def tear_down(state) -> List:
    from workloads import FleetRun

    return state.close() if isinstance(state, FleetRun) else []


def measure_setup(name: str, trials: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to the point where the
    first submit would go out (imports, planner and partitioner
    construction, fleet start-up), once per trial."""
    times = []
    for _ in range(trials):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-only"],
            capture_output=True, text=True, timeout=170)
        ready = [line for line in out.stdout.splitlines()
                 if line.startswith("READY ")]
        if out.returncode != 0 or not ready:
            raise RuntimeError(f"set-up trial failed ({out.returncode}):\n"
                               f"{out.stdout}\n{out.stderr}")
        # time.monotonic is CLOCK_MONOTONIC: one clock for both processes.
        times.append(float(ready[-1].split()[1]) - start)
    return times


# -- one phase -------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """utime + stime of another process, from /proc (0.0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_phase(workload, state, seed: int, seconds: float, checker,
              clock=None):
    """Run the timed phase on a set-up state, wrapped in ``clock`` when
    given; returns (tally, probes), the probes read after the phase."""
    from workloads import FleetRun, run_fleet, run_stream

    fleet = isinstance(state, FleetRun)
    shard_pid = state.fleet.shards[0].process.pid if fleet else None
    server0 = proc_cpu_s(shard_pid) if fleet else 0.0
    cpu0 = self_cpu_s()
    run = run_fleet if fleet else run_stream
    tally = run(workload, state, seed, seconds, checker,
                clock=clock or contextlib.nullcontext())
    probes: Dict = {"client_cpu_s": self_cpu_s() - cpu0}
    if fleet:  # the shard's plan cache, read over the stats RPC
        stats = state.poll()
        probes.update(server_cpu_s=proc_cpu_s(shard_pid) - server0,
                      stats=stats, cache=stats["cache"],
                      clients=state.clients)
    else:  # the planner's own plan cache
        probes["cache"] = dataclasses.asdict(state.cache.stats)
    return tally, probes


def end_to_end(tally, setup_times: List[float]) -> Tuple[Dict, Dict]:
    """End-to-end metric values plus the details behind them."""
    latencies = tally.latencies_s
    tail, tail_pct = latency_tail(latencies)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kib = max(rss_self, rss_children)
    values = {
        "plans_per_s": windowed_rate(tally.done_at_s, tally.wall_s),
        "plan_latency_p50_ms": statistics.median(latencies) * 1e3
        if latencies else 0.0,
        "plan_latency_tail_ms": tail * 1e3,
        "sim_iteration_ms": statistics.fmean(tally.makespans_ms)
        if tally.makespans_ms else 0.0,
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    details = {
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "sim_plans": len(tally.makespans_ms),
        "timed_wall_s": tally.wall_s,
        "error_rate": ratio(tally.failed, tally.attempted),
        "rss_self_mb": rss_self / 1024.0,
        "rss_children_mb": rss_children / 1024.0,
    }
    return values, details


# -- per-layer -------------------------------------------------------------


def solver_hooks(counters: Dict[str, float]) -> Dict:
    """Result hooks reading solver, memopt, reorder and memo counters."""

    def bnb(solution, _args, kwargs):
        counters["bnb_nodes"] += solution.nodes_expanded
        counters["bnb_ranks"] += 1
        limit = kwargs.get("node_limit", 200_000)
        counters["node_limit_hits"] += solution.nodes_expanded > limit
        counters["gap_ranks"] += (solution.gap
                                  <= kwargs.get("rel_gap", 0.05) + 1e-12)

    def memopt(report, _args, _kwargs):
        counters["saved_extra_ms"] += report.improvement_ms

    def reorder(result, _args, _kwargs):
        counters["evaluations"] += result.evaluations

    def search(result, _args, _kwargs):
        counters["memo_hits"] += result.memo_hits

    return {"solver.bnb": bnb, "memopt.solve": memopt,
            "mcts.reorder": reorder, "searcher.search": search}


def span_seconds(spans, name: str) -> Tuple[int, float]:
    chosen = [s for s in spans if s.name == name]
    return len(chosen), sum(s.end_ms - s.start_ms for s in chosen) / 1e3


def server_extent_s(shard_spans) -> float:
    """Per request (trace id), the shard-side extent from its first span
    start to its last span end, summed."""
    extent: Dict[str, List[float]] = {}
    for span in shard_spans:
        trace_id = span.attrs.get("trace_id")
        lo_hi = extent.setdefault(trace_id, [span.start_ms, span.end_ms])
        lo_hi[0] = min(lo_hi[0], span.start_ms)
        lo_hi[1] = max(lo_hi[1], span.end_ms)
    return sum(hi - lo for lo, hi in extent.values()) / 1e3


def per_layer(clock, counters, probes, shard_spans,
              client_spans) -> Dict[str, float]:
    busy, calls, own = clock.busy_s, clock.calls, clock.self_s
    values = {name: 0.0 for name, _unit in PER_LAYER}
    values.update({
        "graphbuilder.calls": calls["graphbuilder"],
        "graphbuilder.busy_s": busy["graphbuilder"],
        "signature.calls": calls["signature"],
        "signature.busy_s": busy["signature"],
        "plancache.lookup_busy_s": busy["plancache.lookup"],
        "memopt.candidates_busy_s": busy["memopt.candidates"],
        "memopt.solve_calls": calls["memopt.solve"],
        "memopt.solve_busy_s": busy["memopt.solve"],
        "solver.bnb_nodes": counters["bnb_nodes"],
        "solver.node_limit_hits": counters["node_limit_hits"],
        "solver.optimal_rank_ratio": ratio(counters["gap_ranks"],
                                           counters["bnb_ranks"]),
        "solver.saved_extra_ms": counters["saved_extra_ms"],
        "mcts.reorder_busy_s": busy["mcts.reorder"],
        "mcts.evaluations": counters["evaluations"],
        "evalcore.rollouts_per_s": ratio(calls["evalcore.evaluate"],
                                         busy["evalcore.evaluate"]),
        "evalcore.memo_hit_ratio": ratio(counters["memo_hits"],
                                         counters["evaluations"]),
        "sim.simulate_busy_s": busy["sim.simulate"],
        "searcher.search_calls": calls["searcher.search"],
        "searcher.search_busy_s": busy["searcher.search"],
        "searcher.replay_calls": calls["searcher.replay"],
        "searcher.replay_busy_s": busy["searcher.replay"],
        "searcher.self_s": own["searcher.search"] + own["searcher.replay"],
        "proc.client_cpu_s": probes["client_cpu_s"],
    })
    cache = probes["cache"]
    if "stats" in probes:
        stats = probes["stats"]
        service = stats["service"]
        clients = probes["clients"]
        searches, search_s = span_seconds(shard_spans, "leader-search")
        _n, lookup_s = span_seconds(shard_spans, "cache-lookup")
        _n, submit_s = span_seconds(client_spans, "submit")
        _n, replay_s = span_seconds(client_spans, "client-replay")
        server_s = server_extent_s(shard_spans)
        values.update({
            "plancache.lookup_busy_s": lookup_s,
            "searcher.search_calls": calls["searcher.search"] + searches,
            "searcher.search_busy_s": busy["searcher.search"] + search_s,
            "service.queue_wait_p50_ms": service["queue_wait_p50_s"] * 1e3,
            "service.queue_wait_p99_ms": service["queue_wait_p99_s"] * 1e3,
            "service.searches": service["searches"],
            "service.coalesce_ratio": service["coalesce_rate"],
            "service.max_queue_depth": service["max_queue_depth"],
            "service.shed": service["shed"],
            "service.rejected": service["rejected"],
            "rpc.submit_busy_s": submit_s,
            "rpc.server_busy_s": server_s,
            "rpc.wire_s": submit_s - server_s,
            "rpc.frames": stats["frames"],
            "client.replay_busy_s": replay_s,
            "fleet.retries": sum(c.retries for c in clients),
            "fleet.failovers": sum(c.failovers for c in clients),
            "fleet.degraded_plans": sum(c.degraded_plans for c in clients),
            "proc.server_cpu_s": probes["server_cpu_s"],
        })
    lookups = cache["hits"] + cache["near_hits"] + cache["misses"]
    values.update({
        "plancache.lookups": lookups,
        "plancache.hit_ratio": ratio(cache["hits"], lookups),
        "plancache.near_ratio": ratio(cache["near_hits"], lookups),
        "plancache.evictions": cache["evictions"],
        "cachetier.disk_hits": cache["disk_hits"],
        "cachetier.disk_hit_ratio": ratio(cache["disk_hits"], cache["hits"]),
    })
    return {name: float(value) for name, value in values.items()}


def print_self_time(clock, timed_s: float, shard_spans) -> None:
    """Per-layer table: calls, busy and self time, self share of the
    timed phase (client-side wrappers, then shard-side spans)."""
    print(f"per-layer self time (timed phase {timed_s:.3f} s):")
    print(f"  {'layer':<22} {'calls':>8} {'busy_s':>10} {'self_s':>10} "
          f"{'self%':>7}")
    for layer in sorted(clock.calls, key=lambda k: -clock.self_s[k]):
        if not clock.calls[layer]:
            continue
        print(f"  {layer:<22} {clock.calls[layer]:>8} "
              f"{clock.busy_s[layer]:>10.4f} {clock.self_s[layer]:>10.4f} "
              f"{100 * ratio(clock.self_s[layer], timed_s):>6.1f}%")
    names = sorted({s.name for s in shard_spans})
    for name in names:
        count, seconds = span_seconds(shard_spans, name)
        print(f"  shard:{name:<16} {count:>8} {seconds:>10.4f} "
              f"{'':>10} {100 * ratio(seconds, timed_s):>6.1f}%")


# -- entry point -----------------------------------------------------------


def run_benchmark(name: str, seed: int, seconds: float, trace: int,
                  checker=None, setup_trials: int = SETUP_TRIALS) -> Dict:
    """Run one workload; print the report; return the result object."""
    from layers import LayerClock
    from workloads import WORKLOADS, check_plan

    workload = WORKLOADS[name]
    checker = checker or check_plan
    info = provenance(name, seed, seconds, trace)
    print(f"planbench {name} seed={seed} seconds={seconds} trace={trace}")
    print(f"workload: {workload.why}")

    setup_times = [] if trace else measure_setup(name, setup_trials)
    # A traced run splits its time between the traced phase and an
    # untraced one on the same seed, which gives the tracing overhead.
    phase_s = seconds / 2 if trace else seconds
    clock = counters = None
    if trace:
        counters = defaultdict(float)
        clock = LayerClock(hooks=solver_hooks(counters))
    state = set_up(workload, traced=bool(trace))
    try:
        tally, probes = run_phase(workload, state, seed, phase_s, checker,
                                  clock=clock)
    finally:
        shard_spans = tear_down(state)

    values, details = end_to_end(tally, setup_times)
    info["samples"] = {"latency": details["latency_samples"],
                       "tail_percentile": details["tail_percentile"],
                       "sim_plans": details["sim_plans"]}
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"plans: attempted {tally.attempted}, failed {tally.failed}, "
          f"error_rate {details['error_rate']:.4f}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    units = dict(END_TO_END)
    print("end-to-end" + (" (traced phase):" if trace else ":"))
    for metric, value in values.items():
        if metric == "setup_s" and not setup_times:
            continue
        extra = ""
        if metric == "plan_latency_tail_ms":
            extra = (f"  (p{details['tail_percentile']:.2f} of "
                     f"{details['latency_samples']} samples)")
        elif metric == "plan_latency_p50_ms":
            extra = f"  ({details['latency_samples']} samples)"
        elif metric == "sim_iteration_ms":
            extra = f"  (mean over {details['sim_plans']} plans)"
        elif metric == "plans_per_s":
            extra = (f"  (median of {WINDOWS} slices; "
                     f"{details['latency_samples']} plans in "
                     f"{details['timed_wall_s']:.2f} s)")
        elif metric == "peak_rss_mb":
            extra = (f"  (self {details['rss_self_mb']:.1f}, children "
                     f"{details['rss_children_mb']:.1f})")
        elif metric == "setup_s":
            extra = "  (median of " + ", ".join(
                f"{t:.3f}" for t in setup_times) + ")"
        print(f"  {metric:<22} {value:>14.4f} {units[metric]:<8}{extra}")

    if trace:
        client_spans = probes["clients"][0].tracer.spans \
            if "clients" in probes else []
        layer_values = per_layer(clock, counters, probes, shard_spans,
                                 client_spans)
        print_self_time(clock, tally.wall_s, shard_spans)
        state = set_up(workload)
        try:
            untraced, _probes = run_phase(workload, state, seed, phase_s,
                                          checker)
        finally:
            tear_down(state)
        untraced_pps = windowed_rate(untraced.done_at_s, untraced.wall_s)
        layer_values["trace.overhead_ratio"] = (
            ratio(untraced_pps, values["plans_per_s"]) - 1.0)
        print(f"tracing overhead: traced {values['plans_per_s']:.3f} vs "
              f"untraced {untraced_pps:.3f} plans/s "
              f"({100 * layer_values['trace.overhead_ratio']:+.1f}%)")
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        for problem in untraced.problems:
            print(f"  FAILED (untraced) {problem}")
        metrics = {metric: {"value": layer_values[metric], "unit": unit}
                   for metric, unit in PER_LAYER}
    else:
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in END_TO_END}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"planbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.setup_only:
        state = set_up(WORKLOADS[args.workload])
        print(f"READY {time.monotonic()!r}", flush=True)
        tear_down(state)
        return 0
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               args.trace)
    finally:
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
