"""Planning service: coalescing, aggregate throughput, recalibration.

The multi-replica / multi-job regime DynaPipe's per-iteration planning
and DistTrain's disaggregated multimodal training target: many DP
replicas of several jobs request schedules for the same iteration
graphs at once.  Three claims are exercised:

* **Coalescing** — N identical concurrent requests are served by ONE
  schedule search whose plan fans out to every waiter, each replayed
  onto its own graph with a makespan identical to planning alone.
* **Aggregate throughput** — on a mixed VLM + T2V workload with 6
  replicas each, the shared service delivers >= 3x the plans/second of
  serial per-replica planning, with identical makespans.
* **Online recalibration** — feeding engine-observed traces back into
  the cost model shrinks the sim-vs-engine makespan error across a
  jittered run, and invalidates the plan-cache entries searched under
  the stale model.
"""

import time

import pytest

from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.service import (
    OUTCOME_COALESCED,
    OUTCOME_SEARCH,
    PlanService,
    RecalibrationPolicy,
    drive_replicas,
    run_recalibrating_replica,
)
from repro.sim.reference import ReferenceCostModel

from common import make_setup, print_table, save_results

JOBS = ("VLM-S", "T2V-S")
REPLICAS = 8
ITERATIONS = 3
SEARCH_BUDGET = 64
THROUGHPUT_FLOOR = 3.0

RECAL_JOB = "VLM-S"
RECAL_ITERATIONS = 6
RECAL_BUDGET = 12
REFERENCE_SEED = 7


def make_searcher(setup, budget=SEARCH_BUDGET):
    return ScheduleSearcher(setup.cluster, setup.parallel, setup.cost_model,
                            budget_evaluations=budget, seed=0)


def register(service, setup, budget=SEARCH_BUDGET):
    service.register_job(
        setup.name, arch=setup.arch, cluster=setup.cluster,
        parallel=setup.parallel, cost_model=setup.cost_model,
        searcher=make_searcher(setup, budget),
    )


def job_streams(setups):
    return {
        setup.name: setup.workload(4, seed=0).batches(ITERATIONS)
        for setup in setups
    }


def run_serial(setups, streams):
    """Serial per-replica planning: every replica searches on its own.

    Each replica owns a private planner (its own plan cache, as a
    standalone process would), and replicas run one after another — the
    no-service baseline.
    """
    makespans = {}
    t0 = time.monotonic()
    for setup in setups:
        for replica in range(REPLICAS):
            planner = OnlinePlanner(
                setup.arch, setup.cluster, setup.parallel, setup.cost_model,
                searcher=make_searcher(setup),
            )
            for i, batch in enumerate(streams[setup.name]):
                result = planner.plan_iteration(batch)
                makespans.setdefault((setup.name, i), []).append(
                    result.total_ms)
    return time.monotonic() - t0, makespans


def run_coalescing(setups):
    """Deterministic step-mode: R identical in-flight requests, 1 search."""
    setup = setups[0]
    service = PlanService(num_workers=0, max_queue=8)
    register(service, setup)
    batch = setup.workload(4, seed=123).next_batch()
    tickets = [service.submit(setup.name, batch, replica=r)
               for r in range(REPLICAS)]
    queue_depth = service.queue_depth
    service.step()
    results = [t.result(timeout=60) for t in tickets]
    solo = OnlinePlanner(setup.arch, setup.cluster, setup.parallel,
                         setup.cost_model, searcher=make_searcher(setup))
    solo_result = solo.plan_iteration(batch)
    stats = service.stats.snapshot()
    service.close()
    return tickets, results, solo_result, queue_depth, stats


def run_service(setups, streams):
    service = PlanService(num_workers=4, max_queue=64)
    for setup in setups:
        register(service, setup)
    t0 = time.monotonic()
    report = drive_replicas(service, streams, replicas=REPLICAS,
                            timeout_s=300)
    elapsed = time.monotonic() - t0
    stats = service.stats.snapshot()
    cache_stats = service.cache.stats
    service.close()
    return elapsed, report, stats, cache_stats


def run_benchmark():
    setups = [make_setup(name) for name in JOBS]
    streams = job_streams(setups)
    coalesce = run_coalescing(setups)
    serial_s, serial_makespans = run_serial(setups, streams)
    service_s, report, stats, cache_stats = run_service(setups, streams)
    return {
        "coalesce": coalesce,
        "serial": (serial_s, serial_makespans),
        "service": (service_s, report, stats, cache_stats),
    }


@pytest.mark.benchmark(group="service")
def test_service_coalesces_and_outpaces_serial_planning(benchmark):
    results = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)

    # -- duplicate in-flight requests coalesce onto one search --------------
    tickets, plans, solo_result, queue_depth, cstats = results["coalesce"]
    assert queue_depth == 1, "identical requests must share one queue slot"
    assert cstats["searches"] == 1
    assert cstats["coalesced"] == REPLICAS - 1
    assert tickets[0].outcome == OUTCOME_SEARCH
    assert all(t.outcome == OUTCOME_COALESCED for t in tickets[1:])
    for plan in plans:
        # Identical to planning the batch alone, to the bit.
        assert plan.total_ms == pytest.approx(solo_result.total_ms, rel=1e-12)

    # -- aggregate throughput on the mixed multi-job workload ---------------
    serial_s, serial_makespans = results["serial"]
    service_s, report, stats, cache_stats = results["service"]
    total_plans = len(JOBS) * REPLICAS * ITERATIONS
    assert not report.errors, report.errors
    assert len(report.records) == total_plans
    # One search per distinct iteration graph; everything else replays.
    assert stats["searches"] == len(JOBS) * ITERATIONS
    assert stats["coalesced"] + stats["searches"] \
        + (stats["completed"] - stats["coalesced"] - stats["searches"]) \
        == total_plans
    speedup = serial_s / max(service_s, 1e-9)
    assert speedup >= THROUGHPUT_FLOOR, (
        f"service only {speedup:.2f}x over serial per-replica planning"
    )
    # Makespans identical to the single-client planner, per request.
    for (job, iteration), serial_values in serial_makespans.items():
        service_values = report.makespans(job, iteration)
        assert len(service_values) == REPLICAS
        expected = serial_values[0]
        for value in serial_values + service_values:
            assert value == pytest.approx(expected, rel=1e-12)

    rows = [
        {"metric": "plans delivered", "value": total_plans},
        {"metric": "searches run", "value": stats["searches"]},
        {"metric": "coalesced", "value": stats["coalesced"]},
        {"metric": "coalesce rate", "value": stats["coalesce_rate"]},
        {"metric": "serial (s)", "value": serial_s},
        {"metric": "service (s)", "value": service_s},
        {"metric": "throughput gain (x)", "value": speedup},
        {"metric": "plan p50 (ms)",
         "value": stats["plan_latency_p50_s"] * 1e3},
        {"metric": "plan p99 (ms)",
         "value": stats["plan_latency_p99_s"] * 1e3},
    ]
    print_table("Planning service vs serial per-replica planning", rows,
                ["metric", "value"])

    save_results("service", {
        "jobs": list(JOBS),
        "replicas": REPLICAS,
        "iterations": ITERATIONS,
        "search_budget": SEARCH_BUDGET,
        "plans_delivered": total_plans,
        "searches": stats["searches"],
        "coalesced": stats["coalesced"],
        "coalesce_rate": stats["coalesce_rate"],
        "step_mode_searches": cstats["searches"],
        "step_mode_coalesced": cstats["coalesced"],
        "serial_seconds": serial_s,
        "service_seconds": service_s,
        "throughput_gain": speedup,
        "plan_latency_p50_ms": stats["plan_latency_p50_s"] * 1e3,
        "plan_latency_p99_ms": stats["plan_latency_p99_s"] * 1e3,
        "queue_peak": stats["max_queue_depth"],
        "cache": {
            "hits": cache_stats.hits,
            "near_hits": cache_stats.near_hits,
            "misses": cache_stats.misses,
        },
    })


def run_recalibration():
    setup = make_setup(RECAL_JOB)
    service = PlanService(
        num_workers=1, max_queue=8,
        recalibration=RecalibrationPolicy(interval=2, window=4, sweeps=2),
    )
    register(service, setup, budget=RECAL_BUDGET)
    reference = ReferenceCostModel(seed=REFERENCE_SEED)
    batches = setup.workload(4, seed=11).batches(RECAL_ITERATIONS)
    report = run_recalibrating_replica(service, RECAL_JOB, batches,
                                       reference, timeout_s=300)
    cache_stats = service.cache.stats
    stats = service.stats.snapshot()
    service.close()
    return report, cache_stats, stats


@pytest.mark.benchmark(group="service")
def test_online_recalibration_reduces_sim_drift(benchmark):
    report, cache_stats, stats = benchmark.pedantic(run_recalibration,
                                                    rounds=1, iterations=1)
    errors = [r.sim_error for r in report.records]
    assert all(e is not None for e in errors)
    applied = [e for e in report.recal_events if e.applied]
    assert applied, "recalibration never applied"
    boundary = applied[0].observation
    before = errors[:boundary]
    after = errors[boundary:]
    assert before and after
    mean_before = sum(before) / len(before)
    mean_after = sum(after) / len(after)
    assert mean_after < mean_before, (
        f"sim error did not drop: {mean_before:.3f} -> {mean_after:.3f}"
    )
    # Refits invalidate the plans searched under the stale model, and
    # telemetry records it.
    assert applied[0].invalidated >= 1
    assert cache_stats.invalidations >= applied[0].invalidated
    assert stats["recalibrations"] >= 1

    rows = [
        {"metric": f"iter {r.iteration} error", "value": r.sim_error}
        for r in report.records
    ]
    rows.append({"metric": "mean before recal", "value": mean_before})
    rows.append({"metric": "mean after recal", "value": mean_after})
    print_table("Online recalibration: sim-vs-engine makespan error", rows,
                ["metric", "value"])

    save_results("service_recalibration", {
        "job": RECAL_JOB,
        "iterations": RECAL_ITERATIONS,
        "interval": 2,
        "errors": errors,
        "mean_error_before": mean_before,
        "mean_error_after": mean_after,
        "recalibrations_applied": len(applied),
        "cache_entries_invalidated": cache_stats.invalidations,
        "fit_error_before": (applied[0].report.mean_abs_error_before
                             if applied[0].report else None),
        "fit_error_after": (applied[0].report.mean_abs_error_after
                            if applied[0].report else None),
    })


# -- cross-process serving (PR 5) -------------------------------------------

RPC_JOB = "VLM-M"  # the Fig. 11 workload (12 microbatches, seed 9)
RPC_MICROBATCHES = 12
RPC_WORKLOAD_SEED = 9
RPC_ITERATIONS = 3
RPC_REPLICAS = 4
RPC_BUDGET = 24
PING_SAMPLES = 50
HIT_SAMPLES = 8


def _timed(fn):
    t0 = time.monotonic()
    fn()
    return time.monotonic() - t0


def run_rpc_transport():
    """In-process vs socket-served planning on the fig11 workload.

    Same service configuration, same batches, same seeds — the only
    difference is the transport: `drive_replicas` over direct calls vs
    `drive_fleet` with one address over a Unix socket, with per-replica
    client processes' worth of connections.  Measures the per-plan latency
    overhead of the socket hop (frame codec + canonical-plan payload +
    client-side replay round trip).
    """
    import os
    import tempfile

    from repro.fleet import FleetClient, drive_fleet
    from repro.service import PlanServiceClient, PlanServiceServer

    setup = make_setup(RPC_JOB)
    batches = setup.workload(RPC_MICROBATCHES,
                             seed=RPC_WORKLOAD_SEED).batches(RPC_ITERATIONS)

    def build_service():
        service = PlanService(num_workers=2, max_queue=64)
        register(service, setup, budget=RPC_BUDGET)
        return service

    def planner_mirror(_job):
        return OnlinePlanner(setup.arch, setup.cluster, setup.parallel,
                             setup.cost_model,
                             searcher=make_searcher(setup, RPC_BUDGET))

    # In-process baseline.
    local_service = build_service()
    t0 = time.monotonic()
    local_report = drive_replicas(local_service, {RPC_JOB: batches},
                                  replicas=RPC_REPLICAS, timeout_s=600)
    local_s = time.monotonic() - t0
    local_stats = local_service.stats.snapshot()
    # Hit-path latency: the first batch is cached now, so repeated
    # submits replay without a search — the per-plan floor.
    local_hit_s = min(
        _timed(lambda: local_service.submit(RPC_JOB, batches[0])
               .result(timeout=600))
        for _ in range(HIT_SAMPLES)
    )
    local_service.close()

    # Socket-served: same config behind a Unix socket.
    remote_service = build_service()
    uds = os.path.join(tempfile.mkdtemp(prefix="repro-rpc-bench-"),
                       "plan.sock")
    server = PlanServiceServer(remote_service, uds=uds)
    t0 = time.monotonic()
    remote_report, _clients = drive_fleet(
        [server.address], {RPC_JOB: batches}, replicas=RPC_REPLICAS,
        planner_factory=planner_mirror, timeout_s=600,
    )
    remote_s = time.monotonic() - t0
    remote_stats = remote_service.stats.snapshot()
    wire_stats = server.remote.snapshot()

    # Hit-path latency over the socket: prepare + frame round trip +
    # canonical-plan payload + local replay, no search — against the
    # in-process hit path this isolates the socket hop per plan.
    prober = FleetClient([server.address], RPC_JOB, 0, [],
                         planner=planner_mirror(RPC_JOB), timeout_s=600)
    remote_hit_s = min(
        _timed(lambda: prober.plan_batch(batches[0]))
        for _ in range(HIT_SAMPLES)
    )
    prober.close()

    # Raw round-trip floor: ping RTT through the same frame codec.
    with PlanServiceClient(server.address) as probe:
        t0 = time.monotonic()
        for _ in range(PING_SAMPLES):
            probe.ping()
        ping_rtt_s = (time.monotonic() - t0) / PING_SAMPLES
    server.close()
    remote_service.close()
    return {
        "local": (local_report, local_stats, local_s, local_hit_s),
        "remote": (remote_report, remote_stats, remote_s, wire_stats,
                   remote_hit_s),
        "ping_rtt_s": ping_rtt_s,
    }


@pytest.mark.benchmark(group="service")
def test_rpc_transport_identical_plans_and_overhead(benchmark):
    results = benchmark.pedantic(run_rpc_transport, rounds=1, iterations=1)
    local_report, local_stats, local_s, local_hit_s = results["local"]
    (remote_report, remote_stats, remote_s, wire_stats,
     remote_hit_s) = results["remote"]

    total = RPC_REPLICAS * RPC_ITERATIONS
    assert not local_report.errors, local_report.errors
    assert not remote_report.errors, remote_report.errors
    assert len(local_report.records) == total
    assert len(remote_report.records) == total
    # Cross-process plans are makespan-identical to in-process plans,
    # replica by replica, iteration by iteration.
    for i in range(RPC_ITERATIONS):
        local_ms = local_report.makespans(RPC_JOB, i)
        remote_ms = remote_report.makespans(RPC_JOB, i)
        assert len(set(local_ms)) == 1
        assert len(set(remote_ms)) == 1
        assert remote_ms[0] == pytest.approx(local_ms[0], rel=1e-12)
    # The socket path exercises the same coalescing machinery: one
    # search per distinct batch, the rest replays/coalesces — and every
    # remote submit flowed through the server's ServiceStats.
    assert remote_stats["searches"] == RPC_ITERATIONS
    assert remote_stats["completed"] == total
    assert remote_stats["coalesced"] + remote_stats["replays"] > 0
    assert wire_stats["connections_opened"] >= RPC_REPLICAS
    assert wire_stats["protocol_errors"] == 0

    def mean_latency_ms(report):
        return sum(r.latency_s for r in report.records) * 1e3 / max(
            1, len(report.records))

    local_lat_ms = mean_latency_ms(local_report)
    remote_lat_ms = mean_latency_ms(remote_report)
    # Search time dominates mean latency on both transports (seconds),
    # so the clean socket-hop figure is the *hit path*: a cached plan's
    # submit→replay round trip with no search on either side.
    overhead_ms = (remote_hit_s - local_hit_s) * 1e3
    rows = [
        {"metric": "plans (each transport)", "value": total},
        {"metric": "in-process wall (s)", "value": local_s},
        {"metric": "socket wall (s)", "value": remote_s},
        {"metric": "in-process mean plan latency (ms)",
         "value": local_lat_ms},
        {"metric": "socket mean plan latency (ms)",
         "value": remote_lat_ms},
        {"metric": "in-process hit-path latency (ms)",
         "value": local_hit_s * 1e3},
        {"metric": "socket hit-path latency (ms)",
         "value": remote_hit_s * 1e3},
        {"metric": "socket hop overhead per plan (ms)",
         "value": overhead_ms},
        {"metric": "ping RTT (ms)", "value": results["ping_rtt_s"] * 1e3},
        {"metric": "bytes over the wire",
         "value": wire_stats["bytes_in"] + wire_stats["bytes_out"]},
    ]
    print_table("Cross-process plan serving: socket vs in-process", rows,
                ["metric", "value"])
    save_results("service_rpc", {
        "job": RPC_JOB,
        "workload": {"microbatches": RPC_MICROBATCHES,
                     "seed": RPC_WORKLOAD_SEED,
                     "iterations": RPC_ITERATIONS,
                     "replicas": RPC_REPLICAS,
                     "budget": RPC_BUDGET},
        "makespans_identical": True,
        "plans": total,
        "searches": remote_stats["searches"],
        "coalesced": remote_stats["coalesced"],
        "replays": remote_stats["replays"],
        "local_wall_s": local_s,
        "remote_wall_s": remote_s,
        "local_mean_latency_ms": local_lat_ms,
        "remote_mean_latency_ms": remote_lat_ms,
        "local_hit_latency_ms": local_hit_s * 1e3,
        "remote_hit_latency_ms": remote_hit_s * 1e3,
        "socket_overhead_per_plan_ms": overhead_ms,
        "ping_rtt_ms": results["ping_rtt_s"] * 1e3,
        "wire_bytes_in": wire_stats["bytes_in"],
        "wire_bytes_out": wire_stats["bytes_out"],
        "connections": wire_stats["connections_opened"],
        "local_p50_latency_ms": local_stats["plan_latency_p50_s"] * 1e3,
        "remote_p50_latency_ms": remote_stats["plan_latency_p50_s"] * 1e3,
    })
