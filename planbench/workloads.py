"""The benchmark's workloads: batch generation, the closed loops that
plan them and the output checks.

Every workload is a closed loop: a caller submits its next batch only
after the previous plan came back.  A plan's latency runs from the
submit to a replayed plan the caller can use (``SearchResult`` with a
simulated timeline on the caller's own graph).  Batch generation and
the output checks run outside the timed window.

The program only ever sees generated batches; the workload seed picks
them, while the planner's own search seed stays fixed (0), as in a
deployment that plans a varying data stream.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: Evaluation budget of the in-process planners: the searcher default.
STREAM_BUDGET = 120
#: The planner's own search seed (fixed; the workload seed varies the
#: batches only).
SEARCH_SEED = 0
#: Seed of the fleet workload's fixed pool of batch shapes; the
#: workload seed only decides how often each shape is drawn.
POOL_SEED = 0


@dataclass(frozen=True)
class StreamWorkload:
    """One in-process ``OnlinePlanner`` driven by a single caller over
    the seeded workload stream of ``model``."""

    name: str
    model: str
    microbatches: int
    #: Plans averaged into ``sim_iteration_ms``; a fixed prefix of the
    #: stream, so the figure is the same for a seed on any machine.
    sim_plans: int
    why: str


@dataclass(frozen=True)
class FleetWorkload:
    """A one-shard ``PlanFleet`` served to ``replicas`` caller threads
    that draw batches with a seeded Zipf skew from a fixed pool."""

    name: str
    model: str
    microbatches: int
    replicas: int
    #: Distinct batch shapes in the fixed pool; larger than
    #: ``cache_size`` so the shard's in-memory LRU evicts and the disk
    #: tier answers.
    pool: int
    cache_size: int
    #: Zipf exponent of the draw (rank r drawn with weight r**-skew).
    skew: float
    budget: int
    workers: int
    #: Length of the draw-sequence prefix behind ``sim_iteration_ms``,
    #: which averages one makespan per distinct shape drawn in it.
    sim_plans: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        StreamWorkload(
            name="vlm-s-stream", model="VLM-S", microbatches=4,
            sim_plans=200,
            why="rollout-bound: MCTS reorder does most of the work, "
                "every lookup is a near miss then a store",
        ),
        StreamWorkload(
            name="vlm-m-memsolve", model="VLM-M", microbatches=12,
            sim_plans=4,
            why="memory-solve-bound: branch-and-bound hits its node "
                "limit on most ranks (2-7 s per plan on 2 cores)",
        ),
        FleetWorkload(
            name="t2v-s-replicas", model="T2V-S", microbatches=8,
            replicas=2, pool=48, cache_size=16, skew=1.0, budget=16,
            workers=2, sim_plans=300,
            why="serving and cache reads: memory/disk hits and "
                "coalesced requests over RPC, searches are rare",
        ),
    )
}


# -- results ---------------------------------------------------------------


@dataclass
class Tally:
    """What one timed phase delivered."""

    latencies_s: List[float] = field(default_factory=list)
    #: When each timed plan was delivered, in seconds into the phase.
    done_at_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Makespans of the first ``sim_plans`` plans of the stream.
    makespans_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


# -- output checks ---------------------------------------------------------


def check_plan(result, planner) -> List[str]:
    """Problems with one delivered plan; empty when it is correct.

    The simulated timeline must stay within every rank's memory limit
    with a finite makespan, and the plan must compile to per-rank
    actions whose execution reproduces the predicted makespan.
    """
    from repro.runtime.compiler import compile_schedule
    from repro.runtime.engine import execute_plan

    problems = []
    schedule = result.schedule
    if schedule.predicted.memory_exceeded:
        problems.append(f"memory limit exceeded on ranks "
                        f"{schedule.predicted.memory_exceeded}")
    if not (math.isfinite(result.total_ms) and result.total_ms > 0):
        problems.append(f"makespan {result.total_ms!r} is not finite")
        return problems
    try:
        plan = compile_schedule(schedule.graph, schedule.order,
                                planner.cluster, planner.parallel,
                                planner.cost_model)
        engine = execute_plan(plan)
    except Exception as exc:  # noqa: BLE001 — any failure is a bad plan
        return problems + [f"plan does not execute: {exc!r}"]
    if not math.isclose(engine.total_ms, result.total_ms, rel_tol=1e-9):
        problems.append(f"executed makespan {engine.total_ms!r} != "
                        f"predicted {result.total_ms!r}")
    return problems


Checker = Callable[[object, object], List[str]]


# -- set-up ----------------------------------------------------------------


def build_planner(model: str, budget: int, cache_size: int = 64):
    """The planner the ``repro`` CLI builds for ``model``."""
    from repro.cli import _setup

    return _setup(model, budget, SEARCH_SEED, plan_cache=True,
                  cache_size=cache_size)[3]


def model_stream(planner, microbatches: int, seed: int):
    from repro.data.workload import t2v_workload, vlm_workload

    make = t2v_workload if planner.arch.kind == "t2v" else vlm_workload
    return make(microbatches, seed=seed)


# -- in-process stream -----------------------------------------------------


def run_stream(workload: StreamWorkload, planner, seed: int, seconds: float,
               checker: Checker = check_plan,
               clock=contextlib.nullcontext()) -> Tally:
    """Closed loop over the seeded stream for ``seconds`` of plan time,
    inside ``clock`` (the traced run's wrappers).

    At least one plan is attempted.  Plans beyond the timed phase are
    made (untimed) only until ``sim_plans`` makespans exist, with at
    most ``sim_plans`` attempts.
    """
    stream = model_stream(planner, workload.microbatches, seed)
    tally = Tally()

    def plan_next(timed: bool) -> None:
        batch = stream.next_batch()
        start = time.perf_counter()
        try:
            result = planner.plan_iteration(batch)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            tally.attempted += 1
            tally.fail(f"plan {tally.attempted - 1} raised {exc!r}")
            return
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        if timed:
            tally.wall_s += elapsed
            tally.latencies_s.append(elapsed)
            tally.done_at_s.append(tally.wall_s)
        problems = checker(result, planner)
        if problems:
            tally.fail(f"plan {tally.attempted - 1}: {'; '.join(problems)}")
        if len(tally.makespans_ms) < workload.sim_plans:
            tally.makespans_ms.append(result.total_ms)

    with clock:
        while tally.wall_s < seconds or tally.attempted == 0:
            plan_next(timed=True)
    for _ in range(workload.sim_plans):
        if len(tally.makespans_ms) >= workload.sim_plans:
            break
        plan_next(timed=False)
    return tally


# -- fleet -----------------------------------------------------------------


def fleet_draws(workload: FleetWorkload, seed: int, count: int) -> List[int]:
    """Pool indices every replica requests, in order: Zipf-skewed over a
    seeded permutation of the pool, so which shapes are hot varies with
    the seed while the skew does not."""
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(workload.pool)
    weights = 1.0 / np.arange(1, workload.pool + 1) ** workload.skew
    picks = rng.choice(workload.pool, size=count, p=weights / weights.sum())
    return [int(ranks[p]) for p in picks]


class FleetRun:
    """A live one-shard fleet plus one routed client per replica.

    Owns a scratch directory (disk tier, shard logs and span files)
    that :meth:`close` removes.
    """

    def __init__(self, workload: FleetWorkload, work_dir: str,
                 traced: bool = False) -> None:
        from repro.fleet.client import FleetClient
        from repro.fleet.launcher import FleetConfig, PlanFleet
        from repro.obs.tracing import RequestTracer

        self.work_dir = work_dir
        self.trace_dir = os.path.join(work_dir, "trace") if traced else None
        self.tracer = RequestTracer(role="client") if traced else None
        config = FleetConfig(
            models=[workload.model], shards=1,
            cache_dir=os.path.join(work_dir, "cache"),
            runtime_dir=os.path.join(work_dir, "run"),
            transport="tcp", budget=workload.budget, seed=SEARCH_SEED,
            workers=workload.workers, queue=64,
            cache_size=workload.cache_size,
            # Warm starts would make a searched plan depend on which
            # shapes the shard happened to see first; without them a
            # plan is a pure function of its signature, so makespans are
            # comparable across replicas and runs.
            near_miss=False,
            trace_dir=self.trace_dir,
        )
        self.clients = []
        self.fleet = PlanFleet(config)
        try:
            self.fleet.start()
            for replica in range(workload.replicas):
                planner = build_planner(workload.model, workload.budget,
                                        cache_size=workload.cache_size)
                self.clients.append(FleetClient(
                    self.fleet.addresses, workload.model, replica, [],
                    planner=planner, timeout_s=60.0, tracer=self.tracer))
        except BaseException:
            self.close()
            raise

    def poll(self) -> Dict:
        """Shard-side counters: the ``stats`` and ``metrics`` RPCs."""
        from repro.fleet.client import fleet_stats
        from repro.obs.registry import sample_value
        from repro.service.client import PlanServiceClient

        address = self.fleet.addresses[0]
        client = PlanServiceClient(address, timeout_s=30.0)
        try:
            metrics = client.call("metrics", {})["metrics"]
        finally:
            client.close()
        stats = fleet_stats(self.fleet.addresses)
        stats["frames"] = sample_value(metrics, "repro_rpc_frames_total",
                                       default=0.0)
        return stats

    def close(self) -> List:
        """Stop the shard (it writes its span file on the way out) and
        return the shard-side spans, then remove the scratch files."""
        from repro.trace.events import Trace

        for client in self.clients:
            client.close()
        self.fleet.stop()
        spans = []
        if self.trace_dir and os.path.isdir(self.trace_dir):
            for name in sorted(os.listdir(self.trace_dir)):
                if name.endswith(".trace.json"):
                    spans.extend(Trace.load(
                        os.path.join(self.trace_dir, name)).spans)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        return spans


def plan_key(index: int, result) -> tuple:
    """Everything a delivered plan's checks depend on: the pool shape it
    was planned for, the per-rank order, the per-pair strategy
    selection and the predicted timeline's makespan and memory flags.
    Deliveries with equal keys pass or fail the checks together."""
    schedule = result.schedule
    return (index, result.signature,
            tuple(tuple(rank) for rank in schedule.order),
            tuple(pair.selected for pair in schedule.graph.pairs),
            result.total_ms, tuple(schedule.predicted.memory_exceeded))


def run_fleet(workload: FleetWorkload, fleet: FleetRun, seed: int,
              seconds: float, checker: Checker = check_plan,
              clock=contextlib.nullcontext()) -> Tally:
    """Every replica thread walks the same draw sequence in a closed
    loop until ``seconds`` of wall time have passed (each attempts at
    least one plan), inside ``clock``; checks run after all threads
    stopped.

    The pool is fixed (generated from :data:`POOL_SEED`); the workload
    seed draws from it.  A delivered plan is kept only as its
    :func:`plan_key` — the first delivery of each key is checked in full
    and the verdict applies to every delivery of that key, so memory
    stays bounded by the distinct plans, not the requests.
    """
    from repro.service.requests import SignatureMismatchError

    pool = model_stream(fleet.clients[0].planner, workload.microbatches,
                        POOL_SEED).batches(workload.pool)
    draws = fleet_draws(workload, seed, 100_000)
    lock = threading.Lock()
    first: Dict[tuple, tuple] = {}  # key -> (replica, first result)
    delivered: List[List[tuple]] = [[] for _ in fleet.clients]
    errors: List[str] = []
    attempts = [0] * len(fleet.clients)
    ends = [0.0] * len(fleet.clients)
    barrier = threading.Barrier(len(fleet.clients) + 1)
    start = [0.0]

    def plan(index: int, i: int) -> Optional[tuple]:
        """(latency, key) of one request, or None when it failed."""
        t0 = time.perf_counter()
        try:
            result, _report = fleet.clients[index].plan_batch(
                pool[draws[i]])
            latency = time.perf_counter() - t0
        except SignatureMismatchError as exc:
            with lock:
                errors.append(f"replica {index} plan {i}: signature "
                              f"mismatch: {exc}")
            return None
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            with lock:
                errors.append(f"replica {index} plan {i}: {exc!r}")
            return None
        key = plan_key(draws[i], result)
        with lock:
            first.setdefault(key, (index, result))
        return latency, key

    def replica_loop(index: int) -> None:
        barrier.wait()
        i = 0
        while i == 0 or time.perf_counter() - start[0] < seconds:
            outcome = plan(index, i)
            if outcome is not None:
                delivered[index].append(
                    (i, *outcome, time.perf_counter() - start[0]))
            i += 1
        attempts[index] = i
        ends[index] = time.perf_counter()

    threads = [threading.Thread(target=replica_loop, args=(r,),
                                name=f"replica-{r}")
               for r in range(len(fleet.clients))]
    with clock:
        for thread in threads:
            thread.start()
        start[0] = time.perf_counter()
        barrier.wait()
        for thread in threads:
            thread.join()

    tally = Tally(attempted=sum(attempts))
    tally.wall_s = max(ends) - start[0]
    # Replica 0 tops up, untimed, until the fixed prefix of the draw
    # sequence behind sim_iteration_ms is planned.
    i = attempts[0]
    while i < workload.sim_plans:
        tally.attempted += 1
        outcome = plan(0, i)
        if outcome is not None:
            delivered[0].append((i, None, outcome[1], None))
        i += 1
    for problem in errors:
        tally.fail(problem)

    verdicts: Dict[tuple, List[str]] = {}
    makespan_of: Dict[str, float] = {}
    for key, (index, result) in first.items():
        problems = checker(result, fleet.clients[index].planner)
        seen = makespan_of.setdefault(result.signature, result.total_ms)
        if seen != result.total_ms:
            problems.append(f"signature {result.signature[:12]} got "
                            f"makespans {seen!r} and {result.total_ms!r}")
        verdicts[key] = problems
    for index, plans in enumerate(delivered):
        for i, latency, key, done_at in plans:
            if latency is not None:
                tally.latencies_s.append(latency)
                tally.done_at_s.append(done_at)
            if verdicts[key]:
                tally.fail(f"replica {index} plan {i}: "
                           f"{'; '.join(verdicts[key])}")
    # One makespan per distinct shape among the first sim_plans draws:
    # repeated draws of a shape replay the same plan.
    shapes = {key[0]: key[4] for i, _lat, key, _done in delivered[0]
              if i < workload.sim_plans}
    tally.makespans_ms = [shapes[k] for k in sorted(shapes)]
    return tally
