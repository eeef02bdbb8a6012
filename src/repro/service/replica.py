"""DP-replica clients and multi-job drivers for the planning service.

The production shape this simulates: each data-parallel replica of each
job submits its iteration's batch to the shared planning service and
blocks on the returned ticket; replicas of one job see the *same* batch
stream (data parallelism shards the data, not the batch metadata the
planner consumes), so concurrent submissions coalesce into one search.
A recalibrating driver additionally "executes" every planned schedule
on the hidden-truth reference hardware (runtime engine with repriced,
jittered durations) and feeds the observed traces back through
:meth:`~repro.service.service.PlanService.observe`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.searcher import SearchResult
from repro.data.batching import GlobalBatch
from repro.runtime.compiler import compile_schedule, reprice_plan
from repro.service.recal import RecalibrationEvent
from repro.service.service import PlanService
from repro.sim.reference import ReferenceCostModel
from repro.trace.builders import trace_from_engine
from repro.trace.events import Trace


@dataclass
class ReplicaRecord:
    """One replica's accounting for one planned iteration."""

    job: str
    replica: int
    iteration: int
    outcome: str
    predicted_ms: float
    latency_s: float
    queue_wait_s: float
    signature: Optional[str] = None
    observed_ms: Optional[float] = None

    @property
    def sim_error(self) -> Optional[float]:
        """Relative sim-vs-engine makespan error, when executed."""
        if self.observed_ms is None or self.observed_ms <= 0:
            return None
        return abs(self.predicted_ms - self.observed_ms) / self.observed_ms


@dataclass
class DriveReport:
    """Everything a multi-replica drive learned."""

    records: List[ReplicaRecord] = field(default_factory=list)
    errors: List[Tuple[str, int, int, str]] = field(default_factory=list)
    recal_events: List[RecalibrationEvent] = field(default_factory=list)

    def by_outcome(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.outcome] = out.get(record.outcome, 0) + 1
        return out

    def makespans(self, job: str, iteration: int) -> List[float]:
        """Every replica's delivered makespan for one (job, iteration)."""
        return [
            r.predicted_ms for r in self.records
            if r.job == job and r.iteration == iteration
        ]


class ReplicaClient:
    """One DP replica: submits its batch stream iteration by iteration."""

    def __init__(
        self,
        service: PlanService,
        job: str,
        replica: int,
        batches: Sequence[GlobalBatch],
        timeout_s: float = 300.0,
    ) -> None:
        self.service = service
        self.job = job
        self.replica = replica
        self.batches = list(batches)
        self.timeout_s = timeout_s
        self.records: List[ReplicaRecord] = []
        self.errors: List[Tuple[str, int, int, str]] = []

    def run(self) -> List[ReplicaRecord]:
        for i, batch in enumerate(self.batches):
            try:
                ticket = self.service.submit(
                    self.job, batch, replica=self.replica, block=True,
                    timeout=self.timeout_s,
                )
                result = ticket.result(timeout=self.timeout_s)
            except Exception as exc:  # noqa: BLE001 — recorded, not fatal
                self.errors.append((self.job, self.replica, i, str(exc)))
                continue
            self.records.append(ReplicaRecord(
                job=self.job,
                replica=self.replica,
                iteration=i,
                outcome=ticket.outcome or "",
                predicted_ms=result.total_ms,
                latency_s=ticket.latency_s or 0.0,
                queue_wait_s=ticket.queue_wait_s or 0.0,
                signature=result.signature,
            ))
        return self.records


def run_clients(clients: Sequence, timeout_s: float = 300.0) -> DriveReport:
    """Run any replica-shaped clients concurrently, one thread each.

    A *client* is anything with ``run()`` populating ``records`` and
    ``errors`` — the in-process :class:`ReplicaClient` and the socket
    :class:`~repro.fleet.client.FleetClient` both qualify, so the same
    driver exercises either transport.  Blocks until every client
    drains its stream; per-request failures are recorded, not raised.
    """
    threads = [
        threading.Thread(target=client.run, name=f"replica-{c}", daemon=True)
        for c, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
    report = DriveReport()
    for client, thread in zip(clients, threads):
        if thread.is_alive():
            # The replica is hung (e.g. a search exceeding timeout_s);
            # its records list is still being mutated — snapshot it and
            # surface the hang as an error so callers don't read a
            # silently partial drive as success.
            report.errors.append((client.job, client.replica, -1,
                                  f"replica thread still running after "
                                  f"{timeout_s}s"))
            report.records.extend(list(client.records))
            continue
        report.records.extend(client.records)
        report.errors.extend(client.errors)
    report.records.sort(key=lambda r: (r.job, r.iteration, r.replica))
    return report


def drive_replicas(
    service: PlanService,
    streams: Dict[str, Sequence[GlobalBatch]],
    replicas: int,
    timeout_s: float = 300.0,
) -> DriveReport:
    """Hammer the service with ``replicas`` concurrent clients per job.

    Every replica of a job submits the same batch sequence (the
    data-parallel regime), so per iteration the service should run one
    search and fan the plan out to the rest.
    """
    clients = [
        ReplicaClient(service, job, replica, batches, timeout_s=timeout_s)
        for job, batches in streams.items()
        for replica in range(replicas)
    ]
    return run_clients(clients, timeout_s=timeout_s)


def observed_execution(
    service: PlanService,
    job_name: str,
    result: SearchResult,
    reference: ReferenceCostModel,
    label: str = "engine",
) -> Trace:
    """Execute a planned schedule on the hidden-truth "hardware".

    Compiles the schedule, reprices every compute action under the
    reference cost model (with its measurement jitter), replays the plan
    on the deterministic runtime engine, and returns the engine trace
    enriched with the planner graph's workload attribution — exactly
    what :meth:`PlanService.observe` wants back.
    """
    job = service.job(job_name)
    graph = result.schedule.graph
    plan = compile_schedule(graph, result.schedule.order, job.cluster,
                            job.parallel, job.planner.cost_model)
    truth = reprice_plan(plan, graph, job.device, job.specs, reference,
                         tp=job.parallel.tp, jitter=reference.jitter)
    return trace_from_engine(truth, graph=graph, label=label,
                             schedule_uid=result.signature or "")


def run_recalibrating_replica(
    service: PlanService,
    job_name: str,
    batches: Sequence[GlobalBatch],
    reference: ReferenceCostModel,
    timeout_s: float = 300.0,
) -> DriveReport:
    """One replica planning + executing + observing every iteration.

    The closed loop the ISSUE's accuracy-drift criterion measures: each
    iteration's plan is executed on the reference hardware, the observed
    trace feeds the service's recalibration window, and the per-record
    ``sim_error`` tracks how far the planner's predicted makespan sits
    from the observed one — it should fall once recalibration kicks in.
    """
    report = DriveReport()
    for i, batch in enumerate(batches):
        ticket = service.submit(job_name, batch, block=True,
                                timeout=timeout_s)
        result = ticket.result(timeout=timeout_s)
        trace = observed_execution(service, job_name, result, reference)
        event = service.observe(job_name, trace)
        if event is not None:
            report.recal_events.append(event)
        report.records.append(ReplicaRecord(
            job=job_name,
            replica=0,
            iteration=i,
            outcome=ticket.outcome or "",
            predicted_ms=result.total_ms,
            latency_s=ticket.latency_s or 0.0,
            queue_wait_s=ticket.queue_wait_s or 0.0,
            signature=result.signature,
            observed_ms=trace.total_ms,
        ))
    return report
