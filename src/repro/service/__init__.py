"""Planning service: the per-process planner as shared infrastructure.

* :mod:`repro.service.service` — :class:`PlanService`: worker pool,
  bounded priority queue, in-flight request coalescing on graph
  signatures, background warm search, online recalibration (with a
  held-out validation window gating refits).
* :mod:`repro.service.requests` — tickets, pending entries, admission
  errors, wire errors, and the remote-request lifecycle.
* :mod:`repro.service.stats` — :class:`ServiceStats` telemetry (queue
  depth, coalesce rate, latency percentiles) and :class:`RemoteStats`
  (per-connection wire counters).
* :mod:`repro.service.recal` — per-job recalibration windows + policy.
* :mod:`repro.service.replica` — DP-replica clients and multi-job
  drivers (including the closed plan→execute→observe loop).
* :mod:`repro.service.rpc` — :class:`PlanServiceServer`: the service
  behind a length-prefixed JSON-RPC socket (TCP or Unix).
* :mod:`repro.service.client` — :class:`PlanServiceClient` (the raw
  RPC connection) and :func:`submit_and_replay`, which re-materializes
  a served canonical plan onto a locally built graph.  The replica-level
  wire client is :class:`repro.fleet.client.FleetClient`, for one
  server or many.
"""

from repro.service.client import (
    PlanServiceClient,
    ServiceConnection,
    submit_and_replay,
)
from repro.service.recal import (
    JobRecalibrator,
    RecalibrationEvent,
    RecalibrationPolicy,
)
from repro.service.replica import (
    DriveReport,
    ReplicaClient,
    ReplicaRecord,
    drive_replicas,
    observed_execution,
    run_clients,
    run_recalibrating_replica,
)
from repro.service.requests import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_SEARCH,
    DeadlineExceededError,
    PlanTicket,
    ProtocolError,
    RemotePlanError,
    RemoteRequest,
    ServiceClosedError,
    ServiceOverloadError,
    SignatureMismatchError,
)
from repro.service.retry import (
    TRANSPORT_ERRORS,
    RetryPolicy,
    RetrySession,
    retryable,
)
from repro.service.rpc import PlanServiceServer
from repro.service.service import PREWARM_PRIORITY, PlanService, RegisteredJob
from repro.service.stats import ConnectionStats, RemoteStats, ServiceStats

__all__ = [
    "PlanService",
    "PlanServiceServer",
    "PlanServiceClient",
    "ServiceConnection",
    "submit_and_replay",
    "RegisteredJob",
    "PlanTicket",
    "ServiceStats",
    "RemoteStats",
    "ConnectionStats",
    "ServiceOverloadError",
    "ServiceClosedError",
    "ProtocolError",
    "RemotePlanError",
    "RemoteRequest",
    "SignatureMismatchError",
    "DeadlineExceededError",
    "RetryPolicy",
    "RetrySession",
    "TRANSPORT_ERRORS",
    "retryable",
    "RecalibrationPolicy",
    "RecalibrationEvent",
    "JobRecalibrator",
    "ReplicaClient",
    "ReplicaRecord",
    "DriveReport",
    "drive_replicas",
    "run_clients",
    "observed_execution",
    "run_recalibrating_replica",
    "OUTCOME_SEARCH",
    "OUTCOME_HIT",
    "OUTCOME_COALESCED",
    "PREWARM_PRIORITY",
]
