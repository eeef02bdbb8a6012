"""Signature-routed client over one planning server or a fleet of shards.

:class:`FleetClient` is the one wire client, for a single server (one
address) or a sharded fleet.  It has the same ``run()`` / ``records`` /
``errors`` surface as the in-process
:class:`~repro.service.replica.ReplicaClient` (so
:func:`~repro.service.replica.run_clients` drives either), with routing
in the middle: each batch is prepared and fingerprinted *locally*, and
the signature digest picks the shard through the fleet's consistent-hash
ring.  Every client process computes the same mapping, so identical
signatures from different processes still meet on one shard and coalesce
there, exactly as they would against a single server.

Failure handling is explicit about the trade it makes: when a shard is
unreachable, the request retries along the ring's preference order
(every client picks the same successor), which keeps planning available
but *temporarily splits the signature's home* — a loud
:class:`FleetFailoverWarning` says so.  Context mismatches
(:class:`~repro.service.requests.SignatureMismatchError`) never fail
over: a plan that replays wrongly on one shard replays wrongly on all
of them.

Resilience layers (outermost first):

1. A :class:`~repro.service.retry.RetryPolicy` governs how many
   transport-failed attempts one request may burn and spaces the walks
   with decorrelated-jitter backoff — only transport-shaped errors
   retry; deterministic outcomes (plan failures, signature mismatches,
   spent deadlines) never do.
2. A per-shard :class:`~repro.fleet.breaker.CircuitBreaker` stops the
   client from re-dialing a dead shard on every request; open shards
   are skipped in the preference walk.
3. When retries are exhausted or *every* shard in the signature's
   preference list is refused by its breaker, the client (optionally)
   falls back to **degraded-mode local planning**: the same search on
   the local planner mirror, flagged ``degraded`` in the report —
   correct plans, temporarily without fleet coalescing.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.planner import OnlinePlanner
from repro.data.batching import GlobalBatch
from repro.fleet.breaker import CircuitBreaker
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.obs.registry import MetricsRegistry
from repro.service.client import (
    PlanServiceClient,
    ServiceConnection,
    submit_and_replay,
)
from repro.service.replica import ReplicaRecord
from repro.service.requests import (
    DeadlineExceededError,
    RemotePlanError,
    ServiceClosedError,
    SignatureMismatchError,
)
from repro.service.retry import TRANSPORT_ERRORS, RetryPolicy
from repro.service.stats import ServiceStats
from repro.trace.events import Trace


class FleetFailoverWarning(RuntimeWarning):
    """A shard was unreachable and its requests moved to the ring
    successor — coalescing locality for those signatures is temporarily
    lost until the shard returns.

    Carries the failure's structure alongside the message so telemetry
    and tests need not parse the text: the failed shard ``address``,
    its ``ring_position`` (index into the ring's node list, ``-1``
    when unknown), the 1-based ``attempts`` count that failed so far
    for this request, and ``suppressed`` — how many earlier warnings
    for the same shard were rate-limited away since the last emitted
    one (see :class:`WarningAggregator`).
    """

    def __init__(self, message: str, address: Optional[str] = None,
                 ring_position: int = -1, attempts: int = 0,
                 suppressed: int = 0) -> None:
        super().__init__(message)
        self.address = address
        self.ring_position = ring_position
        self.attempts = attempts
        self.suppressed = suppressed


class WarningAggregator:
    """Rate-limits repeat warnings per key (shard address).

    A flapping shard in a tight drive loop would otherwise emit one
    :class:`FleetFailoverWarning` per request — hundreds per second,
    burying the signal.  The first occurrence for a key is always
    emitted; later ones inside ``interval_s`` are counted and
    suppressed, and the next emitted warning carries the suppressed
    count.  The clock is injectable so tests need no real sleeps.
    """

    def __init__(self, interval_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.interval_s = interval_s
        self._clock = clock
        self._last_emit: Dict[str, float] = {}
        #: Per-key counts of currently suppressed (not yet reported)
        #: warnings and of warnings actually emitted.
        self.suppressed: Dict[str, int] = {}
        self.emitted: Dict[str, int] = {}

    def should_emit(self, key: str) -> Tuple[bool, int]:
        """Charge one warning occurrence for ``key``.

        Returns ``(emit, suppressed_since_last)``: whether the caller
        should emit now, and how many occurrences were swallowed since
        the last emission (0 on the first).
        """
        now = self._clock()
        last = self._last_emit.get(key)
        if last is None or now - last >= self.interval_s:
            self._last_emit[key] = now
            self.emitted[key] = self.emitted.get(key, 0) + 1
            return True, self.suppressed.pop(key, 0)
        self.suppressed[key] = self.suppressed.get(key, 0) + 1
        return False, 0


class FleetClient:
    """One DP replica planning against one server or a sharded fleet.

    Args:
        addresses: Shard addresses (TCP ``host:port`` / ``uds://`` /
            socket paths); a single address drives a plain ``repro
            serve`` server.  Their *identity strings* define the ring —
            every client must be given the same set for routing to
            agree (order does not matter).
        job: Registered job name, identical on every shard.
        replica: This replica's index (accounting only).
        batches: The iteration batch stream to plan.
        planner: Local planner mirror (same planning context as the
            shards' job, plan cache enabled).
        timeout_s: Per-request bound on every shard connection.
        vnodes: Ring virtual nodes per shard.
        failover: Retry unreachable shards' requests on ring successors
            (loudly).  ``False`` surfaces shard loss as a per-batch
            error instead.
        tracer: Optional :class:`~repro.obs.tracing.RequestTracer`;
            every routed submit then carries a distributed trace id and
            the client-side spans land in the tracer for merging with
            the shards' trace files.
        retry_policy: Backoff/budget policy for transport-failed
            attempts (defaults to :class:`RetryPolicy` defaults).
        deadline_s: Per-batch deadline budget in seconds.  Propagated
            on the wire (shards shed expired work) and enforced locally
            — a batch that cannot be planned inside the budget fails
            with the typed :class:`DeadlineExceededError`, never hangs.
        attempt_timeout_s: Per-attempt socket bound; defaults to
            ``timeout_s``.  Set it lower than ``deadline_s`` so several
            attempts fit inside one deadline budget.
        degraded: Enable degraded-mode *local* planning when retries
            are exhausted or every shard in the signature's preference
            list is refused by its circuit breaker.  Off by default —
            surfacing fleet loss as an error is the conservative
            choice; drives that prefer availability opt in.
        degraded_budget: Evaluation budget for degraded local searches
            (``None`` keeps the local searcher's own budget, which is
            what makes degraded makespans identical to fleet-served
            ones).
        breaker_threshold / breaker_recovery_s: Per-shard circuit
            breaker tuning (see :class:`CircuitBreaker`).
        warn_interval_s: Rate limit for per-shard failover warnings
            (see :class:`WarningAggregator`).
    """

    def __init__(
        self,
        addresses: Sequence[str],
        job: str,
        replica: int,
        batches: Sequence[GlobalBatch],
        planner: OnlinePlanner,
        timeout_s: float = 300.0,
        vnodes: int = DEFAULT_VNODES,
        failover: bool = True,
        tracer=None,
        retry_policy: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
        attempt_timeout_s: Optional[float] = None,
        degraded: bool = False,
        degraded_budget: Optional[int] = None,
        breaker_threshold: int = 3,
        breaker_recovery_s: float = 5.0,
        warn_interval_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.ring = HashRing([str(a) for a in addresses], vnodes=vnodes)
        self.job = job
        self.replica = replica
        self.batches = list(batches)
        self.planner = planner
        self.timeout_s = timeout_s
        self.failover = failover
        self.retry_policy = retry_policy or RetryPolicy()
        self.deadline_s = deadline_s
        self.attempt_timeout_s = (timeout_s if attempt_timeout_s is None
                                  else attempt_timeout_s)
        self.degraded = degraded
        self.degraded_budget = degraded_budget
        self._clock = clock
        self._conns: Dict[str, ServiceConnection] = {
            address: ServiceConnection(address,
                                       timeout_s=self.attempt_timeout_s,
                                       expect_job=job)
            for address in self.ring.nodes
        }
        self.tracer = tracer
        self.records: List[ReplicaRecord] = []
        self.errors: List[tuple] = []
        #: (signature digest, serving shard) per planned batch — the
        #: routing audit trail tests and the CLI assert on.  Degraded
        #: local plans route to the sentinel address ``"local"``.
        self.routes: List[Tuple[str, str]] = []
        self.failovers = 0
        self.retries = 0
        self.degraded_plans = 0
        self.deadline_failures = 0
        #: Structured audit trail: one dict per routing event
        #: (``kind="route"`` on success, ``kind="failover"`` when a
        #: shard was skipped, ``kind="degraded"`` for local fallback),
        #: ordered by a timestamp-free monotonic ``seq`` so event order
        #: survives serialisation.
        self.audit: List[Dict] = []
        self._audit_seq = 0
        self.warning_aggregator = WarningAggregator(
            interval_s=warn_interval_s, clock=clock)
        #: Client-side metrics registry: breaker states/transitions,
        #: retry/failover/degraded/deadline counters.  Scraped by
        #: ``repro obs`` via :meth:`metrics_snapshot`.
        self.metrics = MetricsRegistry()
        self._m_retries = self.metrics.counter(
            "repro_fleet_client_retries_total",
            "Transport-failed attempts that were retried",
            labels=("address",))
        self._m_failovers = self.metrics.counter(
            "repro_fleet_client_failovers_total",
            "Requests moved off an unreachable shard",
            labels=("address",))
        self._m_degraded = self.metrics.counter(
            "repro_fleet_client_degraded_total",
            "Plans produced by degraded-mode local search")
        self._m_deadline = self.metrics.counter(
            "repro_fleet_client_deadline_expired_total",
            "Requests that failed typed on a spent deadline")
        self._m_transitions = self.metrics.counter(
            "repro_fleet_breaker_transitions_total",
            "Circuit breaker state transitions",
            labels=("address", "to"))
        self._m_breaker_state = self.metrics.gauge(
            "repro_fleet_breaker_state",
            "Breaker state per shard (0 closed / 1 half-open / 2 open)",
            labels=("address",), agg="max")
        self.breakers: Dict[str, CircuitBreaker] = {}
        for address in self.ring.nodes:
            self.breakers[address] = CircuitBreaker(
                failure_threshold=breaker_threshold,
                recovery_s=breaker_recovery_s,
                clock=clock,
                on_transition=self._breaker_transition(address),
            )
            self._m_breaker_state.set(0, address=address)

    def _breaker_transition(self, address: str):
        def on_transition(_old: str, new: str) -> None:
            self._m_transitions.inc(address=address, to=new)
        return on_transition

    def _audit_event(self, kind: str, **fields) -> None:
        self._audit_seq += 1
        self.audit.append({"seq": self._audit_seq, "kind": kind,
                           **fields})

    # -- routing -------------------------------------------------------------

    @property
    def addresses(self) -> List[str]:
        return list(self.ring.nodes)

    def shard_for(self, digest: str) -> str:
        """The shard this client routes ``digest`` to (ring owner)."""
        return self.ring.node_for(digest)

    def connection(self, address: str) -> ServiceConnection:
        return self._conns[address]

    # -- planning ------------------------------------------------------------

    def plan_batch(self, batch: GlobalBatch) -> tuple:
        """Route one batch by its signature; returns
        ``(SearchResult, report dict)`` replayed on the local graph.

        The full resilience stack runs here: preference-order walks
        over non-open shards, retry walks spaced by the policy's
        backoff, deadline enforcement, and (when enabled) degraded
        local fallback.  Deterministic outcomes — plan failures,
        signature mismatches, spent deadlines — propagate immediately;
        only transport-shaped errors burn retry budget.
        """
        prepared = self.planner.prepare(batch)
        if prepared.signature is None:
            raise RemotePlanError(
                "local planner has caching disabled — fleet routing "
                "needs graph signatures"
            )
        digest = prepared.signature.digest
        preference = (self.ring.preference(digest) if self.failover
                      else [self.ring.node_for(digest)])
        deadline = (self._clock() + self.deadline_s
                    if self.deadline_s is not None else None)
        session = self.retry_policy.session()
        last_error: Optional[BaseException] = None
        while True:
            allowed_any = False
            for address in preference:
                if deadline is not None and self._clock() >= deadline:
                    self._raise_deadline(digest, deadline)
                if session.attempts >= self.retry_policy.max_attempts:
                    break
                if not self.breakers[address].allow():
                    continue
                allowed_any = True
                attempt = session.start_attempt()
                try:
                    result, report = submit_and_replay(
                        self.connection(address).client(), self.job,
                        self.planner, prepared, batch,
                        replica=self.replica,
                        timeout_s=self.attempt_timeout_s,
                        tracer=self.tracer, deadline_s=deadline,
                    )
                except DeadlineExceededError:
                    # The shard answered (or the budget died locally):
                    # a typed, terminal outcome — never a shard fault.
                    self._raise_deadline(digest, deadline)
                except TRANSPORT_ERRORS as exc:
                    # Only transport failures justify the next shard: a
                    # planning failure or signature mismatch is
                    # deterministic and would fail again elsewhere.
                    last_error = exc
                    self._attempt_failed(address, digest, attempt, exc)
                    continue
                except RemotePlanError:
                    # Deterministic planning outcome from a healthy,
                    # responding shard — would fail identically on
                    # every successor, at the cost of a full search.
                    self.breakers[address].record_success()
                    raise
                self.breakers[address].record_success()
                self.routes.append((digest, address))
                self._audit_event("route", signature=digest,
                                  address=address, attempts=attempt)
                return result, report
            if not allowed_any:
                # Every shard in the preference list is refused by its
                # breaker — the whole ring neighbourhood is down.
                if self.degraded:
                    return self._plan_degraded(prepared, digest,
                                               "breakers-open")
                raise (last_error if last_error is not None
                       else ServiceClosedError(
                           f"every shard in signature {digest[:12]}'s "
                           f"preference list has an open circuit "
                           f"breaker"))
            if session.give_up(last_error):
                if self.degraded:
                    return self._plan_degraded(prepared, digest,
                                               "retries-exhausted")
                raise last_error
            delay = session.next_delay_s()
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    self._raise_deadline(digest, deadline)
                delay = min(delay, remaining)
            if delay > 0:
                time.sleep(delay)

    def _raise_deadline(self, digest: str, deadline) -> None:
        self.deadline_failures += 1
        self._m_deadline.inc()
        self._audit_event("deadline", signature=digest)
        raise DeadlineExceededError(
            f"deadline budget ({self.deadline_s}s) spent before "
            f"signature {digest[:12]} could be planned"
        )

    def _attempt_failed(self, address: str, digest: str, attempt: int,
                        error: BaseException) -> None:
        """Account one transport-failed attempt: breaker, counters,
        audit trail, and a rate-limited failover warning."""
        self.breakers[address].record_failure()
        self.retries += 1
        self._m_retries.inc(address=address)
        try:
            ring_position = self.ring.nodes.index(address)
        except ValueError:
            ring_position = -1
        if not self.failover:
            return  # no successor to move to; run() records the error
        self.failovers += 1
        self._m_failovers.inc(address=address)
        self._audit_event(
            "failover", signature=digest, address=address,
            ring_position=ring_position, attempts=attempt,
            error=repr(error),
        )
        emit, suppressed = self.warning_aggregator.should_emit(address)
        if not emit:
            return
        extra = (f" ({suppressed} earlier warnings for this shard "
                 f"suppressed)" if suppressed else "")
        warnings.warn(
            FleetFailoverWarning(
                f"fleet shard {address} (ring position "
                f"{ring_position}, attempt {attempt}) unreachable "
                f"({error!r}); retrying signature {digest[:12]} on the "
                f"ring successor — coalescing locality is temporarily "
                f"lost for this signature until the shard "
                f"returns{extra}",
                address=address, ring_position=ring_position,
                attempts=attempt, suppressed=suppressed,
            ),
            stacklevel=3,
        )

    def _plan_degraded(self, prepared, digest: str, reason: str) -> tuple:
        """Bounded local fallback: plan on the client's own mirror.

        Same context, same search — the plan is correct (and, with the
        default budget, bit-identical in makespan to what the fleet
        would have served); what is lost is cross-process coalescing.
        The report carries ``degraded=True`` so records and telemetry
        can tell these plans apart.
        """
        searcher = self.planner.searcher
        saved_budget = searcher.budget_evaluations
        if self.degraded_budget is not None:
            searcher.budget_evaluations = self.degraded_budget
        try:
            result = self.planner.plan_prepared(prepared)
        finally:
            searcher.budget_evaluations = saved_budget
        self.degraded_plans += 1
        self._m_degraded.inc()
        self.routes.append((digest, "local"))
        self._audit_event("degraded", signature=digest, reason=reason)
        report = {
            "outcome": "degraded",
            "degraded": True,
            "queue_wait_s": 0.0,
            "cache_hit": result.cache_hit,
            "cache_tier": result.cache_tier,
        }
        return result, report

    def run(self) -> List[ReplicaRecord]:
        for i, batch in enumerate(self.batches):
            t0 = time.monotonic()
            try:
                result, report = self.plan_batch(batch)
            except SignatureMismatchError as exc:
                # Deterministic for every batch of this stream (the two
                # processes disagree about the planning context), and
                # each attempt costs the shard a full discarded search
                # — abort the replica instead of failing N more times.
                self.errors.append((self.job, self.replica, i, str(exc)))
                break
            except Exception as exc:  # noqa: BLE001 — recorded, not fatal
                self.errors.append((self.job, self.replica, i, str(exc)))
                continue
            self.records.append(ReplicaRecord(
                job=self.job,
                replica=self.replica,
                iteration=i,
                outcome=report.get("outcome") or "",
                predicted_ms=result.total_ms,
                latency_s=time.monotonic() - t0,
                queue_wait_s=report.get("queue_wait_s") or 0.0,
                signature=result.signature,
            ))
        return self.records

    def observe(self, trace: Trace) -> List[Dict]:
        """Feed an executed trace to *every* shard's recalibration loop.

        Unlike submits, observations are not routed: each shard refits
        its own cost model from what it observes, and they must all
        converge on the same planning context or routing would turn
        context skew into per-signature mismatch errors.  Broadcasting
        keeps every shard's window identical.  The local mirror swaps
        onto the first applied refit's model.
        """
        events: List[Dict] = []
        from repro.service.rpc import cost_model_from_dict
        swapped = False
        for address in self.ring.nodes:
            event = self.connection(address).client().observe_raw(
                self.job, trace)
            if event:
                events.append(event)
                if (not swapped and event.get("applied")
                        and event.get("cost_model")):
                    self.planner.set_cost_model(
                        cost_model_from_dict(event["cost_model"]))
                    swapped = True
        return events

    # -- chaos hooks ---------------------------------------------------------

    def trip_breakers(self) -> None:
        """Force every shard's breaker open — chaos drives use this to
        prove the degraded-mode path deterministically instead of
        waiting for organic failures."""
        for breaker in self.breakers.values():
            breaker.trip()

    def reset_breakers(self) -> None:
        for breaker in self.breakers.values():
            breaker.reset()

    # -- telemetry -----------------------------------------------------------

    def breaker_states(self) -> Dict[str, str]:
        return {address: breaker.state
                for address, breaker in self.breakers.items()}

    def metrics_snapshot(self) -> Dict:
        """Client-side metrics snapshot with breaker state gauges
        bridged in at snapshot time (transition counters accumulate
        live; the state gauge is a read of *now*)."""
        for address, breaker in self.breakers.items():
            self._m_breaker_state.set(breaker.state_code, address=address)
        return self.metrics.snapshot()

    def stats(self) -> Dict:
        """Fleet-wide stats (see :func:`fleet_stats`) plus this client's
        resilience counters."""
        view = fleet_stats(self.ring.nodes, timeout_s=self.attempt_timeout_s)
        view.update(
            failovers=self.failovers,
            retries=self.retries,
            degraded_plans=self.degraded_plans,
            deadline_failures=self.deadline_failures,
            breakers=self.breaker_states(),
        )
        return view

    def ping_all(self) -> Dict[str, Dict]:
        """Reachability sweep; unreachable shards map to ``None``."""
        out: Dict[str, Optional[Dict]] = {}
        for address in self.ring.nodes:
            try:
                out[address] = self.connection(address).client().ping()
            except TRANSPORT_ERRORS:
                out[address] = None
        return out

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


def fleet_stats(addresses: Sequence[str],
                timeout_s: float = 30.0) -> Dict:
    """Poll every shard's stats RPC and merge into one fleet view.

    Shards are polled with ``samples=True`` so the merged latency
    percentiles are recomputed from the union of per-shard sample
    windows (see :meth:`ServiceStats.merge`), not averaged from
    per-shard percentiles.  An unreachable shard contributes an
    ``error`` entry instead of sinking the whole view.  Each poll opens
    a fresh connection, so the view needs no live :class:`FleetClient`
    (the CLI and the benchmark poll after their drive processes have
    exited).
    """
    shards: Dict[str, Dict] = {}
    parts: List[ServiceStats] = []
    cache_totals: Dict[str, float] = {}
    for address in addresses:
        try:
            with PlanServiceClient(address, timeout_s=timeout_s) as client:
                snap = client.call("stats", {"samples": True})
        except TRANSPORT_ERRORS as exc:
            shards[address] = {"error": str(exc)}
            continue
        shards[address] = snap
        parts.append(ServiceStats.from_snapshot(snap.get("service") or {}))
        for key, value in (snap.get("cache") or {}).items():
            if isinstance(value, (int, float)):
                cache_totals[key] = cache_totals.get(key, 0) + value
    return {
        "service": ServiceStats.merge(parts).snapshot(),
        "cache": cache_totals,
        "shards": shards,
        "reachable": len(parts),
    }


def drive_fleet(
    addresses: Sequence[str],
    streams: Dict[str, Sequence[GlobalBatch]],
    replicas: int,
    planner_factory,
    timeout_s: float = 300.0,
    failover: bool = True,
    tracer=None,
    **client_kwargs,
):
    """Hammer one server or a fleet with ``replicas`` routed clients
    per job — the wire twin of :func:`~repro.service.replica.
    drive_replicas`.  Every client opens its own connections, so
    identical batches submitted concurrently coalesce *on the server*,
    across connections and hence across processes.  Returns
    ``(DriveReport, clients)``; the clients are already closed but
    keep their routing/stats state for inspection.  A shared
    ``tracer`` stamps every submit with a distributed trace id.  Extra
    keyword arguments (retry policy, deadline, degraded mode, breaker
    tuning) pass straight through to every :class:`FleetClient`."""
    from repro.service.replica import run_clients

    clients = [
        FleetClient(addresses, job, replica, batches,
                    planner=planner_factory(job), timeout_s=timeout_s,
                    failover=failover, tracer=tracer, **client_kwargs)
        for job, batches in streams.items()
        for replica in range(replicas)
    ]
    try:
        report = run_clients(clients, timeout_s=timeout_s)
    finally:
        for client in clients:
            client.close()
    return report, clients
