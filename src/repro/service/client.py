"""Remote planning: the raw RPC connection and the plan round trip.

A training process that does not host the :class:`PlanService` connects
to one over a TCP or Unix socket.  :class:`PlanServiceClient` is the raw
RPC connection; :class:`ServiceConnection` owns one connection's
lifecycle (lazy connect, handshake, reconnect, exactly-once close); and
:func:`submit_and_replay` is the per-batch round trip.  The replica-level
client on top of them is :class:`~repro.fleet.client.FleetClient`, which
drives one server or a sharded fleet through the same API as the
in-process :class:`~repro.service.replica.ReplicaClient`.

The client process owns a *local* :class:`~repro.core.planner.
OnlinePlanner` mirror (same model, cluster, layout, cost model and
searcher configuration as the server's registered job — the planning
*context*).  Per iteration it builds + fingerprints its own graph
(``planner.prepare``), ships only the batch *metadata*, and
re-materializes the server's canonical plan by replaying it onto the
local graph — one pipeline simulation, no search, makespans identical
to in-process serving.  A digest mismatch between the local signature
and the server's means the two processes disagree about the planning
context and raises :class:`~repro.service.requests.
SignatureMismatchError` rather than silently replaying a wrong plan.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional

from repro.core.plancache import plan_from_dict, signature_from_dict
from repro.core.planner import OnlinePlanner
from repro.core.signature import SIGNATURE_VERSION
from repro.data.batching import GlobalBatch
from repro.service.requests import (
    DeadlineExceededError,
    ProtocolError,
    RemotePlanError,
    ServiceClosedError,
    ServiceOverloadError,
    SignatureMismatchError,
)
from repro.service.rpc import (
    DEFAULT_MAX_FRAME_BYTES,
    ERROR_CLOSED,
    ERROR_DEADLINE,
    ERROR_OVERLOAD,
    ERROR_PROTOCOL,
    batch_to_dict,
    check_envelope,
    parse_address,
    recv_frame,
    request_envelope,
    send_frame,
)
from repro.trace.events import Trace


def connect(address, timeout_s: float = 30.0) -> socket.socket:
    """Open a socket to ``address`` (``host:port``, ``tcp://``,
    ``uds://`` or a bare Unix-socket path).

    The timeout stays armed on the returned socket: every read is
    bounded, so a server that silently stops responding (blackholed
    network, stopped process) surfaces as ``socket.timeout`` instead of
    hanging the caller forever.
    """
    kind, target = parse_address(address)
    if kind == "uds":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(target)
    return sock


def _raise_wire_error(error: Dict) -> None:
    kind = error.get("kind")
    message = error.get("message", "remote error")
    if kind == ERROR_OVERLOAD:
        raise ServiceOverloadError(message)
    if kind == ERROR_CLOSED:
        raise ServiceClosedError(message)
    if kind == ERROR_PROTOCOL:
        raise ProtocolError(message)
    if kind == ERROR_DEADLINE:
        # Checked before the RemotePlanError fallthrough on purpose:
        # the server shed the work because the budget is spent, and the
        # caller must see the typed (non-retryable) outcome.
        raise DeadlineExceededError(message)
    raise RemotePlanError(message)


class PlanServiceClient:
    """One RPC connection to a :class:`~repro.service.rpc.
    PlanServiceServer` (thread-safe; one request in flight at a time
    per connection — open one client per concurrent replica)."""

    def __init__(self, address, timeout_s: float = 30.0,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.max_frame_bytes = max_frame_bytes
        self._sock = connect(address, timeout_s)
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False

    def __enter__(self) -> "PlanServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        # Deliberately lock-free: a reader blocked in call() holds the
        # lock, and closing the socket out from under it is exactly how
        # that reader gets unblocked (its recv raises).  Idempotent:
        # the error paths inside call() close the connection and the
        # owner (ServiceConnection, a with-block) closes it again on
        # teardown — the raw socket must only be released once, or the
        # fd could already belong to someone else.
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def call(self, method: str, params: Optional[Dict] = None,
             trace: Optional[Dict] = None,
             deadline_s: Optional[float] = None) -> Dict:
        """One request/response round trip; raises the mapped error.

        ``trace`` (``{"id", "span"}``) rides the envelope as transport
        metadata so the server can tag its spans with the request's
        distributed trace id (see :mod:`repro.obs.tracing`).

        ``deadline_s`` is an *absolute local monotonic* deadline.  The
        remaining budget at send time rides the envelope (the server
        re-anchors it on its own clock and sheds expired work), bounds
        the socket read, and — when it runs out before a response lands
        — raises :class:`DeadlineExceededError` instead of a retryable
        :class:`TimeoutError`.

        Reads are bounded by the connection's ``timeout_s``; a server
        that goes silent raises :class:`TimeoutError` and the
        connection is closed (the stream position is unknowable).
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("client connection is closed")
            budget = None
            if deadline_s is not None:
                budget = deadline_s - time.monotonic()
                if budget <= 0:
                    raise DeadlineExceededError(
                        f"deadline passed before {method!r} could be sent"
                    )
            request_id = self._next_id
            self._next_id += 1
            try:
                if budget is not None:
                    self._sock.settimeout(min(self.timeout_s, budget))
                try:
                    send_frame(self._sock,
                               request_envelope(request_id, method, params,
                                                trace=trace,
                                                deadline_s=budget))
                    response = recv_frame(self._sock, self.max_frame_bytes)
                finally:
                    if budget is not None and not self._closed:
                        try:
                            self._sock.settimeout(self.timeout_s)
                        except OSError:
                            pass
            except socket.timeout as exc:
                self.close()
                if (deadline_s is not None
                        and time.monotonic() >= deadline_s):
                    raise DeadlineExceededError(
                        f"deadline passed waiting for {method!r} from "
                        f"{self.address}"
                    ) from exc
                raise TimeoutError(
                    f"no response to {method!r} from {self.address} "
                    f"within the connection timeout"
                ) from exc
            except ProtocolError:
                # A framing violation leaves the stream position
                # unknowable — the connection cannot be reused.
                self.close()
                raise
        try:
            if response is None:
                raise ProtocolError(
                    f"server closed the connection during {method!r}"
                )
            check_envelope(response)
            response_id = response.get("id")
            if response.get("ok"):
                # An ok-response MUST name this request: a stale frame
                # from an earlier (timed-out, abandoned) request on a
                # reused connection must never be mis-delivered as this
                # request's plan.
                if response_id != request_id:
                    raise ProtocolError(
                        f"stale response id {response_id!r} on reused "
                        f"connection (expected {request_id})"
                    )
            elif response_id not in (request_id, None):
                # Error responses may carry id=None (the server could
                # not parse the request far enough to learn the id).
                raise ProtocolError(
                    f"response id {response_id!r} does not match "
                    f"request id {request_id}"
                )
        except ProtocolError:
            self.close()
            raise
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        error = response.get("error") or {}
        if error.get("kind") == ERROR_PROTOCOL:
            self.close()  # the server closes its side after reporting
        _raise_wire_error(error)

    # -- convenience methods -------------------------------------------------

    def ping(self) -> Dict:
        return self.call("ping")

    def jobs(self) -> List[str]:
        return list(self.ping().get("jobs", []))

    def stats(self) -> Dict:
        return self.call("stats")

    def save_cache(self, path: Optional[str] = None) -> Dict:
        params = {"path": path} if path else {}
        return self.call("save-cache", params)

    def shutdown(self) -> Dict:
        return self.call("shutdown")

    def submit_raw(
        self,
        job: str,
        batch: GlobalBatch,
        priority: Optional[int] = None,
        replica: int = 0,
        block: bool = True,
        timeout_s: Optional[float] = None,
        trace: Optional[Dict] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict:
        """Submit a batch; returns the raw wire result (signature
        payload + canonical plan + report).  ``deadline_s`` is an
        absolute local monotonic deadline (see :meth:`call`)."""
        params = {
            "job": job,
            "signature_version": SIGNATURE_VERSION,
            "replica": replica,
            "block": block,
        }
        params.update(batch_to_dict(batch))
        if priority is not None:
            params["priority"] = priority
        if timeout_s is not None:
            params["timeout_s"] = timeout_s
            params["result_timeout_s"] = timeout_s
        return self.call("submit", params, trace=trace,
                         deadline_s=deadline_s)

    def prewarm_raw(self, job: str, batch: GlobalBatch) -> bool:
        params = {"job": job}
        params.update(batch_to_dict(batch))
        return bool(self.call("prewarm", params).get("accepted"))

    def observe_raw(self, job: str, trace: Trace) -> Optional[Dict]:
        return self.call("observe",
                         {"job": job, "trace": trace.to_dict()}).get("event")


class ServiceConnection:
    """Owns one logical connection's whole lifecycle: lazy connect,
    optional handshake, transparent reconnect, exactly-once close.

    :class:`~repro.fleet.client.FleetClient` holds one such connection
    per shard and reuses it across a whole batch stream, so it must
    survive a request that kills the socket (timeout, protocol
    violation): ``client()`` dials again on demand.  ``close()`` retires
    the handle permanently, works from any state, and never touches a
    socket twice.

    Args:
        address: Server address (see :func:`connect`).
        timeout_s: Per-request bound on every connection built here.
        expect_job: When set, each fresh connection is handshaken with a
            ``ping`` and must serve this job under the local signature
            version — turning a mis-wired address into an immediate,
            legible error instead of a failed submit later.
    """

    def __init__(
        self,
        address,
        timeout_s: float = 30.0,
        expect_job: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.expect_job = expect_job
        self.max_frame_bytes = max_frame_bytes
        self._client: Optional[PlanServiceClient] = None
        self._lock = threading.Lock()
        self._retired = False

    def __enter__(self) -> "ServiceConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        with self._lock:
            return self._client is not None and not self._client.closed

    def client(self) -> PlanServiceClient:
        """The live connection, (re-)established on demand.

        A request that killed the previous socket (timeout, framing
        violation) must not strand the owner's remaining work behind a
        dead fd — the next ``client()`` dials again.  After ``close()``
        the handle is retired for good and raises
        :class:`ServiceClosedError` instead of resurrecting itself.
        """
        with self._lock:
            if self._retired:
                raise ServiceClosedError(
                    f"connection to {self.address} has been closed"
                )
            if self._client is None or self._client.closed:
                client = PlanServiceClient(
                    self.address, timeout_s=self.timeout_s,
                    max_frame_bytes=self.max_frame_bytes,
                )
                try:
                    self._handshake(client)
                except BaseException:
                    client.close()
                    raise
                self._client = client
            return self._client

    def _handshake(self, client: PlanServiceClient) -> None:
        if self.expect_job is None:
            return
        hello = client.ping()
        version = hello.get("signature_version")
        if version != SIGNATURE_VERSION:
            raise ProtocolError(
                f"{self.address} speaks signature v{version!r}, this "
                f"process v{SIGNATURE_VERSION} — canonical plans would "
                f"not replay"
            )
        jobs = hello.get("jobs") or []
        if self.expect_job not in jobs:
            raise RemotePlanError(
                f"{self.address} does not serve job "
                f"{self.expect_job!r} (registered: {jobs})"
            )

    def call(self, method: str, params: Optional[Dict] = None) -> Dict:
        return self.client().call(method, params)

    def close(self) -> None:
        """Retire the handle; the underlying socket is closed exactly
        once, and later ``client()`` calls refuse to reconnect."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            client, self._client = self._client, None
        if client is not None:
            client.close()


def submit_and_replay(client: PlanServiceClient, job: str,
                      planner: OnlinePlanner, prepared, batch: GlobalBatch,
                      replica: int = 0,
                      timeout_s: Optional[float] = None,
                      tracer=None, trace_id: Optional[str] = None,
                      deadline_s: Optional[float] = None) -> tuple:
    """Ship one prepared batch to a server and re-materialize its plan.

    The round-trip core of :class:`~repro.fleet.client.FleetClient`:
    submit the batch metadata, verify the server's signature digest
    matches the locally computed one (a mismatch means the processes
    plan under different contexts — replaying would be silently wrong),
    then replay the canonical plan onto the locally built graph.
    Returns ``(SearchResult, report)``.

    With a :class:`~repro.obs.tracing.RequestTracer`, the request gets
    a distributed trace id (minted here unless ``trace_id`` pins one):
    the envelope carries it to the server, and the client records its
    own ``submit`` (wire round trip) and ``client-replay`` (local plan
    re-materialization) spans so the merged timeline shows both sides
    of the process boundary.
    """
    trace_ctx = None
    span_id = ""
    if tracer is not None:
        from repro.obs.tracing import new_span_id, new_trace_id
        if trace_id is None:
            trace_id = new_trace_id()
        span_id = new_span_id()
        trace_ctx = {"id": trace_id, "span": span_id}
    t0 = time.monotonic()
    response = client.submit_raw(job, batch, replica=replica, block=True,
                                 timeout_s=timeout_s, trace=trace_ctx,
                                 deadline_s=deadline_s)
    t1 = time.monotonic()
    remote_sig = signature_from_dict(response["signature"])
    if remote_sig.digest != prepared.signature.digest:
        raise SignatureMismatchError(
            f"server signature {remote_sig.digest[:12]} != local "
            f"{prepared.signature.digest[:12]} — the two processes "
            f"plan under different contexts (check model, cluster, "
            f"parallel layout, cost model and searcher flags)"
        )
    plan = plan_from_dict(response["plan"])
    result = planner.searcher.replay(prepared.graph, plan,
                                     prepared.signature)
    t2 = time.monotonic()
    result.signature = prepared.signature.digest
    report = response.get("report") or {}
    result.cache_tier = report.get("cache_tier")
    if tracer is not None:
        tracer.record(
            "submit", t0, t1, trace_id, span_id=span_id,
            job=job, replica=replica,
            signature=prepared.signature.digest[:12],
            outcome=report.get("outcome") or "",
            tier=report.get("cache_tier") or "",
            address=str(getattr(client, "address", "")),
        )
        tracer.record(
            "client-replay", t1, t2, trace_id, parent=span_id,
            job=job, replica=replica,
        )
    return result, report
