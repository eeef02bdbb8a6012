"""Service telemetry: queue pressure, coalescing, latency percentiles.

All counters are updated under one lock by the service; ``snapshot()``
returns a JSON-serialisable dict for benchmarks and the CLI.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, Optional, Sequence

#: Trailing completed requests the latency percentiles are computed
#: over — a long-lived service must not accumulate one float per
#: request forever.
LATENCY_WINDOW = 4096


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class ServiceStats:
    """Aggregate planning-service telemetry.

    Counters:
        submitted / rejected / completed / failed: request lifecycle.
        shed: requests failed because their propagated deadline passed
            before a worker could (or finished) serving them — counted
            *in addition to* ``failed`` (shed work is a failure mode,
            not a parallel lifecycle).
        coalesced: requests served by fan-out from a concurrent
            identical request (no queue slot, no search of their own).
        searches: schedule searches actually run (cold or warm).
        replays: plans served by cache replay (exact hits + fan-outs).
        memory_hits / disk_hits: exact cache hits broken down by the
            tier that served them (fan-out replays to coalesced waiters
            count under neither — they are accounted as ``coalesced``).
        memo_hits: rollout evaluations answered by the kernel's
            per-search ordering memo, summed over every search the
            service ran (0 with ``use_kernel=False``).
        prewarms: background warm-search requests accepted.
        recalibrations: cost-model refits applied.
        recal_rollbacks: refits that cleared the fit-window improvement
            bar but worsened held-out error and were rolled back.
        invalidated: cache entries dropped by recalibration.

    Gauges:
        queue_depth / max_queue_depth: current and high-water pending
            leaders (coalesced waiters never occupy a slot).

    Latency percentiles cover the trailing ``LATENCY_WINDOW`` completed
    requests (bounded memory for long-lived services).
    """

    #: Additive counters, in snapshot order.  ``queue_depth`` /
    #: ``max_queue_depth`` are gauges and handled separately by
    #: :meth:`merge`.
    COUNTERS = (
        "submitted", "rejected", "completed", "failed", "shed",
        "coalesced", "searches", "replays", "memory_hits", "disk_hits",
        "memo_hits", "prewarms", "recalibrations", "recal_rollbacks",
        "invalidated",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.queue_depth = 0
        self.max_queue_depth = 0
        self._latencies_s: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._waits_s: "deque[float]" = deque(maxlen=LATENCY_WINDOW)

    # -- updates (service side) ----------------------------------------------

    def count(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def queue_changed(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def record_latency(self, latency_s: Optional[float],
                       wait_s: Optional[float]) -> None:
        with self._lock:
            if latency_s is not None:
                self._latencies_s.append(latency_s)
            if wait_s is not None:
                self._waits_s.append(wait_s)

    # -- reads ---------------------------------------------------------------

    @property
    def coalesce_rate(self) -> float:
        """Fraction of completed requests served by coalescing."""
        if self.completed == 0:
            return 0.0
        return self.coalesced / self.completed

    @property
    def search_rate(self) -> float:
        """Fraction of completed requests that needed their own search."""
        if self.completed == 0:
            return 0.0
        return self.searches / self.completed

    def latency_percentile_s(self, q: float) -> float:
        with self._lock:
            return percentile(self._latencies_s, q)

    def wait_percentile_s(self, q: float) -> float:
        with self._lock:
            return percentile(self._waits_s, q)

    def snapshot(self, include_samples: bool = False) -> Dict:
        """JSON-serialisable counters + derived rates.

        ``include_samples=True`` additionally exports the retained
        latency/wait samples (``latency_samples_s`` / ``wait_samples_s``)
        so a fleet aggregator can merge percentiles across shards
        instead of averaging pre-computed ones (see :meth:`merge`).
        """
        with self._lock:
            latencies = list(self._latencies_s)
            waits = list(self._waits_s)
            counters = {
                name: getattr(self, name)
                for name in self.COUNTERS + ("queue_depth",
                                             "max_queue_depth")
            }
        counters["coalesce_rate"] = (
            counters["coalesced"] / counters["completed"]
            if counters["completed"] else 0.0
        )
        counters["plan_latency_p50_s"] = percentile(latencies, 50)
        counters["plan_latency_p99_s"] = percentile(latencies, 99)
        counters["queue_wait_p50_s"] = percentile(waits, 50)
        counters["queue_wait_p99_s"] = percentile(waits, 99)
        if include_samples:
            counters["latency_samples_s"] = latencies
            counters["wait_samples_s"] = waits
        return counters

    # -- fleet aggregation ---------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: Dict) -> "ServiceStats":
        """Rebuild stats from a :meth:`snapshot` dict (e.g. one received
        over the stats RPC).  Derived rates are ignored — they are
        recomputed; samples are restored when the snapshot carried them."""
        stats = cls()
        for name in cls.COUNTERS + ("queue_depth", "max_queue_depth"):
            value = snapshot.get(name, 0)
            if isinstance(value, (int, float)):
                setattr(stats, name, int(value))
        for sample in snapshot.get("latency_samples_s", ()) or ():
            stats._latencies_s.append(float(sample))
        for sample in snapshot.get("wait_samples_s", ()) or ():
            stats._waits_s.append(float(sample))
        return stats

    @classmethod
    def merge(cls, parts: Iterable["ServiceStats"]) -> "ServiceStats":
        """Combine per-shard stats into one fleet-wide view.

        Counters sum; queue gauges combine as current-sum / peak-max
        (shard queues are independent, so the fleet's high-water mark is
        conservatively the worst single shard's).  Latency percentiles
        are recomputed from the union of the shards' retained sample
        windows — merging samples, not percentiles, because the p99 of
        per-shard p99s is not the fleet p99.  The merged window is still
        bounded (``LATENCY_WINDOW``): with many shards the newest
        samples win, mirroring each shard's own trailing window.
        """
        merged = cls()
        for part in parts:
            with part._lock:
                counters = {name: getattr(part, name)
                            for name in cls.COUNTERS}
                queue_depth = part.queue_depth
                max_queue_depth = part.max_queue_depth
                latencies = list(part._latencies_s)
                waits = list(part._waits_s)
            for name, value in counters.items():
                setattr(merged, name, getattr(merged, name) + value)
            merged.queue_depth += queue_depth
            merged.max_queue_depth = max(merged.max_queue_depth,
                                         max_queue_depth)
            merged._latencies_s.extend(latencies)
            merged._waits_s.extend(waits)
        return merged

    def export_metrics(self, registry) -> None:
        """Bridge the service counters into a metrics registry.

        Absolute values via ``set_value`` (idempotent across repeated
        ``metrics`` RPCs).  The tier-labelled
        ``repro_service_cache_hits_total`` series mirror
        ``memory_hits``/``disk_hits`` exactly — the scrape checker
        asserts their sum equals what the ``stats`` RPC reports.
        Latency histograms are rebuilt from the retained sample windows
        so fleet merges aggregate distributions, not percentiles.
        """
        with self._lock:
            counters = {name: getattr(self, name) for name in self.COUNTERS}
            queue_depth = self.queue_depth
            max_queue_depth = self.max_queue_depth
            latencies = list(self._latencies_s)
            waits = list(self._waits_s)
        hits = registry.counter(
            "repro_service_cache_hits_total",
            "Requests served by an exact cache hit, by serving tier",
            labels=("tier",))
        hits.set_value(counters["memory_hits"], tier="memory")
        hits.set_value(counters["disk_hits"], tier="disk")
        for name, value in counters.items():
            registry.counter(
                f"repro_service_{name}_total",
                f"ServiceStats counter {name!r}",
            ).set_value(value)
        registry.gauge(
            "repro_service_queue_depth",
            "Pending leaders currently queued",
        ).set(queue_depth)
        registry.gauge(
            "repro_service_max_queue_depth",
            "High-water queued leaders", agg="max",
        ).set(max_queue_depth)
        latency = registry.histogram(
            "repro_service_latency_seconds",
            "Submit-to-completion latency over the retained window",
            labels=("stage",))
        latency.set_from_values(latencies, stage="total")
        latency.set_from_values(waits, stage="queue")

    def describe(self) -> str:
        snap = self.snapshot()
        return (
            f"{snap['completed']} plans "
            f"({snap['searches']} searches, {snap['replays']} replays, "
            f"{snap['coalesced']} coalesced = "
            f"{snap['coalesce_rate'] * 100:.0f}%), "
            f"{snap['rejected']} rejected, "
            f"queue peak {snap['max_queue_depth']}, "
            f"latency p50 {snap['plan_latency_p50_s'] * 1e3:.0f}ms "
            f"p99 {snap['plan_latency_p99_s'] * 1e3:.0f}ms"
        )


class ConnectionStats:
    """Per-connection wire-protocol counters (one socket client)."""

    def __init__(self, conn_id: int, peer: str = "") -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.protocol_errors = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def snapshot(self) -> Dict:
        return {
            "conn_id": self.conn_id,
            "peer": self.peer,
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }


class RemoteStats:
    """Aggregate + per-connection telemetry of the socket server.

    Separate from :class:`ServiceStats` on purpose: the planning
    counters describe *requests* regardless of transport, these describe
    the *wire* — connections opened and reaped, frames that failed to
    parse, clients that vanished mid-request.  Per-connection counters
    live here until the connection is reaped, then fold into the
    aggregate totals (a long-lived server must not retain one record per
    dead client forever).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections_opened = 0
        self.connections_closed = 0
        self.disconnects_mid_request = 0
        self.requests = 0
        self.errors = 0
        self.protocol_errors = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._live: Dict[int, ConnectionStats] = {}
        self._next_conn_id = 0

    def open_connection(self, peer: str = "") -> ConnectionStats:
        with self._lock:
            conn = ConnectionStats(self._next_conn_id, peer)
            self._next_conn_id += 1
            self._live[conn.conn_id] = conn
            self.connections_opened += 1
            return conn

    def close_connection(self, conn: "ConnectionStats",
                         mid_request: bool = False) -> None:
        """Reap one connection, folding its counters into the totals."""
        with self._lock:
            self._live.pop(conn.conn_id, None)
            self.connections_closed += 1
            if mid_request:
                self.disconnects_mid_request += 1
            self.requests += conn.requests
            self.errors += conn.errors
            self.protocol_errors += conn.protocol_errors
            self.bytes_in += conn.bytes_in
            self.bytes_out += conn.bytes_out

    @property
    def connections_active(self) -> int:
        with self._lock:
            return len(self._live)

    def snapshot(self) -> Dict:
        with self._lock:
            live = [conn.snapshot() for conn in self._live.values()]
            totals = {
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "connections_active": len(self._live),
                "disconnects_mid_request": self.disconnects_mid_request,
                "requests": self.requests + sum(c["requests"] for c in live),
                "errors": self.errors + sum(c["errors"] for c in live),
                "protocol_errors": self.protocol_errors
                + sum(c["protocol_errors"] for c in live),
                "bytes_in": self.bytes_in + sum(c["bytes_in"] for c in live),
                "bytes_out": self.bytes_out
                + sum(c["bytes_out"] for c in live),
            }
        totals["connections"] = live
        return totals

    def export_metrics(self, registry) -> None:
        """Bridge wire totals (live connections folded in) into a
        metrics registry."""
        snap = self.snapshot()
        for name in ("connections_opened", "connections_closed",
                     "disconnects_mid_request", "requests", "errors",
                     "protocol_errors"):
            registry.counter(
                f"repro_rpc_{name}_total",
                f"RemoteStats counter {name!r}",
            ).set_value(snap[name])
        rpc_bytes = registry.counter(
            "repro_rpc_bytes_total",
            "Wire bytes by direction", labels=("direction",))
        rpc_bytes.set_value(snap["bytes_in"], direction="in")
        rpc_bytes.set_value(snap["bytes_out"], direction="out")
        registry.gauge(
            "repro_rpc_connections_active",
            "Currently connected socket clients",
        ).set(snap["connections_active"])
