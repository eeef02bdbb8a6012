"""Fleet lifecycle: spawn, monitor, restart, drain N shard processes.

Each shard is one ``python -m repro serve --uds/--listen`` subprocess —
a full :class:`~repro.service.rpc.PlanServiceServer` with its own GIL,
worker pool and in-memory cache — and every shard shares one on-disk
cache tier (``--cache-dir``), so a plan searched anywhere is replayable
everywhere, including across shard restarts.

The monitor distinguishes two kinds of exit:

* **graceful** (exit code 0 — a ``shutdown`` RPC or ``--serve-seconds``)
  is final;
* **crash** (non-zero / signal) triggers a respawn on the same address,
  up to ``max_restarts`` per shard.  The restarted shard comes back with
  a cold memory tier but a warm disk tier: its first request per known
  signature is a disk hit, not a re-search.

``stop()`` drains politely — a ``shutdown`` RPC per shard lets in-flight
searches finish and remote waiters be reaped deterministically — before
escalating to terminate/kill on stragglers.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.service.client import PlanServiceClient


def _free_tcp_ports(host: str, count: int) -> List[int]:
    """Reserve ``count`` distinct free TCP ports by binding and
    releasing them.  Racy by nature (another process can grab a port
    between release and the shard's bind), but the bind failure then
    surfaces as a shard that never becomes ready — loud, not silent."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class FleetConfig:
    """Everything a shard subprocess needs to be spawned.

    The planning-context knobs (models, budget, seed, cache size) must
    match what the *clients* build their local
    mirrors with — they are baked into the shard command lines so one
    config object describes the whole fleet contract.
    """

    models: Sequence[str]
    shards: int = 2
    cache_dir: Optional[str] = None
    runtime_dir: str = "/tmp/repro-fleet"
    transport: str = "uds"  # "uds" | "tcp"
    host: str = "127.0.0.1"
    budget: int = 16
    seed: int = 0
    workers: int = 2
    queue: int = 32
    cache_size: int = 64
    #: ``False`` disables near-miss warm starts on every shard, making
    #: each searched plan a pure function of (signature, context, seed)
    #: — required when plans must be identical across fleet sizes (the
    #: benchmark's makespan-identity invariant).
    near_miss: bool = True
    serve_seconds: Optional[float] = None
    restart_crashed: bool = True
    max_restarts: int = 3
    #: Directory every shard writes its request-trace span file into
    #: (``--trace-dir``); ``None`` disables server-side span emission.
    trace_dir: Optional[str] = None
    #: Chaos: fault specs every shard is armed with (scoped per shard
    #: via ``FaultSpec.shards``).  Each shard gets its own
    #: :class:`~repro.chaos.faults.FaultPlan` seeded ``fault_seed +
    #: shard index`` — decorrelated across shards, reproducible from
    #: the one base seed.
    fault_specs: Optional[Sequence] = None
    fault_seed: int = 0
    #: Base path for the JSONL files shards append their fired-fault
    #: decisions to on close; shard ``i`` writes
    #: ``{fault_log}.shard{i}.jsonl`` so each log can be replayed
    #: against that shard's own deterministic schedule.
    fault_log: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if self.transport not in ("uds", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")


@dataclass
class ShardHandle:
    """One shard slot: a stable address plus whatever process currently
    serves it (restarts swap the process, never the address — client
    rings are built from addresses)."""

    index: int
    address: str
    process: Optional[subprocess.Popen] = None
    log_path: str = ""
    restarts: int = 0
    gone: bool = False  # exhausted restarts, or exited gracefully
    #: The dead process object whose crash was last charged to the
    #: restart budget — identity-tracked so one crash is counted once
    #: even when the monitor re-observes it (a failed respawn, a kill
    #: landing mid-poll).
    last_crash: Optional[subprocess.Popen] = field(default=None,
                                                   repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class PlanFleet:
    """Spawn and supervise ``config.shards`` planning servers.

    Context manager: ``with PlanFleet(config) as fleet:`` starts the
    shards and guarantees they are stopped (drained, then killed if
    need be) on the way out.
    """

    #: Monitor poll interval; also bounds how stale a crash can go
    #: unnoticed.
    POLL_S = 0.25

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        os.makedirs(config.runtime_dir, exist_ok=True)
        if config.cache_dir:
            os.makedirs(config.cache_dir, exist_ok=True)
        if config.transport == "tcp":
            ports = _free_tcp_ports(config.host, config.shards)
            addresses = [f"{config.host}:{port}" for port in ports]
        else:
            addresses = [
                os.path.join(config.runtime_dir, f"shard-{i}.sock")
                for i in range(config.shards)
            ]
        self.shards = [
            ShardHandle(
                index=i, address=addresses[i],
                log_path=os.path.join(config.runtime_dir,
                                      f"shard-{i}.log"),
            )
            for i in range(config.shards)
        ]
        self._stopping = False
        self._stop_lock = threading.Lock()
        self._stop_codes: Optional[List[Optional[int]]] = None
        self._monitor: Optional[threading.Thread] = None
        #: Launcher-side observability: restart counts and up/down
        #: state per shard slot, scrapeable alongside the shards' own
        #: ``metrics`` RPCs.
        self.metrics = MetricsRegistry()
        self._m_restarts = self.metrics.counter(
            "repro_fleet_shard_restarts_total",
            "Crash respawns per shard slot", labels=("shard",))
        self._m_up = self.metrics.gauge(
            "repro_fleet_shard_up",
            "1 when the shard process is alive, else 0",
            labels=("shard",))
        for shard in self.shards:
            self._m_restarts.set_value(0, shard=str(shard.index))
            self._m_up.set(0, shard=str(shard.index))

    def _observe_shards(self) -> None:
        for shard in self.shards:
            self._m_up.set(1 if shard.alive else 0,
                           shard=str(shard.index))

    # -- spawning ------------------------------------------------------------

    def _command(self, shard: ShardHandle) -> List[str]:
        config = self.config
        command = [sys.executable, "-m", "repro", "serve",
                   *config.models,
                   "--workers", str(config.workers),
                   "--queue", str(config.queue),
                   "--budget", str(config.budget),
                   "--seed", str(config.seed),
                   "--cache-size", str(config.cache_size)]
        if config.transport == "uds":
            command += ["--uds", shard.address]
        else:
            command += ["--listen", shard.address]
        if config.cache_dir:
            command += ["--cache-dir", config.cache_dir]
        if not config.near_miss:
            command += ["--no-near-miss"]
        if config.serve_seconds is not None:
            command += ["--serve-seconds", str(config.serve_seconds)]
        if config.trace_dir:
            command += ["--trace-dir", config.trace_dir]
        # Identity for the obs plane: the shard reports these over its
        # ping/metrics RPCs.  restarts is read at spawn time, so a
        # respawned process carries its incremented restart count.
        command += ["--shard-index", str(shard.index),
                    "--shard-restarts", str(shard.restarts)]
        if config.fault_specs:
            from repro.chaos.faults import FaultPlan
            plan = FaultPlan(seed=config.fault_seed + shard.index,
                             specs=list(config.fault_specs),
                             shard_index=shard.index)
            command += ["--fault-plan", plan.to_json()]
        if config.fault_log:
            # Per-shard files: log entries carry no shard id, and the
            # replay verifier must check each shard's log against that
            # shard's own (seed, specs, shard_index) schedule.
            command += ["--fault-log",
                        f"{config.fault_log}.shard{shard.index}.jsonl"]
        return command

    def _environment(self) -> Dict[str, str]:
        # The shard must import the same repro package as the launcher,
        # regardless of how the launcher itself was put on sys.path.
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        current = env.get("PYTHONPATH", "")
        if package_root not in current.split(os.pathsep):
            env["PYTHONPATH"] = (package_root + os.pathsep + current
                                 if current else package_root)
        return env

    def _spawn(self, shard: ShardHandle) -> None:
        if self.config.transport == "uds":
            try:
                os.unlink(shard.address)  # stale socket from a crash
            except OSError:
                pass
        log = open(shard.log_path, "a")
        try:
            shard.process = subprocess.Popen(
                self._command(shard), stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, env=self._environment(),
            )
        finally:
            log.close()  # the child holds its own descriptor now

    def _wait_ready(self, shard: ShardHandle, timeout_s: float) -> bool:
        """Poll the shard with pings until it answers (or dies)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not shard.alive:
                return False
            try:
                client = PlanServiceClient(shard.address, timeout_s=2.0)
            except OSError:
                time.sleep(0.1)
                continue
            try:
                client.ping()
                return True
            except Exception:  # noqa: BLE001 — not up yet
                time.sleep(0.1)
            finally:
                client.close()
        return False

    def start(self, timeout_s: float = 120.0) -> "PlanFleet":
        """Spawn every shard and block until all answer pings."""
        for shard in self.shards:
            self._spawn(shard)
        for shard in self.shards:
            if not self._wait_ready(shard, timeout_s):
                tail = self._log_tail(shard)
                self.stop(timeout_s=10.0)
                raise RuntimeError(
                    f"shard {shard.index} ({shard.address}) did not "
                    f"become ready within {timeout_s}s; log tail:\n{tail}"
                )
        self._observe_shards()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="fleet-monitor", daemon=True)
        self._monitor.start()
        return self

    def _log_tail(self, shard: ShardHandle, lines: int = 20) -> str:
        try:
            with open(shard.log_path) as f:
                return "".join(f.readlines()[-lines:])
        except OSError:
            return "<no log>"

    # -- supervision ---------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping:
            for shard in self.shards:
                with shard.lock:
                    if self._stopping or shard.gone or shard.alive:
                        continue
                    code = shard.process.returncode if shard.process else None
                    if code == 0:
                        # Graceful exit (shutdown RPC / --serve-seconds):
                        # respect it, do not resurrect.
                        shard.gone = True
                        continue
                    if (not self.config.restart_crashed
                            or shard.restarts >= self.config.max_restarts):
                        shard.gone = True
                        continue
                    # Charge the crash to the budget exactly once per
                    # dead process object: a kill landing mid-poll or a
                    # respawn that itself fails must not be re-counted
                    # when the monitor sees the same corpse again.
                    if shard.process is not shard.last_crash:
                        shard.last_crash = shard.process
                        shard.restarts += 1
                        self._m_restarts.inc(shard=str(shard.index))
                    try:
                        self._spawn(shard)
                    except OSError:
                        continue  # retry next poll, crash already counted
                if shard.process is not None:
                    self._wait_ready(shard, timeout_s=60.0)
            self._observe_shards()
            time.sleep(self.POLL_S)

    def restart(self, index: int) -> None:
        """Kill and respawn one shard (does not count against the crash
        restart budget — this is an operator action)."""
        shard = self.shards[index]
        with shard.lock:
            if shard.process is not None and shard.alive:
                shard.process.kill()
                shard.process.wait()
            # The corpse is accounted for: the monitor must not charge
            # this operator action to the crash budget.
            shard.last_crash = shard.process
            shard.gone = False
            self._spawn(shard)
        if not self._wait_ready(shard, timeout_s=60.0):
            raise RuntimeError(
                f"shard {index} did not come back after restart; log "
                f"tail:\n{self._log_tail(shard)}"
            )

    # -- access --------------------------------------------------------------

    def kill_shard(self, index: int) -> None:
        """SIGKILL one shard's process — the chaos driver's crash
        injection.  The shard is *not* marked gone: the monitor sees a
        non-zero exit and (policy permitting) respawns it, exercising
        the real crash-restart path."""
        shard = self.shards[index]
        with shard.lock:
            if shard.process is not None and shard.alive:
                shard.process.kill()
                shard.process.wait()

    @property
    def addresses(self) -> List[str]:
        return [shard.address for shard in self.shards]

    def alive_count(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    def describe(self) -> str:
        states = ", ".join(
            f"{s.index}:{'up' if s.alive else 'down'}"
            f"{'+' + str(s.restarts) if s.restarts else ''}"
            for s in self.shards
        )
        return (f"fleet of {len(self.shards)} shard(s) "
                f"[{states}] over {self.config.transport}, "
                f"cache dir {self.config.cache_dir or '<none>'}")

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until every shard is permanently gone (or timeout);
        returns True when the fleet fully wound down."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        while any(not s.gone or s.alive for s in self.shards):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self.POLL_S)
        return True

    # -- teardown ------------------------------------------------------------

    def stop(self, timeout_s: float = 30.0) -> List[Optional[int]]:
        """Drain and stop every shard; returns their exit codes.

        Three escalation steps per shard: ``shutdown`` RPC (the server
        drains in-flight remote requests deterministically), then
        ``terminate()``, then ``kill()``.

        Idempotent, and safe against a concurrent crash-restart: the
        whole teardown runs under one lock (a second caller blocks and
        then gets the cached exit codes), ``_stopping`` is raised
        *before* any shard is touched, and each shard is finalised
        under its own lock — so a monitor thread mid-respawn finishes
        first and the teardown kills the *newest* process, never a
        corpse while a fresh one slips through.
        """
        with self._stop_lock:
            if self._stop_codes is not None:
                return list(self._stop_codes)
            self._stopping = True
            for shard in self.shards:
                if not shard.alive:
                    continue
                try:
                    client = PlanServiceClient(shard.address,
                                               timeout_s=5.0)
                    try:
                        client.shutdown()
                    finally:
                        client.close()
                except Exception:  # noqa: BLE001 — escalate below
                    pass
            deadline = time.monotonic() + timeout_s
            for shard in self.shards:
                with shard.lock:
                    process = shard.process
                    shard.gone = True
                if process is None:
                    continue
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
            if self._monitor is not None:
                self._monitor.join(timeout=5.0)
                self._monitor = None
            if self.config.transport == "uds":
                for shard in self.shards:
                    try:
                        os.unlink(shard.address)
                    except OSError:
                        pass
            self._observe_shards()
            self._stop_codes = [
                s.process.returncode if s.process else None
                for s in self.shards
            ]
            return list(self._stop_codes)

    def __enter__(self) -> "PlanFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
