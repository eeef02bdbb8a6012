"""``repro chaos drive`` — run a client workload against a live fleet
under a named fault scenario and assert the resilience invariants.

The driver is deliberately *sequential*: one batch at a time, one
client at a time, so "fleet-wide progress" (the trigger for
progress-based shard kills) and the per-shard fault schedules are
reproducible run to run.  Chaos lives in the injected faults, not in
racy driver scheduling.

Invariants checked, per planned batch:

1. **Termination** — every ``plan_batch`` call returns (plan or typed
   error) within the scenario deadline plus a scheduling slack.  A
   hang is the one failure mode retries cannot paper over.
2. **Canonical plans** — every successful plan's makespan is
   *bit-identical* to the fault-free local baseline for the same
   signature.  Near-miss warm starts are disabled everywhere, so a
   plan is a pure function of (signature, context, seed): a corrupted
   frame or a half-written disk entry that slipped through would show
   up here as a makespan mismatch.
3. **Typed errors only** — the only exceptions allowed out of the
   client are :class:`~repro.service.requests.RemotePlanError` and its
   subclasses (deadline exhaustion included).  Raw transport errors
   escaping the retry/breaker/degraded stack are violations.

After the drive, two more checks run:

4. **Degraded-mode identity** — with every breaker forced open, the
   client must serve a local plan flagged ``degraded=True`` whose
   makespan equals the baseline exactly.
5. **Fault-log replay** — each shard's dumped fault log is verified
   against that shard's deterministic :class:`FaultPlan` schedule
   (both directions: nothing logged that was not scheduled, nothing
   scheduled below the observed horizon that was not logged).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.faults import FaultPlan, Scenario
from repro.fleet.client import FleetClient
from repro.fleet.launcher import FleetConfig, PlanFleet
from repro.service.requests import DeadlineExceededError, RemotePlanError
from repro.service.retry import RetryPolicy


@dataclass
class ChaosReport:
    """Everything one scenario run learned, JSON-serialisable."""

    scenario: str
    model: str
    shards: int
    replicas: int
    fault_seed: int
    deadline_s: float
    planned: int = 0
    degraded_plans: int = 0
    typed_errors: int = 0
    makespan_matches: int = 0
    retries: int = 0
    failovers: int = 0
    shard_restarts: int = 0
    shed_total: int = 0
    injected_faults: int = 0
    elapsed_s: float = 0.0
    violations: List[str] = field(default_factory=list)
    fault_log_problems: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations and not self.fault_log_problems

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "model": self.model,
            "shards": self.shards,
            "replicas": self.replicas,
            "fault_seed": self.fault_seed,
            "deadline_s": self.deadline_s,
            "planned": self.planned,
            "degraded_plans": self.degraded_plans,
            "typed_errors": self.typed_errors,
            "makespan_matches": self.makespan_matches,
            "retries": self.retries,
            "failovers": self.failovers,
            "shard_restarts": self.shard_restarts,
            "shed_total": self.shed_total,
            "injected_faults": self.injected_faults,
            "elapsed_s": round(self.elapsed_s, 3),
            "violations": list(self.violations),
            "fault_log_problems": list(self.fault_log_problems),
            "ok": self.ok(),
        }


def _baseline_planner(model: str, budget: int, seed: int,
                      cache_size: int):
    """A fault-free local planner with near-miss warm starts disabled
    — the oracle every fleet-served and degraded plan is compared to."""
    from repro.cli import _setup

    _arch, _cluster, _parallel, planner = _setup(
        model, budget, seed, plan_cache=True, cache_size=cache_size,
    )
    if planner.cache is not None:
        planner.cache.near_miss = False
    return planner


def run_scenario(
    model: str,
    scenario: Scenario,
    *,
    shards: int = 2,
    replicas: int = 2,
    iterations: int = 4,
    microbatches: int = 3,
    budget: int = 8,
    seed: int = 0,
    fault_seed: int = 1,
    runtime_dir: str = "/tmp/repro-chaos",
    deadline_s: Optional[float] = None,
    cache_size: int = 64,
    slack_s: float = 30.0,
    max_restarts: int = 4,
    log=print,
) -> ChaosReport:
    """Run one scenario end to end; returns the :class:`ChaosReport`.

    ``deadline_s`` overrides the scenario's default deadline.  The
    termination invariant allows ``slack_s`` on top of the deadline
    for local degraded searches and scheduler noise — real hangs are
    unbounded, so any finite slack separates them cleanly.
    """
    from repro.cli import _workload
    from repro.fleet import fleet_stats
    from repro.models.lmm import build_combination
    from repro.models.zoo import combination_by_name

    deadline = (scenario.deadline_s if deadline_s is None
                else float(deadline_s))
    report = ChaosReport(scenario=scenario.name, model=model,
                         shards=shards, replicas=replicas,
                         fault_seed=fault_seed, deadline_s=deadline)
    os.makedirs(runtime_dir, exist_ok=True)
    fault_log = os.path.join(runtime_dir, "faults")

    # Workload + fault-free baseline makespans, keyed by signature.
    arch = build_combination(combination_by_name(model))
    batches = list(_workload(arch, microbatches, seed)
                   .batches(iterations))
    baseline = _baseline_planner(model, budget, seed, cache_size)
    baseline_ms: Dict[str, float] = {}
    for batch in batches:
        prepared = baseline.prepare(batch)
        result = baseline.plan_prepared(prepared)
        baseline_ms[prepared.signature.digest] = result.total_ms
    log(f"baseline: {len(batches)} batch(es), "
        f"{len(baseline_ms)} signature(s)")

    config = FleetConfig(
        models=[model],
        shards=shards,
        cache_dir=os.path.join(runtime_dir, "cache"),
        runtime_dir=runtime_dir,
        budget=budget,
        seed=seed,
        cache_size=cache_size,
        near_miss=False,
        restart_crashed=True,
        max_restarts=max_restarts,
        fault_specs=scenario.specs,
        fault_seed=fault_seed,
        fault_log=fault_log,
    )
    fleet = PlanFleet(config).start()
    log(f"started {fleet.describe()}")
    started = time.monotonic()
    clients: List[FleetClient] = []
    try:
        clients = [
            FleetClient(
                fleet.addresses, model, replica, batches,
                planner=_baseline_planner(model, budget, seed,
                                          cache_size),
                timeout_s=deadline,
                retry_policy=RetryPolicy(max_attempts=4, base_s=0.05,
                                         cap_s=0.5, seed=fault_seed),
                deadline_s=deadline,
                attempt_timeout_s=min(10.0, deadline),
                degraded=True,
                breaker_threshold=3,
                breaker_recovery_s=2.0,
            )
            for replica in range(replicas)
        ]
        pending_crashes = sorted(scenario.crash_points)
        for batch in batches:
            for client in clients:
                while (pending_crashes
                       and report.planned >= pending_crashes[0][0]):
                    _progress, shard = pending_crashes.pop(0)
                    log(f"chaos: SIGKILL shard {shard} after "
                        f"{report.planned} planned batch(es)")
                    fleet.kill_shard(shard)
                _drive_one(client, batch, deadline, slack_s,
                           baseline_ms, report)
        if scenario.crash_points:
            # The drive often outruns the monitor poll; wait for the
            # respawn so the scenario proves crash *recovery*, not just
            # failover, then sweep once more through the restarted
            # fleet (cold memory tier, warm disk tier).
            recover_by = time.monotonic() + 90.0
            while (fleet.alive_count() < shards
                   and time.monotonic() < recover_by):
                time.sleep(0.2)
            if fleet.alive_count() < shards:
                report.violations.append(
                    f"only {fleet.alive_count()}/{shards} shard(s) "
                    f"alive 90s after the injected crash — the "
                    f"launcher never respawned the victim")
            else:
                log("chaos: fleet recovered; post-restart sweep")
                for batch in batches:
                    _drive_one(clients[0], batch, deadline, slack_s,
                               baseline_ms, report)
        report.elapsed_s = time.monotonic() - started

        # Invariant 4: force every breaker open; the client must fall
        # back to a local plan flagged degraded, makespan-identical.
        probe = clients[0]
        probe.trip_breakers()
        try:
            result, plan_report = probe.plan_batch(batches[0])
        except Exception as exc:  # noqa: BLE001 — any raise is a finding
            report.violations.append(
                f"degraded probe raised {type(exc).__name__}: {exc}")
        else:
            if not plan_report.get("degraded"):
                report.violations.append(
                    "degraded probe was served without the degraded "
                    "flag while every breaker was open")
            else:
                report.degraded_plans += 1
            digest = probe.routes[-1][0]
            want = baseline_ms.get(digest)
            if want is not None and result.total_ms != want:
                report.violations.append(
                    f"degraded probe makespan {result.total_ms!r} != "
                    f"baseline {want!r} for signature {digest[:12]}")
        finally:
            probe.reset_breakers()

        for client in clients:
            report.retries += client.retries
            report.failovers += client.failovers
            report.degraded_plans += client.degraded_plans
        try:
            stats = fleet_stats(fleet.addresses, timeout_s=10.0)
            report.shed_total = int(stats["service"].get("shed", 0))
        except Exception:  # noqa: BLE001 — shards may be dark (blackout)
            pass
    finally:
        for client in clients:
            client.close()
        fleet.stop()
        report.shard_restarts = sum(s.restarts for s in fleet.shards)

    # Invariant 5: every dumped fault log must replay exactly from the
    # shard's deterministic schedule.  Shards that died hard (SIGKILL)
    # never dump — an absent/partial log is vacuously consistent; a
    # *wrong* entry never is.
    for index in range(shards):
        path = f"{fault_log}.shard{index}.jsonl"
        if not os.path.exists(path):
            continue
        entries = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
        report.injected_faults += len(entries)
        plan = FaultPlan(seed=fault_seed + index, specs=scenario.specs,
                         shard_index=index)
        for problem in plan.verify_log(entries):
            report.fault_log_problems.append(f"shard {index}: {problem}")
    return report


def _drive_one(client: FleetClient, batch, deadline: float,
               slack_s: float, baseline_ms: Dict[str, float],
               report: ChaosReport) -> None:
    """Plan one batch on one client and charge the invariants."""
    t0 = time.monotonic()
    try:
        result, _plan_report = client.plan_batch(batch)
    except DeadlineExceededError:
        report.typed_errors += 1
    except RemotePlanError:
        report.typed_errors += 1
    except Exception as exc:  # noqa: BLE001 — untyped escape is the finding
        report.violations.append(
            f"untyped error escaped the client: "
            f"{type(exc).__name__}: {exc}")
    else:
        report.planned += 1
        digest = client.routes[-1][0]
        want = baseline_ms.get(digest)
        if want is None:
            report.violations.append(
                f"plan for unknown signature {str(digest)[:12]}")
        elif result.total_ms != want:
            report.violations.append(
                f"makespan {result.total_ms!r} != baseline {want!r} "
                f"for signature {digest[:12]}")
        else:
            report.makespan_matches += 1
    elapsed = time.monotonic() - t0
    if elapsed > deadline + slack_s:
        report.violations.append(
            f"plan_batch took {elapsed:.1f}s — past the {deadline:.0f}s "
            f"deadline plus {slack_s:.0f}s slack (hang)")


def render_report(report: ChaosReport) -> str:
    lines = [
        f"chaos scenario {report.scenario!r} on {report.model}: "
        f"{report.shards} shard(s) x {report.replicas} replica(s), "
        f"fault seed {report.fault_seed}",
        f"  planned {report.planned} batch(es) in "
        f"{report.elapsed_s:.1f}s; {report.makespan_matches} "
        f"makespan-identical, {report.degraded_plans} degraded, "
        f"{report.typed_errors} typed error(s)",
        f"  resilience: {report.retries} retried attempt(s), "
        f"{report.failovers} failover(s), {report.shard_restarts} "
        f"shard restart(s), {report.shed_total} shed, "
        f"{report.injected_faults} injected fault(s) logged",
    ]
    if report.fault_log_problems:
        lines.append(f"  fault-log replay problems "
                     f"({len(report.fault_log_problems)}):")
        lines += [f"    {p}" for p in report.fault_log_problems]
    if report.violations:
        lines.append(f"  INVARIANT VIOLATIONS ({len(report.violations)}):")
        lines += [f"    {v}" for v in report.violations]
    else:
        lines.append("  invariants: all held")
    return "\n".join(lines)
