"""The asynchronous online planner (section 3.2 of the paper).

Per training iteration the planner:

1. prefetches the *metadata* of the next batch (token/image counts),
2. splits microbatches into modality-specific sub-microbatches,
3. searches a pipeline schedule on CPU, concurrently with the current
   iteration's (simulated) GPU execution,
4. deploys the compiled execution plan to the runtime.

Schedule search for batch ``k+1`` overlaps the training of batch ``k``;
the planner reports any *stall* — search time exceeding the iteration it
hides behind — which the paper's design keeps at zero.

Planning is *incremental*: every built iteration graph is fingerprinted
(:mod:`repro.core.signature`) and looked up in an LRU plan cache
(:mod:`repro.core.plancache`) before searching.  Repeated batch shapes —
common in real dynamic workloads — replay their cached schedule in one
simulation; similar shapes warm-start the search from the closest cached
ordering.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.graphbuilder import build_iteration_graph
from repro.core.partitioner import ModalityPartitioner, PartitionPlan
from repro.core.plancache import (
    DEFAULT_CACHE_SIZE,
    CacheStats,
    PlanCache,
    decode_ordering,
    encode_plan,
)
from repro.core.searcher import ScheduleSearcher, SearchResult
from repro.core.signature import (
    GraphSignature,
    compute_signature,
    context_fingerprint,
)
from repro.core.stages import IterationGraph
from repro.data import constants
from repro.data.batching import GlobalBatch, Microbatch
from repro.data.packing import controlled_vlm_microbatch
from repro.models.lmm import LMMArchitecture
from repro.runtime.compiler import compile_schedule
from repro.runtime.deployment import DeploymentController
from repro.runtime.engine import EngineResult
from repro.sim.costmodel import CostModel


def reference_microbatch(kind: str) -> Microbatch:
    """A near-capacity microbatch used for offline profiling."""
    if kind == "vlm":
        return controlled_vlm_microbatch(
            index=0, num_images=constants.MAX_IMAGES_PER_MICROBATCH
        )
    if kind == "t2v":
        return Microbatch(
            index=0,
            kind="t2v",
            num_clips=constants.MAX_CLIPS_PER_MICROBATCH,
            video_seconds=constants.MAX_VIDEO_SECONDS,
            caption_tokens=int(constants.MAX_VIDEO_SECONDS * 25),
        )
    return Microbatch(index=0, kind="lm", text_tokens=constants.CONTEXT_LENGTH)


@dataclass
class PreparedIteration:
    """Stages 1-2 of planning one batch, split out for the service layer.

    Building the iteration graph and fingerprinting it are cheap relative
    to the schedule search, and the signature is what the planning
    service's request coalescing keys on — so
    :meth:`OnlinePlanner.prepare` runs in the *submitting* thread
    (mirroring each DP replica prefetching its own batch metadata) while
    the search itself queues behind the service's worker pool.

    Attributes:
        graph: The batch's freshly built iteration graph.
        signature: Canonical graph signature; ``None`` when the plan
            cache is disabled.
        allow_near: Whether a near-miss lookup could warm this search
            (the searcher consumes seeds and the graph has >1 group).
    """

    graph: IterationGraph
    signature: Optional[GraphSignature] = None
    allow_near: bool = False


@dataclass
class PlannerReport:
    """Per-iteration planner telemetry.

    Attributes:
        cache_hit: This iteration's plan was replayed from the plan
            cache (no search ran).
        warm_start: The search was seeded with a near-miss cached
            ordering.
        signature: Canonical graph-signature digest of the batch (None
            when the plan cache is disabled).
        memo_hits: Rollout evaluations this iteration's search answered
            from the kernel's ordering memo (0 with ``use_kernel=False``
            and on cache replays).
        cache_tier: Tier that served a cache hit ("memory" / "disk");
            ``None`` unless ``cache_hit``.  The tier-parity invariant:
            the label is the *only* thing allowed to differ between a
            memory- and a disk-served hit.
        degraded: The plan was produced by *local* fallback search
            because every fleet shard in the signature's preference
            list was unreachable (circuit breakers open).  The plan is
            still correct — same search, same context — just not
            fleet-coalesced.
    """

    iteration: int
    train_ms: float
    search_seconds: float
    stall_seconds: float
    search: SearchResult
    engine: Optional[EngineResult] = None
    average_images: float = 0.0
    cache_hit: bool = False
    warm_start: bool = False
    signature: Optional[str] = None
    memo_hits: int = 0
    cache_tier: Optional[str] = None
    degraded: bool = False


class OnlinePlanner:
    """Drives DIP's per-iteration planning loop.

    Args:
        arch: The LMM being trained.
        cluster / parallel: Hardware and layout.
        cost_model: Shared latency model.
        searcher: Schedule searcher (a default MCTS searcher is built
            when omitted).
        plan: Offline partition plan; derived from a reference microbatch
            when omitted.
        deploy: Compile and execute plans on the runtime engine,
            verifying timeline agreement.
        plan_cache: Shared :class:`PlanCache` instance; built internally
            (capacity ``cache_size``) when omitted and ``enable_plan_cache``
            is true.
        enable_plan_cache: Consult the incremental plan cache before
            searching (exact hits replay, near misses warm-start).
            ``False`` disables caching even when ``plan_cache`` is given.
        cache_size: Capacity of the internally built cache.
        warm_budget_fraction: Cache-aware budget control — when a near
            miss closer than ``warm_budget_distance`` seeds the search,
            the evaluation budget shrinks to this fraction of the
            searcher's (the plan-cache benchmark shows half the budget
            matches cold-search quality at distance ~0.03).  ``1.0``
            disables the shrink.
        warm_budget_distance: Feature-distance ceiling below which the
            shrunken budget applies.
    """

    def __init__(
        self,
        arch: LMMArchitecture,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: Optional[CostModel] = None,
        searcher: Optional[ScheduleSearcher] = None,
        plan: Optional[PartitionPlan] = None,
        deploy: bool = False,
        plan_cache: Optional[PlanCache] = None,
        enable_plan_cache: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        warm_budget_fraction: float = 0.5,
        warm_budget_distance: float = 0.05,
    ) -> None:
        if not (0.0 < warm_budget_fraction <= 1.0):
            raise ValueError("warm_budget_fraction must be in (0, 1]")
        self.arch = arch
        self.cluster = cluster
        self.parallel = parallel
        self.cost_model = cost_model or CostModel()
        self.partitioner = ModalityPartitioner(
            arch, cluster, parallel, self.cost_model
        )
        if plan is None:
            plan = self.partitioner.plan(reference_microbatch(arch.kind))
        self.plan = plan
        self.searcher = searcher or ScheduleSearcher(
            cluster, parallel, self.cost_model
        )
        self.deploy = deploy
        self._controller = (
            DeploymentController(parallel.pp) if deploy else None
        )
        # enable_plan_cache=False always wins, even over an explicit
        # shared cache — a disabled planner must never serve cached plans.
        if not enable_plan_cache:
            self.cache: Optional[PlanCache] = None
        elif plan_cache is not None:
            self.cache = plan_cache
        else:
            self.cache = PlanCache(capacity=cache_size)
        self.warm_budget_fraction = warm_budget_fraction
        self.warm_budget_distance = warm_budget_distance

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Aggregate plan-cache telemetry (None when caching is off)."""
        return self.cache.stats if self.cache is not None else None

    def context_digest(self) -> str:
        """Digest of the current planning context (cluster / parallel /
        cost model / searcher semantics) — the key under which this
        planner's cache entries are stored, and what recalibration
        invalidates when the cost model changes."""
        return context_fingerprint(
            self.cluster, self.parallel, self.cost_model,
            extra=self.searcher.fingerprint(),
        )

    def module_specs(self):
        """Modality module specs by name, as trace recalibration wants."""
        return {b.name: b.spec for b in self.arch.bindings}

    def set_cost_model(self, cost_model: CostModel) -> None:
        """Swap in a recalibrated cost model.

        Subsequent iteration graphs are built (and searches scored) under
        the new model; the offline partition plan is kept — re-splitting
        the layout mid-run would invalidate the deployed parameter
        placement.  Cache entries stored under the old context digest
        become unreachable; callers owning a shared cache should
        invalidate them explicitly
        (:meth:`repro.core.plancache.PlanCache.invalidate_context`).
        """
        self.cost_model = cost_model
        self.partitioner = ModalityPartitioner(
            self.arch, self.cluster, self.parallel, cost_model
        )
        self.searcher.cost_model = cost_model

    def prepare(self, batch: GlobalBatch) -> PreparedIteration:
        """Stages 1-2: prefetch metadata, partition, fingerprint.

        Cheap relative to the search; safe to run in the submitting
        thread.  The result feeds :meth:`plan_prepared` (directly, or
        through a :class:`~repro.service.PlanService` queue).
        """
        graph = build_iteration_graph(
            self.arch,
            self.plan,
            batch,
            self.cluster,
            self.parallel,
            self.cost_model,
            partitioner=self.partitioner,
        )
        if self.cache is None:
            return PreparedIteration(graph=graph)
        signature = compute_signature(
            graph,
            self.cluster,
            self.parallel,
            self.cost_model,
            extra=self.searcher.fingerprint(),
        )
        # Near misses only help when the search can consume a seed; keep
        # the warm-rate telemetry honest for natural / single-group runs.
        allow_near = (
            self.searcher.supports_warm_start and len(graph.groups()) > 1
        )
        return PreparedIteration(graph=graph, signature=signature,
                                 allow_near=allow_near)

    def plan_iteration(self, batch: GlobalBatch) -> SearchResult:
        """Stages 1-3: prefetch metadata, partition, search.

        With the plan cache enabled, the batch's canonical signature is
        consulted first: an exact hit replays the cached schedule (one
        simulation, no search), a near miss warm-starts the search from
        the closest cached ordering, and a miss falls back to the cold
        search — whose result is cached for future iterations.
        """
        return self.plan_prepared(self.prepare(batch))

    def replay_prepared(
        self, prepared: PreparedIteration
    ) -> Optional[SearchResult]:
        """Replay a prepared batch from an exact cache hit, or ``None``.

        The planning service's fan-out path: after a coalesced leader
        search stores its plan, every waiter replays it onto its own
        (signature-identical) graph in one simulation.  Returns ``None``
        when no exact entry exists (caching disabled, or the entry was
        evicted/invalidated between fan-out and replay) — callers fall
        back to :meth:`plan_prepared`.
        """
        if self.cache is None or prepared.signature is None:
            return None
        lookup = self.cache.lookup(prepared.signature, allow_near=False)
        if lookup.kind != "hit":
            return None
        result = self.searcher.replay(prepared.graph, lookup.entry,
                                      prepared.signature)
        result.cache_tier = lookup.tier
        result.lookup_s = lookup.elapsed_s
        return result

    def plan_prepared(self, prepared: PreparedIteration) -> SearchResult:
        """Stage 3: cache-assisted schedule search on a prepared batch."""
        graph = prepared.graph
        if self.cache is None or prepared.signature is None:
            return self.searcher.search(graph)

        signature = prepared.signature
        lookup = self.cache.lookup(signature,
                                   allow_near=prepared.allow_near)
        if lookup.kind == "hit":
            result = self.searcher.replay(graph, lookup.entry, signature)
            result.cache_tier = lookup.tier
            result.lookup_s = lookup.elapsed_s
            return result
        seed = (
            decode_ordering(lookup.entry, signature)
            if lookup.kind == "near"
            else None
        )
        # Cache-aware budget control: a close near miss starts the search
        # at the prior best, so far fewer evaluations reach cold quality.
        budget = None
        if (seed and self.warm_budget_fraction < 1.0
                and lookup.distance <= self.warm_budget_distance):
            budget = max(1, int(round(self.searcher.budget_evaluations
                                      * self.warm_budget_fraction)))
        result = self.searcher.search(graph, seed_ordering=seed or None,
                                      budget_evaluations=budget)
        result.signature = signature.digest
        result.lookup_s = lookup.elapsed_s
        self.cache.store(encode_plan(result, signature, graph))
        return result

    def run(
        self,
        batches: Sequence[GlobalBatch],
        asynchronous: bool = True,
    ) -> List[PlannerReport]:
        """Train over ``batches``, planning each one ahead of time.

        With ``asynchronous=True`` the next batch's search overlaps the
        current batch's execution (one planning thread, mirroring the
        idle-CPU design); otherwise planning happens inline.
        """
        reports: List[PlannerReport] = []
        batches = list(batches)
        if not batches:
            return reports

        if not asynchronous:
            for i, batch in enumerate(batches):
                t0 = time.monotonic()
                result = self.plan_iteration(batch)
                elapsed = time.monotonic() - t0
                reports.append(self._report(i, batch, result, elapsed, elapsed))
            return reports

        with ThreadPoolExecutor(max_workers=1) as pool:
            future: Future = pool.submit(self._timed_plan, batches[0])
            for i, batch in enumerate(batches):
                result, search_seconds = future.result()
                if i + 1 < len(batches):
                    future = pool.submit(self._timed_plan, batches[i + 1])
                # The search for batch i overlapped iteration i-1; stall is
                # any overrun beyond that iteration's duration.
                prev_train_s = reports[-1].train_ms / 1e3 if reports else 0.0
                stall = max(0.0, search_seconds - prev_train_s) if i > 0 else 0.0
                reports.append(
                    self._report(i, batch, result, search_seconds, stall)
                )
        return reports

    def _timed_plan(self, batch: GlobalBatch):
        t0 = time.monotonic()
        result = self.plan_iteration(batch)
        return result, time.monotonic() - t0

    def _report(
        self,
        iteration: int,
        batch: GlobalBatch,
        result: SearchResult,
        search_seconds: float,
        stall_seconds: float,
    ) -> PlannerReport:
        engine = None
        if self.deploy:
            plan = compile_schedule(
                result.schedule.graph,
                result.schedule.order,
                self.cluster,
                self.parallel,
                self.cost_model,
            )
            engine = self._controller.dispatch(plan).engine
        return PlannerReport(
            iteration=iteration,
            train_ms=result.total_ms,
            search_seconds=search_seconds,
            stall_seconds=stall_seconds,
            search=result,
            engine=engine,
            average_images=batch.average_images,
            cache_hit=result.cache_hit,
            warm_start=result.warm_started,
            signature=result.signature,
            memo_hits=result.memo_hits,
            cache_tier=result.cache_tier,
        )
