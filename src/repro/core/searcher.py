"""Pipeline schedule searcher: the three-phase decomposed loop (section 5).

For each iteration graph the searcher:

1. explores segment-group orderings (MCTS by default; DFS / random / the
   natural no-search order are available as ablations),
2. interleaves stages greedily under each candidate ordering
   (section 5.2), using the interleaved makespan as the rollout score,
3. applies per-layer memory optimization to the winning schedule
   (section 5.3) and re-simulates for the final timeline.

All randomness is seeded; budgets can be expressed in evaluations (fully
deterministic, used by tests) and/or wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.topology import ClusterSpec, ParallelConfig
from repro.core.evalcore import EvalCore
from repro.core.interleaver import InterleaveResult, interleave_stages
from repro.core.mcts import (
    ReorderResult,
    align_seed_ordering,
    dfs_reorder,
    mcts_reorder,
    natural_ordering,
    random_reorder,
)
from repro.core.plancache import CachedPlan, decode_order, decode_ordering, decode_selection
from repro.core.signature import GraphSignature
from repro.core.memopt import (
    MemoptReport,
    apply_uniform_memory_policy,
    generate_candidates,
    optimize_memory,
)
from repro.core.schedule import PipelineSchedule
from repro.core.stages import GroupKey, IterationGraph
from repro.sim.costmodel import CostModel
from repro.sim.pipeline import simulate_pipeline


@dataclass
class SearchResult:
    """Everything the searcher learned about one iteration.

    Attributes:
        ordering: The winning segment-group ordering (the natural order
            when no reordering search ran) — what the plan cache stores
            and warm starts are seeded from.
        evaluations: Ordering evaluations actually performed; 0 on the
            natural / single-group path and on cache replays, where no
            ordering evaluation runs.
        cache_hit: The result was replayed from the plan cache.
        warm_started: The search was seeded with a cached near-miss
            ordering.
        signature: Canonical graph-signature digest, when the planner
            computed one.
        memo_hits: Rollout evaluations answered by the per-search
            ordering memo instead of re-running the interleaver (0 on
            the ``use_kernel=False`` path and on cache replays).
        cache_tier: Which cache tier served a hit ("memory" / "disk");
            ``None`` unless ``cache_hit`` — set by the planner, which is
            the layer that knows where the cached plan came from.
    """

    schedule: PipelineSchedule
    reorder: Optional[ReorderResult]
    memopt: Optional[MemoptReport]
    interleave_ms: float
    total_ms: float
    evaluations: int = 0
    ordering: List[GroupKey] = field(default_factory=list)
    cache_hit: bool = False
    warm_started: bool = False
    signature: Optional[str] = None
    memo_hits: int = 0
    cache_tier: Optional[str] = None
    #: Wall-clock seconds the planner spent in the cache lookup that
    #: preceded this result (0.0 when no cache was consulted) — feeds the
    #: request-tracing cache-lookup span.
    lookup_s: float = 0.0

    @property
    def trace(self) -> List:
        return self.reorder.trace if self.reorder is not None else []


class ScheduleSearcher:
    """Searches pipeline schedules for iteration graphs.

    Args:
        cluster / parallel: Hardware and layout.
        cost_model: Latency model shared with the graph builder.
        strategy: ``"mcts"`` (DIP), ``"dfs"``, ``"random"`` or
            ``"natural"`` (no reordering search — the "DIP (no-opt)"
            configuration keeps natural order *and* skips memopt).
        budget_evaluations: Ordering evaluations per search.
        time_budget_s: Optional wall-clock cap.
        num_workers: Parallel rollout threads (section 6.2).
        enable_memopt: Run the section 5.3 pass on the final schedule.
            When disabled, ``memopt_mode`` picks the fallback policy.
        memopt_mode: ``"full"`` (candidates + per-rank ILP), ``"uniform"``
            (Megatron's global keep-or-recompute policy; the default when
            ``enable_memopt=False``) or ``"lean"`` (stay at the most
            memory-efficient candidates — the paper's Fig. 10
            "DIP (non-adaptive)" configuration).
        memopt_exact: Exact branch-and-bound (else greedy warm start).
        rel_gap: Memopt optimality gap (paper: 5%).
        invert: Search for the *worst* schedule (Fig. 9's upper curves).
        seed: Seed for all stochastic components.
        use_kernel: Evaluate rollouts through the compiled kernel path
            (:mod:`repro.core.evalcore`): graph arrays built once per
            search, heap-based interleaving, one-pass simulation and a
            cross-worker rollout memo.  ``False`` keeps the original
            object-graph evaluators, which the differential tests use
            as the oracle.  Both paths produce identical schedules; the
            flag is therefore excluded from :meth:`fingerprint`.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        cost_model: Optional[CostModel] = None,
        strategy: str = "mcts",
        budget_evaluations: int = 120,
        time_budget_s: Optional[float] = None,
        num_workers: int = 1,
        enable_memopt: bool = True,
        memopt_mode: Optional[str] = None,
        memopt_exact: bool = True,
        rel_gap: float = 0.05,
        invert: bool = False,
        seed: int = 0,
        use_kernel: bool = True,
    ) -> None:
        if strategy not in ("mcts", "dfs", "random", "natural"):
            raise ValueError(f"unknown search strategy {strategy!r}")
        if memopt_mode is None:
            memopt_mode = "full" if enable_memopt else "uniform"
        if memopt_mode not in ("full", "uniform", "lean"):
            raise ValueError(f"unknown memopt_mode {memopt_mode!r}")
        self.cluster = cluster
        self.parallel = parallel
        self.cost_model = cost_model or CostModel()
        self.strategy = strategy
        self.budget_evaluations = budget_evaluations
        self.time_budget_s = time_budget_s
        self.num_workers = num_workers
        self.enable_memopt = enable_memopt and memopt_mode == "full"
        self.memopt_mode = memopt_mode
        self.memopt_exact = memopt_exact
        self.rel_gap = rel_gap
        self.invert = invert
        self.seed = seed
        self.use_kernel = use_kernel

    # -- evaluation ----------------------------------------------------------

    def _priorities_array(
        self, graph: IterationGraph, ordering: Sequence[GroupKey]
    ) -> List[int]:
        n = len(ordering)
        by_group: Dict[GroupKey, int] = {g: n - i for i, g in enumerate(ordering)}
        return [by_group.get(s.key.group, 0) for s in graph.stages]

    def _interleave(
        self, graph: IterationGraph, ordering: Sequence[GroupKey]
    ) -> InterleaveResult:
        return interleave_stages(
            graph,
            self.cluster,
            self.parallel,
            self.cost_model,
            priorities=self._priorities_array(graph, ordering),
        )

    def evaluate_ordering(
        self, graph: IterationGraph, ordering: Sequence[GroupKey]
    ) -> float:
        """Rollout score: interleaved makespan in milliseconds.

        This is the legacy (object-graph) evaluator — the differential
        oracle.  :meth:`search` compiles an :class:`EvalCore` once per
        search and scores rollouts through its kernel instead when
        ``use_kernel`` is set; both produce identical scores.
        """
        return self._interleave(graph, ordering).total_ms

    def _make_core(self, graph: IterationGraph) -> EvalCore:
        """Compile the kernel evaluator for one search over ``graph``.

        Must run *after* :meth:`_prepare_memory`: the arrays capture the
        current memory-strategy selections.
        """
        return EvalCore(graph, self.cluster, self.parallel, self.cost_model)

    # -- search --------------------------------------------------------------

    @property
    def supports_warm_start(self) -> bool:
        """Whether this searcher can consume a ``seed_ordering`` at all."""
        return self.strategy != "natural"

    def fingerprint(self) -> tuple:
        """Configuration tuple folded into graph signatures.

        Covers every setting that changes what a valid, comparable
        schedule *means* (strategy, objective direction, memory-policy
        semantics).  Effort knobs — evaluation/time budget, seed, worker
        count — are deliberately excluded: they tune how hard one search
        tries, and replaying a plan found with more effort is strictly
        better than re-searching with less.  Disable the plan cache when
        bitwise-identical cold-search runs are required.
        """
        return (
            "searcher",
            self.strategy,
            self.enable_memopt,
            self.memopt_mode,
            self.memopt_exact,
            self.rel_gap,
            self.invert,
        )

    def _prepare_memory(self, graph: IterationGraph) -> None:
        """Set up per-pair memory strategies ahead of interleaving."""
        if self.memopt_mode in ("full", "lean"):
            generate_candidates(graph)
            # Section 5.2: interleave with the most memory-efficient
            # scheme to leave headroom for the memory optimizer ("lean"
            # simply stops here — the Fig. 10 non-adaptive variant).
            graph.select_most_memory_efficient()
        else:
            # Without per-layer optimization, fall back to Megatron's
            # uniform keep-or-recompute policy so schedules stay
            # memory-feasible.
            apply_uniform_memory_policy(graph)

    def search(
        self,
        graph: IterationGraph,
        seed_ordering: Optional[Sequence[GroupKey]] = None,
        budget_evaluations: Optional[int] = None,
    ) -> SearchResult:
        """Run the full three-phase search on one iteration graph.

        Args:
            graph: The iteration graph to schedule.
            seed_ordering: Optional warm-start group ordering (typically a
                plan-cache near miss).  It is aligned onto this graph's
                groups — stale keys dropped, missing ones appended — and
                primes the reordering search so it starts from the prior
                best instead of uniform.
            budget_evaluations: Per-call override of the configured
                evaluation budget — the planner's cache-aware budget
                control passes a shrunken budget when a close near miss
                seeds the search.
        """
        budget = (self.budget_evaluations if budget_evaluations is None
                  else budget_evaluations)
        self._prepare_memory(graph)
        core = self._make_core(graph) if self.use_kernel else None

        groups = list(graph.groups().keys())
        seed_aligned = align_seed_ordering(seed_ordering, groups)
        reorder: Optional[ReorderResult] = None
        warm_started = False
        if self.strategy == "natural" or len(groups) <= 1:
            ordering = natural_ordering(groups)
        else:
            if core is not None:
                evaluator = core.evaluate
            else:
                evaluator = lambda seq: self.evaluate_ordering(graph, seq)  # noqa: E731
            if self.strategy == "mcts":
                reorder = mcts_reorder(
                    groups,
                    evaluator,
                    budget_evaluations=budget,
                    time_budget_s=self.time_budget_s,
                    seed=self.seed,
                    invert=self.invert,
                    num_workers=self.num_workers,
                    seed_ordering=seed_aligned,
                )
            elif self.strategy == "dfs":
                reorder = dfs_reorder(
                    groups,
                    evaluator,
                    budget_evaluations=budget,
                    time_budget_s=self.time_budget_s,
                    seed=self.seed,
                    invert=self.invert,
                    seed_ordering=seed_aligned,
                )
            else:
                reorder = random_reorder(
                    groups,
                    evaluator,
                    budget_evaluations=budget,
                    time_budget_s=self.time_budget_s,
                    seed=self.seed,
                    invert=self.invert,
                    seed_ordering=seed_aligned,
                )
            ordering = reorder.ordering
            warm_started = seed_aligned is not None

        if core is not None:
            interleaved = core.interleave(ordering)
        else:
            interleaved = self._interleave(graph, ordering)
        graph.apply_group_priorities(
            {g: len(ordering) - i for i, g in enumerate(ordering)}
        )

        memopt: Optional[MemoptReport] = None
        if self.enable_memopt:
            memopt = optimize_memory(
                graph,
                interleaved.start_ms,
                interleaved.end_ms,
                rel_gap=self.rel_gap,
                exact=self.memopt_exact,
            )

        predicted = simulate_pipeline(
            graph, interleaved.order, self.cluster, self.parallel,
            self.cost_model,
            p2p=core.p2p if core is not None else None,
            legacy=core is None,
        )
        schedule = PipelineSchedule(
            graph=graph,
            order=interleaved.order,
            predicted=predicted,
            label=f"dip-{self.strategy}",
        )
        return SearchResult(
            schedule=schedule,
            reorder=reorder,
            memopt=memopt,
            interleave_ms=interleaved.total_ms,
            total_ms=predicted.total_ms,
            # No ordering evaluation runs on the natural / single-group
            # path, so the count is honestly zero there.
            evaluations=reorder.evaluations if reorder else 0,
            ordering=list(ordering),
            warm_started=warm_started,
            memo_hits=core.memo_hits if core is not None else 0,
        )

    # -- cache replay --------------------------------------------------------

    def replay(
        self,
        graph: IterationGraph,
        cached: CachedPlan,
        signature: GraphSignature,
    ) -> SearchResult:
        """Re-instantiate a cached plan on a signature-identical graph.

        Skips the ordering search and the memory-optimization ILP
        entirely: memory candidates come from the memoised generator
        (they are a pure function of the hashed stage costs, so a
        signature-equal replay reuses the solved sets instead of
        re-running the MCKP sweeps), the cached per-pair strategy
        selections and per-rank order are translated through the
        signature's canonical mappings, and a single pipeline simulation
        recovers the timeline — which matches the cached one exactly
        because every stage latency is signature-equal.
        """
        if cached.signature.digest != signature.digest:
            raise ValueError(
                "cannot replay a plan across different signatures; use a "
                "warm-started search for near misses"
            )
        self._prepare_memory(graph)
        decode_selection(cached, signature, graph)
        ordering = decode_ordering(cached, signature)
        if ordering:
            graph.apply_group_priorities(
                {g: len(ordering) - i for i, g in enumerate(ordering)}
            )
        order = decode_order(cached, signature)
        predicted = simulate_pipeline(
            graph, order, self.cluster, self.parallel, self.cost_model,
            legacy=not self.use_kernel,
        )
        schedule = PipelineSchedule(
            graph=graph,
            order=order,
            predicted=predicted,
            label=cached.label or f"dip-{self.strategy}",
        )
        return SearchResult(
            schedule=schedule,
            reorder=None,
            memopt=None,
            interleave_ms=cached.interleave_ms,
            total_ms=predicted.total_ms,
            evaluations=0,
            ordering=ordering,
            cache_hit=True,
            signature=signature.digest,
        )
