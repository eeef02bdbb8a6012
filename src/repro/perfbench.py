"""Evaluation-core performance benchmark (kernel vs original evaluators).

The measurement behind ``repro perf-bench`` and
``benchmarks/test_eval_core.py``: on a Fig. 11-style workload it times

* **rollouts/sec** — the searcher's inner loop: scoring random group
  orderings through the legacy object-graph evaluator
  (:meth:`~repro.core.searcher.ScheduleSearcher.evaluate_ordering`)
  versus the compiled kernel (:class:`~repro.core.evalcore.EvalCore`,
  memo disabled so the number is raw interleaver throughput), asserting
  score-for-score equality;
* **end-to-end search wall-clock** — two identically seeded MCTS
  searches, kernel vs ``use_kernel=False``, asserting the same best
  makespan at the same budget (the kernel must buy speed, never
  quality).

Both paths are timed back-to-back in alternating repeats and the best
(minimum) time of each is reported — the estimator least sensitive to
background load, which would otherwise bias whichever side it landed on.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.topology import ParallelConfig, cluster_h100, cluster_h800
from repro.core.evalcore import EvalCore
from repro.core.graphbuilder import build_iteration_graph
from repro.core.memopt import generate_candidates
from repro.core.partitioner import ModalityPartitioner
from repro.core.planner import reference_microbatch
from repro.core.searcher import ScheduleSearcher
from repro.data.workload import t2v_workload, vlm_workload
from repro.models.lmm import build_combination
from repro.models.zoo import combination_by_name
from repro.sim.costmodel import CostModel


class EvalCoreMismatchError(RuntimeError):
    """The kernel and original evaluators disagreed — never acceptable."""


def _build_setup(model: str):
    combo = combination_by_name(model)
    arch = build_combination(combo)
    parallel = ParallelConfig(dp=1, tp=combo.tp, pp=combo.pp)
    nodes = max(1, parallel.world_size // 8)
    if model.endswith(("-8k", "-16k", "-3k", "-6k")):
        cluster = cluster_h100(nodes)
    else:
        cluster = cluster_h800(nodes)
    cost_model = CostModel()
    partitioner = ModalityPartitioner(arch, cluster, parallel, cost_model)
    plan = partitioner.plan(reference_microbatch(arch.kind))
    return arch, cluster, parallel, cost_model, partitioner, plan


def run_eval_core_bench(
    model: str = "VLM-M",
    microbatches: int = 12,
    budget: int = 120,
    rollouts: int = 60,
    repeats: int = 5,
    seed: int = 0,
    search_seed: Optional[int] = None,
) -> Dict:
    """Measure kernel-vs-original evaluator throughput and search time.

    Returns a JSON-serialisable report; raises
    :class:`EvalCoreMismatchError` if the two paths disagree on any
    rollout score, the final best makespan, or the winning per-rank
    order — speed must never change the answer.  (An explicit exception,
    not ``assert``, so the gate survives ``python -O``.)
    """
    arch, cluster, parallel, cost_model, partitioner, plan = _build_setup(model)
    if arch.kind == "t2v":
        stream = t2v_workload(microbatches, seed=seed)
    else:
        stream = vlm_workload(microbatches, seed=seed)
    batch = stream.next_batch()

    def build_graph():
        return build_iteration_graph(
            arch, plan, batch, cluster, parallel, cost_model,
            partitioner=partitioner,
        )

    # -- rollout throughput (the search inner loop) --------------------------
    graph = build_graph()
    generate_candidates(graph)
    graph.select_most_memory_efficient()
    searcher = ScheduleSearcher(cluster, parallel, cost_model,
                                budget_evaluations=budget, seed=seed,
                                enable_memopt=False)
    core = EvalCore(graph, cluster, parallel, cost_model, memoize=False)
    groups = list(graph.groups().keys())
    rng = np.random.default_rng(seed)
    orderings: List[list] = []
    for _ in range(rollouts):
        ordering = list(groups)
        rng.shuffle(ordering)
        orderings.append(ordering)

    legacy_times: List[float] = []
    kernel_times: List[float] = []
    legacy_scores: List[float] = []
    kernel_scores: List[float] = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        legacy_scores = [searcher.evaluate_ordering(graph, o)
                         for o in orderings]
        legacy_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        kernel_scores = [core.evaluate(o) for o in orderings]
        kernel_times.append(time.perf_counter() - t0)
    if kernel_scores != legacy_scores:
        raise EvalCoreMismatchError(
            "kernel and original evaluators disagree on rollout scores")
    legacy_s = min(legacy_times)
    kernel_s = min(kernel_times)

    # -- end-to-end search (identical seeds and budgets) ---------------------
    sseed = seed if search_seed is None else search_seed
    kernel_searcher = ScheduleSearcher(
        cluster, parallel, cost_model, budget_evaluations=budget,
        seed=sseed, enable_memopt=False)
    legacy_searcher = ScheduleSearcher(
        cluster, parallel, cost_model, budget_evaluations=budget,
        seed=sseed, enable_memopt=False, use_kernel=False)
    g_kernel, g_legacy = build_graph(), build_graph()
    t0 = time.perf_counter()
    kernel_result = kernel_searcher.search(g_kernel)
    search_kernel_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    legacy_result = legacy_searcher.search(g_legacy)
    search_legacy_s = time.perf_counter() - t0
    if kernel_result.total_ms != legacy_result.total_ms:
        raise EvalCoreMismatchError(
            "kernel search found a different best makespan at equal budget")
    if kernel_result.schedule.order != legacy_result.schedule.order:
        raise EvalCoreMismatchError(
            "kernel search produced a different winning order")

    return {
        "model": model,
        "microbatches": microbatches,
        "stages": len(graph.stages),
        "ranks": graph.num_ranks,
        "groups": len(groups),
        "rollouts": {
            "count": rollouts,
            "repeats": repeats,
            "legacy_s": legacy_s,
            "kernel_s": kernel_s,
            "legacy_per_s": rollouts / legacy_s,
            "kernel_per_s": rollouts / kernel_s,
            "speedup": legacy_s / kernel_s,
            "scores_match": True,
        },
        "search": {
            "budget": budget,
            "evaluations": kernel_result.evaluations,
            "legacy_s": search_legacy_s,
            "kernel_s": search_kernel_s,
            "speedup": search_legacy_s / max(search_kernel_s, 1e-12),
            "legacy_best_ms": legacy_result.total_ms,
            "kernel_best_ms": kernel_result.total_ms,
            "equal_quality": True,
            "memo_hits": kernel_result.memo_hits,
        },
    }


def describe_eval_core_bench(report: Dict) -> str:
    """Human-readable summary of :func:`run_eval_core_bench` output."""
    roll = report["rollouts"]
    search = report["search"]
    return (
        f"{report['model']} x{report['microbatches']}mb: "
        f"{report['stages']} stages / {report['groups']} groups on "
        f"{report['ranks']} ranks\n"
        f"rollouts: legacy {roll['legacy_per_s']:8.1f}/s   kernel "
        f"{roll['kernel_per_s']:8.1f}/s   speedup {roll['speedup']:.2f}x\n"
        f"search:   legacy {search['legacy_s']:8.2f}s   kernel "
        f"{search['kernel_s']:8.2f}s   speedup {search['speedup']:.2f}x "
        f"({search['evaluations']} evaluations, "
        f"{search['memo_hits']} memo hits)\n"
        f"best makespan: kernel {search['kernel_best_ms']:.3f} ms == "
        f"legacy {search['legacy_best_ms']:.3f} ms"
    )
