"""Evaluation core: compiled kernel vs original evaluator throughput.

DIP's search-efficiency claims (section 6.2, Fig. 11) assume schedule
evaluation is cheap enough to run ~120 rollouts per planned iteration.
This benchmark measures the compiled evaluation core
(:mod:`repro.core.evalcore`: one-shot graph arrays, heap-based
interleaver kernel, one-pass simulator, rollout memo) against the
legacy object-graph evaluators on the Fig. 11 workload:

* **rollouts/sec** — the kernel scores random orderings >= 3x faster
  than ``ScheduleSearcher.evaluate_ordering`` (score-for-score equal);
* **end-to-end search** — identically seeded MCTS searches return the
  same best makespan and winning per-rank order at the same budget,
  with the kernel path strictly faster.

Results are committed to ``results/eval_core.json``; the same
measurement is surfaced as ``repro perf-bench``.
"""

import os

import pytest

from repro.perfbench import run_eval_core_bench

from common import print_table, save_results

MODEL = "VLM-M"  # the Fig. 11 stand-in workload (see test_fig11_*)
NUM_MICROBATCHES = 12
BUDGET = 120
ROLLOUTS = 60
REPEATS = 5

#: The committed results (results/eval_core.json) show the kernel >= 3x
#: over the original evaluator; shared CI runners get a relaxed floor so a
#: noisy neighbour cannot flake the build (same convention as
#: test_plan_cache.py).
ON_CI = os.environ.get("CI", "").lower() in ("1", "true")
SPEEDUP_FLOOR = 2.0 if ON_CI else 3.0


@pytest.mark.benchmark(group="eval_core")
def test_eval_core_speedup(benchmark):
    report = benchmark.pedantic(
        run_eval_core_bench,
        kwargs=dict(model=MODEL, microbatches=NUM_MICROBATCHES,
                    budget=BUDGET, rollouts=ROLLOUTS, repeats=REPEATS,
                    seed=0),
        rounds=1, iterations=1,
    )
    roll = report["rollouts"]
    search = report["search"]
    print_table(
        "Eval core: kernel vs legacy (Fig. 11 workload)",
        [
            {"leg": "rollouts/s", "legacy": roll["legacy_per_s"],
             "kernel": roll["kernel_per_s"], "speedup": roll["speedup"]},
            {"leg": "search (s)", "legacy": search["legacy_s"],
             "kernel": search["kernel_s"], "speedup": search["speedup"]},
        ],
        ["leg", "legacy", "kernel", "speedup"],
    )
    save_results("eval_core", report)

    # Equal quality is non-negotiable: same scores, same best plan.
    assert roll["scores_match"]
    assert search["equal_quality"]
    assert search["kernel_best_ms"] == search["legacy_best_ms"]

    # The kernel must be decisively faster on the rollout hot path...
    assert roll["speedup"] >= SPEEDUP_FLOOR, (
        f"kernel only {roll['speedup']:.2f}x over legacy "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    # ...and end-to-end search must benefit, not just the microbenchmark.
    assert search["speedup"] > 1.2, (
        f"search speedup {search['speedup']:.2f}x — compiled arrays "
        "amortisation lost"
    )
