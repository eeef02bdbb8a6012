"""Fast self-test of the benchmark harness (about 20 s on 2 cores).

    python3 planbench/selftest.py

Runs every workload of ``workloads.WORKLOADS`` at tiny scale (one plan
per phase) untraced and traced, and checks that:

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted with its unit and a finite value, and the end-to-end values
  are positive;
* a deliberately broken plan (its makespan perturbed after delivery)
  fails the output checks, so ``failed``/``attempted`` rises above 0;
* without a ``src/repro`` to benchmark, ``run.py`` exits non-zero and
  prints no result.

Exits 0 when all hold; raises on the first one that does not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return [w["name"] for w in spec["workloads"]], units


def quiet_run(name: str, trace: int, checker=None) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_benchmark(name, seed=7, seconds=0.0, trace=trace,
                                 checker=checker, setup_trials=1)


def check_metrics(name: str, trace: int, expected: dict) -> None:
    result = quiet_run(name, trace)
    assert result["correct"] and result["failed"] == 0, (name, result)
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (name, trace, set(metrics)
                                           ^ set(expected))
    for metric, entry in metrics.items():
        assert entry["unit"] == expected[metric], (metric, entry)
        assert math.isfinite(entry["value"]), (metric, entry)
        if not trace:
            assert entry["value"] > 0, (name, metric, entry)
    print(f"ok  {name} trace={trace}: {len(metrics)} metrics, "
          f"{result['attempted']} plans")


def broken_checker(result, planner):
    """Perturb the delivered makespan, then run the real checks."""
    result.total_ms *= 1.5
    return workloads.check_plan(result, planner)


def main() -> int:
    names, units = declared()
    assert [n for n, _u in run.END_TO_END] == list(units["end_to_end"])
    assert [n for n, _u in run.PER_LAYER] == list(units["per_layer"])
    # One plan per phase: shrink the fixed prefix behind sim_iteration_ms.
    for name, spec in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = dataclasses.replace(spec, sim_plans=1)
    assert set(names) <= set(workloads.WORKLOADS), names
    for name in workloads.WORKLOADS:
        check_metrics(name, 0, units["end_to_end"])
        check_metrics(name, 1, units["per_layer"])

    result = quiet_run(names[0], 0, checker=broken_checker)
    assert not result["correct"] and result["failed"] >= 1, result
    print(f"ok  broken plan check: {result['failed']} of "
          f"{result['attempted']} plans failed")

    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "planbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "planbench/run.py", "--workload", names[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK_DIR)
    assert out.returncode != 0 and not out.stdout.strip(), out
    print(f"ok  no source to benchmark: exit {out.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
