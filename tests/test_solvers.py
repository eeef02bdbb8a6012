"""Tests for the solver substrate: MCKP, branch-and-bound, MILP backend."""

import itertools
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.memopt as memopt_mod
from repro.solver.bnb import (
    McIntervalProblem,
    greedy_warm_start,
    solve_mc_interval,
)
from repro.solver.mckp import mckp_min_latency
from repro.solver.scipy_backend import HAVE_MILP, solve_mc_interval_milp


def brute_force_mckp(latencies, memories, limit):
    best = None
    for combo in itertools.product(*[range(len(g)) for g in latencies]):
        mem = sum(memories[g][j] for g, j in enumerate(combo))
        if mem > limit:
            continue
        lat = sum(latencies[g][j] for g, j in enumerate(combo))
        if best is None or lat < best[1]:
            best = (list(combo), lat)
    return best


class TestMckp:
    def test_trivial(self):
        sel, lat = mckp_min_latency([[5.0, 1.0]], [[0.0, 10.0]], 20.0)
        assert sel == [1] and lat == 1.0

    def test_budget_forces_slow_option(self):
        sel, lat = mckp_min_latency([[5.0, 1.0]], [[0.0, 10.0]], 5.0)
        assert sel == [0] and lat == 5.0

    def test_empty_groups(self):
        assert mckp_min_latency([], [], 10.0) == ([], 0.0)

    def test_infeasible(self):
        assert mckp_min_latency([[1.0]], [[10.0]], 5.0) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mckp_min_latency([[1.0]], [], 5.0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_matches_brute_force(self, data):
        rng_seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(rng_seed)
        groups = data.draw(st.integers(1, 4))
        latencies, memories = [], []
        for _ in range(groups):
            k = int(rng.integers(1, 4))
            latencies.append([float(x) for x in rng.uniform(0, 10, k)])
            memories.append([float(x) for x in rng.integers(0, 8, k)])
        limit = float(rng.integers(0, 20))
        expected = brute_force_mckp(latencies, memories, limit)
        got = mckp_min_latency(latencies, memories, limit, resolution=4096)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            # Equal optimal latency (selection may differ on ties).
            assert got[1] == pytest.approx(expected[1], abs=1e-9)


def random_interval_problem(seed, pairs=5, cands=3):
    rng = np.random.default_rng(seed)
    latencies = [[float(x) for x in np.sort(rng.uniform(0, 5, cands))[::-1]]
                 for _ in range(pairs)]
    memories = [[float(x) for x in np.sort(rng.uniform(1, 10, cands))]
                for _ in range(pairs)]
    # Swap so that low latency costs more memory (pareto-like).
    latencies = [list(reversed(l)) for l in latencies]
    memories = [list(reversed(m)) for m in memories]
    num_cliques = int(rng.integers(1, 4))
    cliques = []
    for _ in range(num_cliques):
        size = int(rng.integers(1, pairs + 1))
        cliques.append(sorted(rng.choice(pairs, size=size, replace=False).tolist()))
    min_need = max(
        sum(min(memories[i]) for i in clique) for clique in cliques
    )
    limit = float(min_need + rng.uniform(0, 10))
    return McIntervalProblem(latencies, memories, cliques, limit)


class TestBranchAndBound:
    def test_no_constraint_picks_fastest(self):
        problem = McIntervalProblem(
            latencies=[[5.0, 1.0], [4.0, 2.0]],
            memories=[[1.0, 2.0], [1.0, 2.0]],
            cliques=[[0, 1]],
            limit=100.0,
        )
        solution = solve_mc_interval(problem, rel_gap=0.0)
        assert solution.selection == [1, 1]
        assert solution.latency == 3.0
        assert solution.optimal

    def test_tight_constraint(self):
        problem = McIntervalProblem(
            latencies=[[5.0, 1.0], [4.0, 2.0]],
            memories=[[1.0, 10.0], [1.0, 10.0]],
            cliques=[[0, 1]],
            limit=11.0,  # only one pair may take the fast option
        )
        solution = solve_mc_interval(problem, rel_gap=0.0)
        assert sorted(solution.selection) == [0, 1]
        assert solution.latency == pytest.approx(min(5.0 + 2.0, 1.0 + 4.0))

    def test_infeasible_raises(self):
        problem = McIntervalProblem(
            latencies=[[1.0]], memories=[[10.0]], cliques=[[0]], limit=5.0
        )
        with pytest.raises(ValueError, match="infeasible"):
            solve_mc_interval(problem)

    def test_warm_start_feasible(self):
        problem = random_interval_problem(5)
        warm = greedy_warm_start(problem)
        assert warm is not None
        assert problem.is_feasible(warm)

    def test_gap_terminates_early(self):
        problem = random_interval_problem(11, pairs=8, cands=4)
        loose = solve_mc_interval(problem, rel_gap=0.5)
        tight = solve_mc_interval(problem, rel_gap=0.0)
        assert tight.latency <= loose.latency + 1e-9
        assert loose.gap <= 0.5 + 1e-9

    @pytest.mark.skipif(not HAVE_MILP, reason="scipy.optimize.milp unavailable")
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_matches_milp(self, seed):
        problem = random_interval_problem(seed, pairs=4, cands=3)
        ours = solve_mc_interval(problem, rel_gap=0.0)
        milp = solve_mc_interval_milp(problem)
        assert ours.latency == pytest.approx(milp.latency, rel=1e-6, abs=1e-6)

    def test_empty_problem(self):
        problem = McIntervalProblem([], [], [], 10.0)
        solution = solve_mc_interval(problem)
        assert solution.selection == []
        assert solution.latency == 0.0


def _reference_greedy(problem: McIntervalProblem) -> Optional[List[int]]:
    """The original full-rescan greedy: the oracle for ``greedy_warm_start``.

    Every step rescans all pairs x candidates x cliques for the fitting
    upgrade with the best latency-saved / memory-added ratio (first
    maximum in pair, then candidate, order).
    """
    n = problem.num_pairs
    selection = [
        min(range(len(problem.memories[i])), key=lambda j: (problem.memories[i][j],
                                                            problem.latencies[i][j]))
        for i in range(n)
    ]
    if not problem.is_feasible(selection):
        return None
    clique_usage = [
        sum(problem.memories[i][selection[i]] for i in clique)
        for clique in problem.cliques
    ]
    cliques_of_pair: List[List[int]] = [[] for _ in range(n)]
    for c, clique in enumerate(problem.cliques):
        for i in clique:
            cliques_of_pair[i].append(c)

    improved = True
    while improved:
        improved = False
        best: Optional[Tuple[float, int, int, float]] = None
        for i in range(n):
            cur_lat = problem.latencies[i][selection[i]]
            cur_mem = problem.memories[i][selection[i]]
            for j in range(len(problem.latencies[i])):
                saved = cur_lat - problem.latencies[i][j]
                if saved <= 1e-12:
                    continue
                extra = problem.memories[i][j] - cur_mem
                if extra <= 0:
                    ratio = float("inf")
                else:
                    fits = all(
                        clique_usage[c] + extra <= problem.limit + 1e-6
                        for c in cliques_of_pair[i]
                    )
                    if not fits:
                        continue
                    ratio = saved / extra
                if best is None or ratio > best[0]:
                    best = (ratio, i, j, extra)
        if best is not None:
            _ratio, i, j, extra = best
            selection[i] = j
            for c in cliques_of_pair[i]:
                clique_usage[c] += extra
            improved = True
    return selection


@st.composite
def greedy_problems(draw):
    """Small instances on an integer grid, so ratios tie across pairs and
    candidates, memories repeat, and the min-memory start is sometimes
    infeasible; pairs may have one candidate or sit in no clique."""
    n = draw(st.integers(1, 6))
    grid = st.integers(0, 4).map(float)
    latencies, memories = [], []
    for _ in range(n):
        k = draw(st.integers(1, 4))
        latencies.append(draw(st.lists(grid, min_size=k, max_size=k)))
        memories.append(draw(st.lists(grid, min_size=k, max_size=k)))
    clique = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    cliques = draw(st.lists(clique.map(sorted), max_size=4))
    limit = float(draw(st.integers(0, 12)))
    return McIntervalProblem(latencies, memories, cliques, limit)


# Float ratio ties: candidates 1 and 2 of pair 0 have ratios that round
# to the same float, so the greedy takes candidate 1 first and then a
# zero (first example) or negative (second) memory delta to candidate 2;
# pair 1 shares the clique and competes for the headroom.
_ZERO_DELTA_TIE = McIntervalProblem(
    latencies=[[65536.0, 10260.507620467717, 10260.507620467715], [3.0, 1.0]],
    memories=[[0.0, 25.58139567136823, 25.58139567136823], [0.0, 2.0]],
    cliques=[[0, 1]],
    limit=27.0,
)
_NEGATIVE_DELTA_TIE = McIntervalProblem(
    latencies=[[65536.0, 22075.85196841898, 22075.851968418978], [3.0, 1.0]],
    memories=[[0.0, 54.92499626267649, 54.92499626267648], [0.0, 1.0]],
    cliques=[[0, 1], [1]],
    limit=56.0,
)


class TestGreedyWarmStart:
    @settings(max_examples=500, deadline=None)
    @given(problem=greedy_problems())
    @example(problem=_ZERO_DELTA_TIE)
    @example(problem=_NEGATIVE_DELTA_TIE)
    # Infeasible min-memory start: both return None.
    @example(problem=McIntervalProblem([[1.0, 0.0]], [[3.0, 4.0]], [[0]], 2.0))
    # Equal ratios across pairs and only room for one upgrade: the lower
    # pair index wins.
    @example(problem=McIntervalProblem(
        [[2.0, 0.0], [2.0, 0.0]], [[0.0, 2.0], [0.0, 2.0]], [[0, 1]], 2.0))
    # The best-ratio upgrade does not fit; the pair's next one does.
    @example(problem=McIntervalProblem(
        [[3.0, 0.0, 2.0]], [[0.0, 3.0, 2.0]], [[0]], 2.0))
    # The headroom check is inclusive: usage + extra == limit + 1e-6 fits.
    @example(problem=McIntervalProblem(
        [[2.0, 0.0]], [[0.0, 4.0]], [[0]], 4.0 - 1e-6))
    # A saving of at most 1e-12 is no upgrade.
    @example(problem=McIntervalProblem(
        [[1.0, 1.0 - 1e-13]], [[0.0, 1.0]], [[0]], 5.0))
    def test_property_matches_reference(self, problem):
        assert greedy_warm_start(problem) == _reference_greedy(problem)

    def test_tie_examples_take_zero_and_negative_deltas(self):
        for problem in (_ZERO_DELTA_TIE, _NEGATIVE_DELTA_TIE):
            selection = greedy_warm_start(problem)
            assert selection == _reference_greedy(problem)
            assert selection[0] == 2
            assert problem.memories[0][2] <= problem.memories[0][1]

    @pytest.mark.parametrize("combo_name,microbatches,budget", [
        ("VLM-S", 4, 8),
        ("T2V-S", 8, 4),
    ])
    def test_planner_instances_match_reference(self, monkeypatch, combo_name,
                                               microbatches, budget):
        from repro import quick_plan

        seen: List[McIntervalProblem] = []

        def spy(problem):
            seen.append(problem)
            return greedy_warm_start(problem)

        monkeypatch.setattr(memopt_mod, "greedy_warm_start", spy)
        quick_plan(combo_name, num_microbatches=microbatches, iterations=2,
                   budget_evaluations=budget)
        assert seen
        for problem in seen:
            assert greedy_warm_start(problem) == _reference_greedy(problem)

    def test_pair_in_no_clique_is_never_blocked(self):
        # Pair 0 sits in no clique: its memory-hungry fastest candidate is
        # taken even though it alone exceeds the limit.
        problem = McIntervalProblem(
            latencies=[[5.0, 2.0, 0.0], [4.0, 1.0]],
            memories=[[1.0, 50.0, 100.0], [1.0, 3.0]],
            cliques=[[1]],
            limit=2.0,
        )
        assert greedy_warm_start(problem) == [2, 0]
        assert greedy_warm_start(
            McIntervalProblem([[3.0, 0.0]], [[0.0, 9.0]], [], 0.0)
        ) == [1]
