"""Branch-and-bound solver for the per-rank memory-optimization ILP.

The section 5.3 problem: ``n`` stage pairs, each with ``S`` candidate
strategies ``(lat, mem)``; minimise total latency while, at every probe
time, the summed memory of *active* pairs stays within the limit.  This is
a multiple-choice selection problem with interval (clique) constraints.

The solver follows the paper's two efficiency tricks: it is warm-started
with a greedy solution and terminates early at a configurable relative
optimality gap (default 5%).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class McIntervalProblem:
    """A multiple-choice selection problem with interval memory cliques.

    Attributes:
        latencies: ``latencies[i][j]`` — latency of candidate ``j`` of
            pair ``i``.
        memories: Matching memory residencies.
        cliques: Each clique lists the pair indices simultaneously
            resident at one probe time; their chosen memories must sum to
            at most ``limit``.
        limit: Memory limit (bytes) applying to every clique.
    """

    latencies: List[List[float]]
    memories: List[List[float]]
    cliques: List[List[int]]
    limit: float

    def __post_init__(self) -> None:
        if len(self.latencies) != len(self.memories):
            raise ValueError("latencies/memories shape mismatch")
        for i, (lats, mems) in enumerate(zip(self.latencies, self.memories)):
            if not lats or len(lats) != len(mems):
                raise ValueError(f"pair {i} has empty or mismatched candidates")
        for clique in self.cliques:
            for i in clique:
                if not (0 <= i < len(self.latencies)):
                    raise ValueError(f"clique references unknown pair {i}")

    @property
    def num_pairs(self) -> int:
        return len(self.latencies)

    def is_feasible(self, selection: Sequence[int]) -> bool:
        """Check every clique constraint under a full selection."""
        for clique in self.cliques:
            total = sum(self.memories[i][selection[i]] for i in clique)
            if total > self.limit + 1e-6:
                return False
        return True

    def total_latency(self, selection: Sequence[int]) -> float:
        return sum(self.latencies[i][selection[i]] for i in range(self.num_pairs))


@dataclass
class McIntervalSolution:
    """Solver output."""

    selection: List[int]
    latency: float
    lower_bound: float
    optimal: bool
    nodes_expanded: int = 0

    @property
    def gap(self) -> float:
        if self.latency <= 0:
            return 0.0
        return (self.latency - self.lower_bound) / self.latency


def greedy_warm_start(problem: McIntervalProblem) -> Optional[List[int]]:
    """Greedy feasible solution: start min-memory, upgrade by best ratio.

    Starts from every pair's lowest-memory candidate (the most feasible
    point), then repeatedly applies the single-candidate upgrade with the
    best latency-saved / memory-added ratio that keeps all cliques
    feasible.  An upgrade saving at most ``1e-12`` is never taken; one
    that adds no memory has ratio ``inf``.  Ties go to the lowest pair
    index, then the lowest candidate index.  Returns ``None`` when even
    the min-memory start violates a clique.

    Each step walks the pairs' compute/memory frontiers through a lazy
    heap instead of rescanning every pair x candidate x clique:

    * every pair keeps its upgrades from its current selection sorted by
      ``(-ratio, j)``; a global heap holds each pair's head as
      ``(-ratio, i, j, version)``, so the heap minimum is the rule's
      best untried upgrade;
    * a popped head fits iff ``max(usage of its cliques) + extra`` is
      within ``limit + 1e-6``, which equals the per-clique check because
      float addition is monotone.  A head that does not fit is dropped
      and the pair's next upgrade is pushed: its cliques only fill up
      until the pair's list is rebuilt, so it cannot fit later;
    * applying an upgrade rebuilds the upgraded pair's list (its ratios
      are relative to its selection).  An upgrade that lowers memory
      also rebuilds every pair sharing one of its cliques, since their
      dropped heads may fit again.  Stale heap entries are skipped by
      ``version``.

    The first fitting head popped is therefore exactly the upgrade the
    full rescan would pick, so both produce the same selection.
    """
    n = problem.num_pairs
    lats, mems = problem.latencies, problem.memories
    cap = problem.limit + 1e-6
    # min by (memory, latency), then lowest index.
    selection = [min(zip(m, l, range(len(m))))[2] for l, m in zip(lats, mems)]
    clique_usage = [
        sum(mems[i][selection[i]] for i in clique) for clique in problem.cliques
    ]
    if any(usage > cap for usage in clique_usage):
        return None
    cliques_of_pair: List[List[int]] = [[] for _ in range(n)]
    for c, clique in enumerate(problem.cliques):
        for i in clique:
            cliques_of_pair[i].append(c)
    # Candidates fastest first: the upgrades from any selection (saving
    # more than 1e-12) are a prefix, since subtraction is monotone.
    by_latency = [
        sorted(zip(l, range(len(l)), m)) for l, m in zip(lats, mems)
    ]

    # upgrades[i]: (-ratio, j, extra) from pair i's selection, best last.
    upgrades: List[List[Tuple[float, int, float]]] = [[] for _ in range(n)]
    version = [0] * n
    heap: List[Tuple[float, int, int, int]] = []

    def push_head(i: int) -> None:
        if upgrades[i]:
            neg_ratio, j, _extra = upgrades[i][-1]
            heapq.heappush(heap, (neg_ratio, i, j, version[i]))

    def rebuild(i: int) -> None:
        version[i] += 1
        cur_lat = lats[i][selection[i]]
        cur_mem = mems[i][selection[i]]
        ups = []
        for lat, j, mem in by_latency[i]:
            saved = cur_lat - lat
            if saved <= 1e-12:
                break
            extra = mem - cur_mem
            ups.append((-saved / extra if extra > 0 else -math.inf, j, extra))
        ups.sort(reverse=True)
        upgrades[i] = ups
        push_head(i)

    for i in range(n):
        rebuild(i)
    while heap:
        _neg_ratio, i, j, ver = heapq.heappop(heap)
        if ver != version[i]:
            continue
        extra = upgrades[i].pop()[2]
        if extra > 0 and cliques_of_pair[i]:
            if max(map(clique_usage.__getitem__, cliques_of_pair[i])) + extra > cap:
                push_head(i)
                continue
        selection[i] = j
        for c in cliques_of_pair[i]:
            clique_usage[c] += extra
        rebuild(i)
        if extra < 0:
            for k in {k for c in cliques_of_pair[i] for k in problem.cliques[c]}:
                if k != i:
                    rebuild(k)
    return selection


def solve_mc_interval(
    problem: McIntervalProblem,
    warm_start: Optional[Sequence[int]] = None,
    rel_gap: float = 0.05,
    node_limit: int = 200_000,
) -> McIntervalSolution:
    """Best-first branch-and-bound with warm start and gap termination.

    The lower bound at a node is the sum of fixed latencies plus each
    unfixed pair's minimum candidate latency (memory relaxed) — cheap and
    admissible.  Nodes branch on the unfixed pair with the largest
    latency spread.  Infeasible nodes (min-memory completion violating a
    clique) are pruned.

    Raises:
        ValueError: if no feasible solution exists.
    """
    n = problem.num_pairs
    if n == 0:
        return McIntervalSolution([], 0.0, 0.0, True)

    incumbent = list(warm_start) if warm_start is not None else None
    if incumbent is None:
        incumbent = greedy_warm_start(problem)
    if incumbent is not None and not problem.is_feasible(incumbent):
        incumbent = None
    best_lat = problem.total_latency(incumbent) if incumbent is not None else float("inf")

    min_lat = [min(lats) for lats in problem.latencies]
    min_mem = [min(mems) for mems in problem.memories]
    # Branch order: biggest potential latency savings first.
    spread = [max(lats) - min(lats) for lats in problem.latencies]
    order = sorted(range(n), key=lambda i: -spread[i])
    root_bound = sum(min_lat)

    cliques_of_pair: List[List[int]] = [[] for _ in range(n)]
    for c, clique in enumerate(problem.cliques):
        for i in clique:
            cliques_of_pair[i].append(c)
    clique_min = [
        sum(min_mem[i] for i in clique) for clique in problem.cliques
    ]
    if any(m > problem.limit + 1e-6 for m in clique_min):
        raise ValueError("problem infeasible even at minimum memory")

    counter = itertools.count()
    # Node: (bound, tiebreak, depth, partial selection, clique slack used)
    heap: List[Tuple[float, int, int, Tuple[int, ...], Tuple[float, ...]]] = []
    heapq.heappush(
        heap, (root_bound, next(counter), 0, (), tuple(clique_min))
    )
    nodes = 0
    global_lb = root_bound

    while heap:
        bound, _tie, depth, partial, clique_use = heapq.heappop(heap)
        global_lb = max(global_lb, min(bound, best_lat))
        if bound >= best_lat - 1e-9:
            break  # best-first: nothing better remains
        if best_lat < float("inf") and (best_lat - bound) <= rel_gap * best_lat:
            break  # within the allowed optimality gap
        nodes += 1
        if nodes > node_limit:
            break
        pair = order[depth]
        fixed_lat = sum(
            problem.latencies[order[d]][partial[d]] for d in range(depth)
        )
        for j in range(len(problem.latencies[pair])):
            extra_mem = problem.memories[pair][j] - min_mem[pair]
            new_use = list(clique_use)
            feasible = True
            for c in cliques_of_pair[pair]:
                new_use[c] += extra_mem
                if new_use[c] > problem.limit + 1e-6:
                    feasible = False
                    break
            if not feasible:
                continue
            new_partial = partial + (j,)
            lat_so_far = fixed_lat + problem.latencies[pair][j]
            remaining = sum(min_lat[order[d]] for d in range(depth + 1, n))
            new_bound = lat_so_far + remaining
            if new_bound >= best_lat - 1e-9:
                continue
            if depth + 1 == n:
                selection = [0] * n
                for d, choice in enumerate(new_partial):
                    selection[order[d]] = choice
                if problem.is_feasible(selection):
                    best_lat = new_bound
                    incumbent = selection
            else:
                heapq.heappush(
                    heap,
                    (new_bound, next(counter), depth + 1, new_partial, tuple(new_use)),
                )

    if incumbent is None:
        raise ValueError("no feasible solution found")
    lower = min(global_lb, best_lat)
    optimal = not heap or best_lat - lower <= 1e-9
    return McIntervalSolution(
        selection=list(incumbent),
        latency=best_lat,
        lower_bound=lower,
        optimal=optimal,
        nodes_expanded=nodes,
    )
