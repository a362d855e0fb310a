"""Shared fixtures and independent test oracles.

The oracles here (BFS distances, Edmonds-Karp flow, the permutation-scan
path optimum, Pruefer enumeration of spanning trees, the per-mask loop
versions of the exact subset DPs) are deliberately
written against different primitives than the package so that agreement
is meaningful.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable

import numpy as np
import pytest

from pathtsp.errors import SizeLimitError
from pathtsp.exact import ExactResult
from pathtsp.instances import GraphicalInstance, Instance


@pytest.fixture
def unit_triangle():
    """n=3 with all unit costs, s=0, t=1, internal vertex 2."""
    cost = np.ones((3, 3)) - np.eye(3)
    return Instance(cost=cost, s=0, t=1)


@pytest.fixture
def five_cycle():
    """5-cycle graph with adjacent endpoints."""
    return GraphicalInstance(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), 0, 1)


def random_connected_graph(n: int, seed: int, density: float = 0.35) -> GraphicalInstance:
    """Random spanning-path skeleton plus density-sampled extra edges."""
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(n))
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.add((u, v))
    st = rng.choice(n, 2, replace=False)
    return GraphicalInstance(n, tuple(sorted(edges)), int(st[0]), int(st[1]))


def bfs_distances(g: GraphicalInstance, src: int) -> list[float]:
    adj = g.adjacency()
    dist = [-1.0] * g.n
    dist[src] = 0.0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


def edmonds_karp(cap: np.ndarray, s: int, t: int) -> float:
    """Independent max-flow oracle (BFS augmenting paths)."""
    n = cap.shape[0]
    flow = np.zeros((n, n))
    total = 0.0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] < 0:
            u = queue.popleft()
            for v in range(n):
                if parent[v] < 0 and cap[u, v] - flow[u, v] > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            return total
        bottleneck = np.inf
        v = t
        while v != s:
            u = parent[v]
            bottleneck = min(bottleneck, cap[u, v] - flow[u, v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            flow[u, v] += bottleneck
            flow[v, u] -= bottleneck
            v = u
        total += bottleneck


def metric_report_loop(cost: np.ndarray, tol: float) -> list[tuple]:
    """validate_metric's report as (kind, where, amount) tuples, entry by
    entry in plain loops over vertices, pairs and triples."""
    n = cost.shape[0]
    out = [("diagonal", (u,), float(cost[u, u])) for u in range(n) if cost[u, u] != 0.0]
    for u in range(n):
        for v in range(u + 1, n):
            a, b = float(cost[u, v]), float(cost[v, u])
            if not (np.isfinite(a) and np.isfinite(b)):
                out.append(("nonfinite", (u, v), 0.0))
                continue
            if a != b:
                out.append(("symmetry", (u, v), a - b))
            if a < 0:
                out.append(("negative", (u, v), a))
    with np.errstate(invalid="ignore"):
        for u in range(n):
            for w in range(u + 1, n):
                for v in range(n):
                    slack = cost[u, w] - (cost[u, v] + cost[v, w])
                    if v not in (u, w) and slack > tol:
                        out.append(("triangle", (u, v, w), float(slack)))
    return out


def hamiltonian_path_instance(n: int, seed: int):
    """Random metric together with the identity-order Hamiltonian s-t path
    edge set (s=0, t=n-1 relabeled)."""
    from pathtsp.instances import generate_random_metric

    base = generate_random_metric(n, seed)
    inst = Instance(cost=base.cost, s=0, t=n - 1)
    path_edges = [(i, i + 1) for i in range(n - 1)]
    return inst, path_edges


def brute_force_path_scan(inst: Instance) -> float:
    """Permutation-scan optimum, an independent check on the subset DP."""
    internal = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    if len(internal) > 8:
        raise SizeLimitError("permutation scan limited to 8 internal vertices")
    best = np.inf
    for perm in itertools.permutations(internal):
        best = min(best, inst.path_cost([inst.s, *perm, inst.t]))
    return float(best)


def all_spanning_trees(n: int) -> Iterable[frozenset[tuple[int, int]]]:
    """All labeled spanning trees of K_n via Pruefer sequences (n^(n-2))."""
    if n == 1:
        yield frozenset()
        return
    if n == 2:
        yield frozenset({(0, 1)})
        return
    if n > 7:
        raise SizeLimitError("tree enumeration limited to n <= 7")
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        edges = []
        avail = [True] * n
        for v in seq:
            leaf = min(u for u in range(n) if avail[u] and deg[u] == 1)
            edges.append((min(leaf, v), max(leaf, v)))
            avail[leaf] = False
            deg[v] -= 1
        rest = [u for u in range(n) if avail[u]]
        edges.append((min(rest), max(rest)))
        yield frozenset(edges)


def exact_path_tsp_loop(inst: Instance) -> ExactResult:
    """exact_path_tsp as a Python loop over every mask and last vertex: the
    reference for its optimum, first-argmin witness and explored count."""
    n = inst.n
    s, t = inst.s, inst.t
    if n == 2:
        return ExactResult(inst.c(s, t), (s, t), 1)
    inner = [v for v in range(n) if v != t]  # t is appended last
    pos = {v: i for i, v in enumerate(inner)}
    k = len(inner)
    cost = inst.cost[np.ix_(inner, inner)]
    full = 1 << k
    dp = np.full((full, k), np.inf)
    parent = np.full((full, k), -1, dtype=np.int8)
    sbit = 1 << pos[s]
    dp[sbit, pos[s]] = 0.0
    for mask in range(full):
        if not mask & sbit:
            continue
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        ext = row[:, None] + cost  # best way to reach j from some last
        best = ext.min(axis=0)
        arg = ext.argmin(axis=0)
        for j in range(k):
            bit = 1 << j
            if mask & bit:
                continue
            nm = mask | bit
            if best[j] < dp[nm, j]:
                dp[nm, j] = best[j]
                parent[nm, j] = arg[j]
    last_costs = dp[full - 1] + inst.cost[inner, t]
    j = int(last_costs.argmin())
    optimum = float(last_costs[j])
    order = [t]
    mask = full - 1
    while j >= 0:
        order.append(inner[j])
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    order.reverse()
    explored = int(np.isfinite(dp).sum())
    return ExactResult(optimum, tuple(order), explored)


def exact_pc_path_loop(pc) -> ExactResult:
    """exact_pc_path as Python loops over every mask: the reference for its
    optimum, witness (earliest mask on ties within 1e-15) and explored count."""
    inst = pc.inst
    n = inst.n
    s, t = inst.s, inst.t
    prizes = np.asarray(pc.prizes, dtype=float)
    total_prize = float(prizes.sum())
    internal = [v for v in range(n) if v not in (s, t)]
    k = len(internal)
    full = 1 << k
    # dp[mask][j]: cheapest s -> internal[j] path visiting exactly mask
    dp = np.full((full, k), np.inf)
    parent = np.full((full, k), -2, dtype=np.int8)  # -1 means "from s"
    for j, v in enumerate(internal):
        dp[1 << j, j] = inst.c(s, v)
        parent[1 << j, j] = -1
    cost = inst.cost[np.ix_(internal, internal)]
    for mask in range(1, full):
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        ext = row[:, None] + cost
        best = ext.min(axis=0)
        arg = ext.argmin(axis=0)
        for j in range(k):
            bit = 1 << j
            if mask & bit:
                continue
            nm = mask | bit
            if best[j] < dp[nm, j]:
                dp[nm, j] = best[j]
                parent[nm, j] = arg[j]
    prize_of = np.zeros(full)
    for j, v in enumerate(internal):
        prize_of[(np.arange(full) >> j) & 1 == 1] += prizes[v]

    best_obj = inst.c(s, t) + total_prize
    best_mask, best_j = 0, -1
    for mask in range(1, full):
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        ends = row + inst.cost[internal, t]
        j = int(ends.argmin())
        obj = float(ends[j]) + total_prize - float(prize_of[mask])
        if obj < best_obj - 1e-15 or (
            abs(obj - best_obj) <= 1e-15 and mask < best_mask
        ):
            best_obj, best_mask, best_j = obj, mask, j
    order = [t]
    mask, j = best_mask, best_j
    while j >= 0:
        order.append(internal[j])
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    order.append(s)
    order.reverse()
    explored = int(np.isfinite(dp).sum()) + 1
    return ExactResult(float(best_obj), tuple(order), explored)
