"""Shared fixtures and independent test oracles.

The oracles here (BFS distances, Edmonds-Karp flow, the permutation-scan
path optimum, Pruefer enumeration of spanning trees) are deliberately
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
