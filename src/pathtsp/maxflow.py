"""Dense max-flow machinery: highest-label push-relabel, min cuts, Gomory-Hu.

Capacities are float matrices. `push_relabel` runs the generic algorithm to
completion (all excess drained back), so the returned matrix is a valid
maximum flow whose per-arc values can be read off directly -- the narrow-cut
flow network relies on that.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

RESIDUAL_EPS = 1e-12


def push_relabel(cap: np.ndarray, s: int, t: int) -> tuple[float, np.ndarray]:
    """Maximum s-t flow under nonnegative capacities cap[u][v].

    Returns (flow value, antisymmetric flow matrix F with F[u][v] = -F[v][u]).
    """
    n = cap.shape[0]
    if s == t:
        raise ValueError("source equals sink")
    flow = np.zeros((n, n))
    height = [0] * n
    excess = [0.0] * n
    height[s] = n

    for v in range(n):
        c = cap[s, v]
        if c > 0 and v != s:
            flow[s, v] = c
            flow[v, s] = -c
            excess[v] += c
            excess[s] -= c

    def residual(u, v):
        return cap[u, v] - flow[u, v]

    active = {v for v in range(n) if v not in (s, t) and excess[v] > RESIDUAL_EPS}
    while active:
        u = max(active, key=lambda v: (height[v], -v))
        pushed = False
        for v in range(n):
            if height[u] == height[v] + 1 and residual(u, v) > RESIDUAL_EPS:
                send = min(excess[u], residual(u, v))
                flow[u, v] += send
                flow[v, u] -= send
                excess[u] -= send
                excess[v] += send
                if v not in (s, t) and excess[v] > RESIDUAL_EPS:
                    active.add(v)
                if excess[u] <= RESIDUAL_EPS:
                    active.discard(u)
                    pushed = True
                    break
                pushed = True
        if not pushed:
            floor = min(
                (height[v] for v in range(n) if residual(u, v) > RESIDUAL_EPS),
                default=None,
            )
            if floor is None:
                # isolated excess cannot happen with antisymmetric flows
                active.discard(u)
                continue
            height[u] = floor + 1
    return float(excess[t]), flow


def source_side(cap: np.ndarray, flow: np.ndarray, s: int) -> frozenset[int]:
    """Vertices reachable from s in the residual graph of a maximum flow."""
    n = cap.shape[0]
    seen = [False] * n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if not seen[v] and cap[u, v] - flow[u, v] > RESIDUAL_EPS:
                seen[v] = True
                queue.append(v)
    return frozenset(v for v in range(n) if seen[v])


def cut_value(weights: np.ndarray, side: Iterable[int]) -> float:
    """Capacity of the cut (side, complement) as a plain sum over weights."""
    n = weights.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[list(side)] = True
    return float(weights[np.ix_(inside, ~inside)].sum())


def min_cut(cap: np.ndarray, s: int, t: int) -> tuple[float, frozenset[int]]:
    """Minimum s-t cut; value is recomputed as a direct capacity sum."""
    _, flow = push_relabel(cap, s, t)
    side = source_side(cap, flow, s)
    return cut_value(cap, side), side


def min_cut_merged(
    weights: np.ndarray,
    source_group: Sequence[int],
    sink_group: Sequence[int],
) -> tuple[float, frozenset[int]]:
    """Minimum cut separating two merged vertex groups.

    Returns (capacity, source-side set in original vertex labels). The
    capacity is evaluated on the original weight matrix so that callers
    comparing against enumerated cut sums see identical arithmetic.
    """
    n = weights.shape[0]
    src = set(source_group)
    snk = set(sink_group)
    if src & snk:
        raise ValueError("source and sink groups overlap")
    rest = [v for v in range(n) if v not in src and v not in snk]
    groups: list[list[int]] = [sorted(src)] + [[v] for v in rest] + [sorted(snk)]
    k = len(groups)
    cap = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            w = float(weights[np.ix_(groups[i], groups[j])].sum())
            cap[i, j] = cap[j, i] = w
    _, flow = push_relabel(cap, 0, k - 1)
    side_groups = source_side(cap, flow, 0)
    side = frozenset(v for g in side_groups for v in groups[g])
    return cut_value(weights, side), side


def gomory_hu_tree(weights: np.ndarray) -> tuple[list[int], list[float]]:
    """Gusfield's Gomory-Hu tree: parent pointers and edge cut values.

    parent[0] is -1; for v > 0 the tree edge (v, parent[v]) carries the
    minimum v-parent[v] cut value, and splitting the tree at that edge gives
    a minimum separating cut for the pair.
    """
    n = weights.shape[0]
    parent = [0] * n
    parent[0] = -1
    value = [0.0] * n
    for v in range(1, n):
        p = parent[v]
        cutv, side = min_cut(weights, v, p)
        value[v] = cutv
        for w in range(n):
            if w != v and parent[w] == p and w in side:
                parent[w] = v
        if parent[p] != -1 and parent[p] in side:
            parent[v] = parent[p]
            parent[p] = v
            value[v] = value[p]
            value[p] = cutv
    return parent, value


def gomory_hu_splits(parent: list[int]) -> list[tuple[int, frozenset[int]]]:
    """For each non-root vertex v, the side of the tree containing v after
    removing the edge (v, parent[v])."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    out = []
    for v in range(n):
        if parent[v] < 0:
            continue
        comp = set()
        stack = [v]
        while stack:
            u = stack.pop()
            comp.add(u)
            stack.extend(children[u])
        out.append((v, frozenset(comp)))
    return out
