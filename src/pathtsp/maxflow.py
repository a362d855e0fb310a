"""Max-flow machinery: push-relabel, min cuts, Gomory-Hu, minimum odd cuts.

Capacities are float matrices. `push_relabel` is highest-label push-relabel
on neighbour lists, an exact replay of the dense rule: it performs the same
pushes and relabels, with the same float operations in the same order, as a
scan over every vertex would, so its flows are bit-identical to the dense
engine's (kept in the tests as the reference). It runs the generic algorithm
to completion (all excess drained back), so the returned matrix is a valid
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
    The highest active vertex (ties to the lowest label) is discharged: scan
    its neighbours in ascending order, pushing down every admissible arc,
    until its excess is gone; relabel it after a scan that pushed nothing.
    """
    n = cap.shape[0]
    if s == t:
        raise ValueError("source equals sink")
    cap = np.asarray(cap, dtype=float)
    # Only an arc with positive capacity in either direction can ever have
    # a residual above RESIDUAL_EPS, so scans skip every other vertex.
    pos = cap > 0
    rows, cols = np.nonzero(pos | pos.T)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(rows.tolist(), cols.tolist()):
        nbrs[u].append(v)
    c = cap.tolist()
    flow = [[0.0] * n for _ in range(n)]
    height = [0] * n
    excess = [0.0] * n
    height[s] = n
    eps = RESIDUAL_EPS

    for v in nbrs[s]:
        cv = c[s][v]
        if cv > 0 and v != s:
            flow[s][v] = cv
            flow[v][s] = -cv
            excess[v] += cv
            excess[s] -= cv

    active = {v for v in range(n) if v not in (s, t) and excess[v] > eps}
    while active:
        u = max(active, key=lambda v: (height[v], -v))
        cu, fu, nu = c[u], flow[u], nbrs[u]
        e = excess[u]
        # u stays the highest active vertex until it is discharged: pushes
        # activate only vertices one level down, and a relabel lifts u.
        while True:
            hu = height[u]
            pushed = False
            for v in nu:
                if height[v] == hu - 1:
                    r = cu[v] - fu[v]
                    if r > eps:
                        send = r if r < e else e
                        fu[v] += send
                        flow[v][u] -= send
                        e -= send
                        excess[v] += send
                        pushed = True
                        if v != s and v != t and excess[v] > eps:
                            active.add(v)
                        if e <= eps:
                            break
            if e <= eps:
                active.discard(u)
                break
            if not pushed:
                floor = min(
                    (height[v] for v in nu if cu[v] - fu[v] > eps), default=None
                )
                if floor is None:
                    # isolated excess cannot happen with antisymmetric flows
                    active.discard(u)
                    break
                height[u] = floor + 1
        excess[u] = e
    return float(excess[t]), np.array(flow)


def source_side(cap: np.ndarray, flow: np.ndarray, s: int) -> frozenset[int]:
    """Vertices reachable from s in the residual graph of a maximum flow."""
    n = cap.shape[0]
    residual = ((cap - flow) > RESIDUAL_EPS).tolist()
    seen = [False] * n
    seen[s] = True
    queue = deque([s])
    while queue:
        for v, open_arc in enumerate(residual[queue.popleft()]):
            if open_arc and not seen[v]:
                seen[v] = True
                queue.append(v)
    return frozenset(v for v in range(n) if seen[v])


def cut_value(weights: np.ndarray, side: Iterable[int]) -> float:
    """Capacity of the cut (side, complement) as a plain sum over weights."""
    n = weights.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[list(side)] = True
    return float(weights[np.ix_(inside, ~inside)].sum())


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
    # group index per vertex: source 0, the rest in ascending order, sink k-1
    label = np.zeros(n, dtype=int)
    rest = [v for v in range(n) if v not in src and v not in snk]
    k = len(rest) + 2
    label[rest] = np.arange(1, k - 1)
    label[list(snk)] = k - 1
    # An entry off the diagonal sums at most two weights, except source-sink,
    # an arc saturated from the start that never shapes the cut.
    cap = np.zeros((k, k))
    np.add.at(cap, (label[:, None], label[None, :]), weights)
    np.fill_diagonal(cap, 0.0)
    _, flow = push_relabel(cap, 0, k - 1)
    inside = np.zeros(k, dtype=bool)
    inside[list(source_side(cap, flow, 0))] = True
    side = frozenset(int(v) for v in np.flatnonzero(inside[label]))
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
        cutv, side = min_cut_merged(weights, [v], [p])
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


def odd_splits(weights: np.ndarray, tset) -> list[tuple[float, frozenset[int]]]:
    """(cut value, side) of every Gomory-Hu split of weights whose side holds
    an odd number of tset, in vertex order; the cheapest is a minimum T-odd
    cut (Padberg and Rao, Math. Oper. Res. 7, 1982)."""
    parent, value = gomory_hu_tree(weights)
    return [(value[v], side) for v, side in gomory_hu_splits(parent) if len(side & tset) % 2]
