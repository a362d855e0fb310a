"""Exact solvers: one Held-Karp subset DP behind the path-TSP and
prize-collecting oracles, exhaustive cut enumeration and matching search.

Every routine has a hard size cap and refuses larger inputs. They are the
tests' ground truth and also run in production: `pd_oracle` (the default
oracle of `pc_solve`) calls `exact_pc_path`, `solve_graphical` answers
n <= 6 with `exact_path_tsp`, cut verification enumerates up to
CUT_ENUM_CAP and `min_tjoin` checks small matchings exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import SizeLimitError
from .instances import EdgeVector, Instance

PATH_TSP_CAP = 20
PC_PATH_CAP = 15
CUT_ENUM_CAP = 16
# Masks per block when the subset DP extends a popcount layer: the block's
# (masks, k, k) float array stays under 0.2 MB at PATH_TSP_CAP, so it stays
# in cache and the DP's peak memory is about that of its dp array.
_DP_BLOCK = 64


@dataclass(frozen=True)
class ExactResult:
    optimum: float
    witness: tuple
    explored: int


def _mask_sums(values: np.ndarray) -> np.ndarray:
    """out[mask] = sum of values[j] over the bits j of mask, added in
    increasing j (so out is the popcount for a vector of ones)."""
    out = np.zeros(1 << len(values), dtype=values.dtype)
    for j, v in enumerate(values):
        out[1 << j : 2 << j] = out[: 1 << j] + v
    return out


def _subset_dp(start: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Held-Karp subset DP over the k vertices indexing `cost`.

    dp[mask, j] is the cheapest path that begins at some i for start[i],
    visits exactly the vertices of mask and ends at j; parent[mask, j] is
    the vertex before j (the first argmin), or -1 where the path begins at
    j or (mask, j) is unreachable. The only predecessor of (mask, j) is
    mask ^ (1 << j), so each popcount layer is extended as a whole, in
    blocks of _DP_BLOCK masks, and every state is written once.
    """
    k = len(start)
    verts = np.arange(k)
    bits = 1 << verts
    dp = np.full((1 << k, k), np.inf)
    parent = np.full((1 << k, k), -1, dtype=np.int8)
    dp[bits, verts] = start
    popcount = _mask_sums(np.ones(k, dtype=np.int8))
    for layer in range(1, k):
        masks = np.flatnonzero(popcount == layer)
        for lo in range(0, len(masks), _DP_BLOCK):
            block = masks[lo : lo + _DP_BLOCK]
            rows = dp[block]
            ext = rows[:, :, None] + cost  # ext[m, i, j]: reach j from last i
            best = ext.min(axis=1)
            arg = ext.argmin(axis=1)
            # a mask whose row has no finite entry (only +-inf) extends nothing
            reach = (best < np.inf) & np.isfinite(rows).any(axis=1)[:, None]
            m, j = np.nonzero(reach & ((block[:, None] & bits) == 0))
            target = block[m] | bits[j]
            dp[target, j] = best[m, j]
            parent[target, j] = arg[m, j]
    return dp, parent


def _walk_back(parent: np.ndarray, mask: int, j: int) -> list[int]:
    """Vertex indices of the DP path ending in state (mask, j), in order."""
    order = []
    while j >= 0:
        order.append(j)
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    order.reverse()
    return order


def exact_path_tsp(inst: Instance) -> ExactResult:
    """Minimum-cost Hamiltonian s-t path by DP over (visited subset, last)."""
    n = inst.n
    if n > PATH_TSP_CAP:
        raise SizeLimitError(f"exact_path_tsp limit is n <= {PATH_TSP_CAP}, got {n}")
    s, t = inst.s, inst.t
    if n == 2:
        return ExactResult(inst.c(s, t), (s, t), 1)
    inner = [v for v in range(n) if v != t]  # t is appended last
    start = np.where(np.array(inner) == s, 0.0, np.inf)
    dp, parent = _subset_dp(start, inst.cost[np.ix_(inner, inner)])
    last_costs = dp[-1] + inst.cost[inner, t]
    j = int(last_costs.argmin())
    order = [inner[i] for i in _walk_back(parent, len(dp) - 1, j)]
    explored = int(np.isfinite(dp).sum())
    return ExactResult(float(last_costs[j]), (*order, t), explored)


def exact_pc_path(pc) -> ExactResult:
    """Exact prize-collecting s-t path: best subset of internal vertices
    to visit, evaluated through one DP over (visited internals, last)."""
    inst = pc.inst
    n = inst.n
    if n > PC_PATH_CAP:
        raise SizeLimitError(f"exact_pc_path limit is n <= {PC_PATH_CAP}, got {n}")
    s, t = inst.s, inst.t
    prizes = np.asarray(pc.prizes, dtype=float)
    total_prize = float(prizes.sum())
    best_obj = inst.c(s, t) + total_prize
    internal = inst.internal
    if not internal:
        return ExactResult(best_obj, (s, t), 1)
    dp, parent = _subset_dp(inst.cost[s, internal], inst.cost[np.ix_(internal, internal)])
    explored = int(np.isfinite(dp).sum()) + 1
    live = np.flatnonzero(np.isfinite(dp).any(axis=1))
    ends = np.add(dp, inst.cost[internal, t], out=dp)  # in place: dp is not read again
    last = ends.argmin(axis=1)[live]
    objs = (ends[live, last] + total_prize) - _mask_sums(prizes[internal])[live]
    # scan the masks with a finite path in ascending order: the earliest best
    # objective wins, a later one only when better by more than 1e-15 (so
    # only objectives below the direct edge's can win)
    best = -1
    for i in np.flatnonzero(objs < best_obj - 1e-15).tolist():
        if objs[i] < best_obj - 1e-15:
            best_obj, best = float(objs[i]), i
    path = [] if best < 0 else _walk_back(parent, int(live[best]), int(last[best]))
    return ExactResult(float(best_obj), (s, *(internal[j] for j in path), t), explored)


@lru_cache(maxsize=32)
def _half_subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All nonempty S avoiding vertex n-1 (each unordered cut listed once):
    (masks, boolean membership matrix of shape (2^(n-1)-1, n))."""
    masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
    memb = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    return masks, memb


def all_cut_capacities(weights: EdgeVector | np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Capacity of every cut of K_n under `weights`.

    Returns (membership matrix, capacities); row i describes subset S_i.
    """
    if isinstance(weights, EdgeVector):
        mat = weights.to_matrix(n)
    else:
        mat = np.asarray(weights, dtype=float)
    _, memb = _half_subsets(n)
    us, vs = np.triu_indices(n, k=1)
    w = mat[us, vs]
    crossing = memb[:, us] != memb[:, vs]
    return memb, crossing @ w


def enumerate_cut_check(
    vector: EdgeVector,
    inst: Instance,
    family,
    tol: float = 1e-7,
) -> list[tuple[frozenset[int], float, float]]:
    """Exhaustive cut scan; ground truth for the flow-based routines.

    family is ("hk",), ("tjoin", T) or ("narrow", tau). For hk/tjoin the
    result lists violations (set, capacity, required bound); for narrow it
    lists the tau-narrow s-t cuts themselves as (U with s inside, capacity,
    1+tau), sorted by |U|.
    """
    n = inst.n
    if n > CUT_ENUM_CAP:
        raise SizeLimitError(f"enumerate_cut_check limit is n <= {CUT_ENUM_CAP}, got {n}")
    memb, caps = all_cut_capacities(vector, n)
    s, t = inst.s, inst.t
    separating = memb[:, s] != memb[:, t]
    kind = family[0]
    out: list[tuple[frozenset[int], float, float]] = []
    if kind == "hk":
        required = np.where(separating, 1.0, 2.0)
        bad = caps < required - tol
        for i in np.flatnonzero(bad):
            out.append((_row_set(memb, i), float(caps[i]), float(required[i])))
    elif kind == "tjoin":
        tset = sorted(family[1])
        if not tset:
            return []
        parity = memb[:, tset].sum(axis=1) % 2 == 1
        bad = parity & (caps < 1.0 - tol)
        for i in np.flatnonzero(bad):
            out.append((_row_set(memb, i), float(caps[i]), 1.0))
    elif kind == "narrow":
        tau = float(family[1])
        narrow = separating & (caps < 1.0 + tau)
        rows = []
        for i in np.flatnonzero(narrow):
            side = _row_set(memb, i)
            if s not in side:
                side = frozenset(range(n)) - side
            rows.append((side, float(caps[i]), 1.0 + tau))
        rows.sort(key=lambda r: (len(r[0]), sorted(r[0])))
        out = rows
    else:
        raise ValueError(f"unknown cut family {kind!r}")
    return out


def _row_set(memb: np.ndarray, i: int) -> frozenset[int]:
    return frozenset(int(v) for v in np.flatnonzero(memb[i]))


def brute_force_matching(
    points: Sequence[int], cost: Callable[[int, int], float]
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Exhaustive minimum-cost perfect pairing ((|P|-1)!! candidates)."""
    pts = sorted(points)
    if len(pts) % 2:
        raise ValueError(f"odd point count {len(pts)}")
    if len(pts) > 12:
        raise SizeLimitError("brute_force_matching limit is 12 points")
    best_cost = np.inf
    best: tuple = ()

    def rec(rest: tuple[int, ...], acc: list, total: float):
        nonlocal best_cost, best
        if not rest:
            if total < best_cost:
                best_cost = total
                best = tuple(acc)
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            c = total + cost(a, b)
            if c >= best_cost:
                continue
            rec(rest[1:i] + rest[i + 1 :], acc + [(a, b)], c)

    rec(tuple(pts), [], 0.0)
    return best, float(best_cost)
