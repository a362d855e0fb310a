"""Brute-force ground truth: subset-DP path TSP, exact prize-collecting paths,
exhaustive cut enumeration, exhaustive perfect-matching search.

Every routine carries a hard size cap and refuses larger inputs outright;
these are test oracles, not production paths.
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


@dataclass(frozen=True)
class ExactResult:
    optimum: float
    witness: tuple
    explored: int


def exact_path_tsp(inst: Instance) -> ExactResult:
    """Minimum-cost Hamiltonian s-t path by DP over (visited subset, last)."""
    n = inst.n
    if n > PATH_TSP_CAP:
        raise SizeLimitError(f"exact_path_tsp limit is n <= {PATH_TSP_CAP}, got {n}")
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
