"""Best-of-many pipeline and the single-tree baseline.

solve_bom: Held-Karp optimum -> convex tree decomposition -> for every tree,
augment by a minimum wrong-parity T-join, extract an s-t Eulerian walk and
shortcut it -- keep the cheapest resulting path. The derandomized guarantee
is golden ratio times the LP value; the weighted average over the
decomposition already satisfies it, and the minimum can only be better.

solve_hoogeveen: the same augment-and-pick loop on the minimum spanning tree
alone, with weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decompose import TreeCombination, decompose, max_weight_spanning_tree
from .heldkarp import HKSolution, hk_solve
from .instances import EdgeVector, Instance, all_edges, require_metric
from .tjoin import eulerian_path, min_tjoin, shortcut, wrong_parity_set

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
RATIO_SLACK = 1e-6


@dataclass(frozen=True)
class PathSolution:
    order: tuple[int, ...]
    cost: float
    per_tree: tuple[tuple[int, float, float, float], ...]  # (idx, tree, join, path)
    chosen_tree: int
    hk_value: float
    lambdas: tuple[float, ...]

    def __post_init__(self):
        if len(self.lambdas) != len(self.per_tree):
            raise ValueError(f"{len(self.lambdas)} lambdas but {len(self.per_tree)} trees")

    @property
    def weighted_average(self) -> float:
        """Sum over trees of lambda * (tree cost + join cost)."""
        return float(
            sum(l * (tc + jc) for l, (_, tc, jc, _) in zip(self.lambdas, self.per_tree))
        )

    @property
    def guarantee(self) -> float:
        """Certified upper bound on the output cost."""
        return GOLDEN_RATIO * self.hk_value * (1.0 + RATIO_SLACK)

    def to_dict(self) -> dict:
        return {"order": list(self.order), "cost": self.cost}


def augment_tree(inst: Instance, tree) -> tuple[list[int], float, float]:
    """Join the wrong-parity set, walk Euler, shortcut. Returns
    (path order, join cost, path cost)."""
    T = wrong_parity_set(tree, inst.s, inst.t)
    join = min_tjoin(inst, T)
    walk = eulerian_path(list(tree) + list(join.edges), inst.s, inst.t)
    order, cost = shortcut(walk, inst)
    return order, join.cost, cost


def solve_bom(
    inst: Instance,
    hk: HKSolution | None = None,
    combo: TreeCombination | None = None,
) -> PathSolution:
    """Derandomized best-of-many pipeline. Precomputed LP/decomposition
    artifacts can be passed in to avoid recomputation."""
    require_metric(inst)
    hk = hk or hk_solve(inst)
    combo = combo or decompose(hk)
    return _best_augmented(inst, combo.trees, combo.lambdas, hk.value)


def minimum_spanning_tree(inst: Instance) -> frozenset[tuple[int, int]]:
    weights = EdgeVector({e: -inst.cost[e[0], e[1]] for e in all_edges(inst.n)})
    return max_weight_spanning_tree(inst.n, weights)


def solve_hoogeveen(inst: Instance, hk: HKSolution | None = None) -> PathSolution:
    """Single-tree baseline: augment the minimum spanning tree."""
    require_metric(inst)
    hk = hk or hk_solve(inst)
    return _best_augmented(inst, (minimum_spanning_tree(inst),), (1.0,), hk.value)


def _best_augmented(inst: Instance, trees, lambdas, hk_value: float) -> PathSolution:
    """Augment every tree and keep the cheapest path; the first tree wins
    ties."""
    per_tree = []
    best_idx, best_cost, best_order = -1, math.inf, None
    for i, tree in enumerate(trees):
        tree_cost = float(sum(inst.cost[u, v] for u, v in tree))
        order, join_cost, path_cost = augment_tree(inst, tree)
        per_tree.append((i, tree_cost, join_cost, path_cost))
        if path_cost < best_cost - 1e-15:
            best_idx, best_cost, best_order = i, path_cost, order
    return PathSolution(
        tuple(best_order),
        best_cost,
        tuple(per_tree),
        best_idx,
        hk_value,
        tuple(lambdas),
    )


@dataclass(frozen=True)
class BaselineBounds:
    mst_cost: float
    join_cost: float
    jprime_cost: float
    bound_tree: float  # c(x*)
    bound_j2: float  # (c(x*) + c(s,t)) / 2
    bound_j3: float  # c(x*) - c(s,t)
    holds_tree: bool
    holds_j2: bool
    holds_j3: bool

    @property
    def all_hold(self) -> bool:
        return self.holds_tree and self.holds_j2 and self.holds_j3


def baseline_bounds_check(inst: Instance, hk: HKSolution) -> BaselineBounds:
    """Tree and join inequalities behind the 5/3 LP-based baseline analysis.

    The minimum spanning tree costs no more than the LP optimum; the
    wrong-parity join is bounded both by half of (LP value + c(s,t)) and,
    through the explicit tree-minus-tree-path witness, by LP value - c(s,t).
    """
    slack = RATIO_SLACK * max(1.0, hk.value)
    cst = inst.c(inst.s, inst.t)
    mst = minimum_spanning_tree(inst)
    mst_cost = float(sum(inst.cost[u, v] for u, v in mst))
    T = wrong_parity_set(mst, inst.s, inst.t)
    join = min_tjoin(inst, T)
    jprime = _tree_minus_st_path(mst, inst.s, inst.t)
    jprime_cost = float(sum(inst.cost[u, v] for u, v in jprime))
    bound_tree = hk.value
    bound_j2 = 0.5 * (hk.value + cst)
    bound_j3 = hk.value - cst
    return BaselineBounds(
        mst_cost,
        join.cost,
        jprime_cost,
        bound_tree,
        bound_j2,
        bound_j3,
        mst_cost <= bound_tree + slack,
        join.cost <= bound_j2 + slack,
        join.cost <= min(bound_j3, jprime_cost) + slack,
    )


def _tree_minus_st_path(tree, s: int, t: int) -> list[tuple[int, int]]:
    """Edges of the tree not on its unique s-t path (a valid T-join)."""
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {s: None}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    on_path = set()
    v = t
    while parent[v] is not None:
        on_path.add((min(v, parent[v]), max(v, parent[v])))
        v = parent[v]
    return [e for e in tree if e not in on_path]
