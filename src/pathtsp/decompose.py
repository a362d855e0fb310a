"""Convex-combination decomposition of a Held-Karp point into spanning trees.

A feasible point of the path relaxation lies in the spanning tree polytope,
so it can be written as sum(lambda_i * chi(T_i)). The construction here is
column generation: a master LP minimizes the L1 slack of matching the target
marginals over a growing tree pool, and the pricing step asks for the
maximum-weight spanning tree under the master's edge duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError, InvariantError, IterationLimitError, NotConnectedError
from .heldkarp import HKSolution
from .instances import EdgeVector, edge_key
from .simplex import LinearProgram, simplex_solve

SUPPORT_EPS = 1e-9
LAMBDA_PRUNE = 1e-9
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class TreeCombination:
    trees: tuple[frozenset[tuple[int, int]], ...]
    lambdas: tuple[float, ...]
    residual: float

    def __post_init__(self):
        if len(self.trees) != len(self.lambdas):
            raise ValueError(f"{len(self.trees)} trees but {len(self.lambdas)} lambdas")

    def to_dict(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "trees": [sorted([u, v] for u, v in t) for t in self.trees],
            "residual": self.residual,
        }


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def max_weight_spanning_tree(n: int, weights: EdgeVector) -> frozenset[tuple[int, int]]:
    """Greedy maximum-weight spanning tree over the edges keyed in `weights`
    (entries may be negative, e.g. LP duals), ties broken by canonical edge
    order."""
    candidates = sorted(weights.values.items())
    candidates.sort(key=lambda ew: (-ew[1], ew[0]))
    ds = _DisjointSet(n)
    tree = []
    for e, _ in candidates:
        if ds.union(*e):
            tree.append(e)
            if len(tree) == n - 1:
                break
    if len(tree) != n - 1:
        raise NotConnectedError("candidate edge set does not span all vertices")
    return frozenset(tree)


def check_tree(tree) -> set[int]:
    """The vertices of an edge list that forms a tree on them; raises
    InvalidInstanceError on a duplicate edge, a wrong edge count or a cycle."""
    edges = [edge_key(u, v) for u, v in tree]
    if len(set(edges)) != len(edges):
        raise InvalidInstanceError("duplicate edges; not a tree")
    verts = {v for e in edges for v in e}
    if len(edges) != len(verts) - 1:
        raise InvalidInstanceError("edge count is not |V|-1; not a tree")
    label = {v: i for i, v in enumerate(verts)}
    ds = _DisjointSet(len(verts))
    if not all(ds.union(label[u], label[v]) for u, v in edges):
        raise InvalidInstanceError("cycle detected; not a tree")
    return verts


def decompose(xstar: HKSolution) -> TreeCombination:
    """Express the Held-Karp point x* as a convex combination of spanning
    trees of its support.

    Raises when the achieved max-norm residual exceeds RESIDUAL_TOL, which
    signals that x* is outside the spanning tree polytope, i.e. an upstream
    bug.
    """
    x, n = xstar.x, xstar.n
    support = x.support(SUPPORT_EPS)
    target = {e: x.values[e] for e in support}
    m = len(support)
    trees: list[frozenset] = [max_weight_spanning_tree(n, EdgeVector(target))]
    idx = {e: i for i, e in enumerate(support)}
    # master rows: one per support edge (tree marginal + sigma+ - sigma- =
    # target), then sum(lambda) = 1; columns are the trees, sigma+, sigma-
    slack_cols = np.vstack([np.hstack([np.eye(m), -np.eye(m)]), np.zeros((1, 2 * m))])
    rhs = np.array(list(target.values()) + [1.0])
    cap_rounds = max(20 * m, 20)
    lambdas: list[float] = [1.0]
    slack = float("inf")
    for _ in range(cap_rounds):
        k = len(trees)
        tree_cols = np.ones((m + 1, k))
        tree_cols[:m] = [[e in tree for tree in trees] for e in support]
        lp = LinearProgram(
            np.concatenate([np.zeros(k), np.ones(2 * m)]),
            np.hstack([tree_cols, slack_cols]),
            rhs,
            m + 1,
            ((0.0, None),) * (k + 2 * m),
        )
        res = simplex_solve(lp)
        if res.status != "optimal":
            raise InvariantError(f"decomposition master LP came back {res.status}")
        lambdas = res.x[:k].tolist()
        slack = res.objective
        duals = res.row_duals
        edge_duals = EdgeVector({e: duals[i] for e, i in idx.items()})
        mu = duals[m]
        priced = max_weight_spanning_tree(n, edge_duals)
        priced_weight = sum(edge_duals.get(*e) for e in priced)
        if slack <= 1e-10 or priced_weight + mu <= 1e-9 or priced in trees:
            break
        trees.append(priced)
    else:
        raise IterationLimitError(
            f"decomposition stalled with L1 slack {slack:.3g} after {cap_rounds} rounds"
        )

    kept = [(t, l) for t, l in zip(trees, lambdas) if l > LAMBDA_PRUNE]
    total = sum(l for _, l in kept)
    if total <= 0:
        raise InvariantError("decomposition lost all tree mass")
    kept = [(t, l / total) for t, l in kept]
    residual = _max_residual(kept, x)
    if residual > RESIDUAL_TOL:
        raise IterationLimitError(
            f"decomposition residual {residual:.3g} exceeds tolerance {RESIDUAL_TOL:.3g}"
        )
    return TreeCombination(
        trees=tuple(t for t, _ in kept),
        lambdas=tuple(l for _, l in kept),
        residual=residual,
    )


def _max_residual(weighted_trees, x: EdgeVector) -> float:
    """Max-norm distance from x to sum(lambda * chi(T)) over the (tree,
    lambda) pairs, added in order."""
    combined = EdgeVector()
    for tree, lam in weighted_trees:
        combined = combined.add(EdgeVector.from_edges(tree), lam)
    keys = set(combined.values) | set(x.values)
    return max(
        (abs(combined.values.get(e, 0.0) - x.values.get(e, 0.0)) for e in keys),
        default=0.0,
    )


def verify_combination(xstar: HKSolution, combo: TreeCombination):
    """Check every TreeCombination invariant against the Held-Karp point x*,
    deviations to within RESIDUAL_TOL; returns (ok, max deviation)."""
    x, n = xstar.x, xstar.n
    ok = True
    support = set(x.support(SUPPORT_EPS / 2))
    for tree in combo.trees:
        try:
            spanning = len(check_tree(tree)) == n
        except InvalidInstanceError:
            spanning = False
        if not spanning or any(e not in support for e in tree):
            ok = False
    if abs(sum(combo.lambdas) - 1.0) > 1e-9 or any(l < 0 for l in combo.lambdas):
        ok = False
    if len(combo.trees) > len(support) + 1:
        ok = False
    deviation = _max_residual(zip(combo.trees, combo.lambdas), x)
    if deviation > RESIDUAL_TOL:
        ok = False
    return ok, deviation
