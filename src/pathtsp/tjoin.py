"""Wrong-parity sets, minimum T-joins via perfect matching, Eulerian paths
and metric shortcutting.

In a complete metric graph a minimum T-join is realized directly by a
minimum-cost perfect matching on T: path unions never beat direct edges
under the triangle inequality. The matching is read off Edmonds's
perfect-matching LP (J. Res. NBS 69B, 1965), solved by the Held-Karp
row-generation loop with odd-set rows from `maxflow.odd_splits`; its value
is certified by the LP duals at every |T|.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .decompose import check_tree
from .errors import InvalidInstanceError, InvariantError
from .heldkarp import HK_TOL, cut_row, edge_point, row_generation
from .instances import Instance, all_edges, edge_key
from .maxflow import odd_splits


@dataclass(frozen=True)
class ParitySet:
    vertices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        if len(self.vertices) % 2:
            raise InvalidInstanceError(
                f"parity set must have even size, got {len(self.vertices)}"
            )

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(sorted(self.vertices))

    def __contains__(self, v):
        return v in self.vertices


@dataclass(frozen=True)
class JoinResult:
    edges: tuple[tuple[int, int], ...]
    cost: float


def tree_degrees(tree: Iterable[tuple[int, int]]) -> dict[int, int]:
    deg: dict[int, int] = defaultdict(int)
    for u, v in tree:
        deg[u] += 1
        deg[v] += 1
    return deg


def wrong_parity_set(tree: Iterable[tuple[int, int]], s: int, t: int) -> ParitySet:
    """Odd-degree internal vertices plus even-degree endpoints of the tree."""
    edges = list(tree)
    verts = check_tree(edges)
    if s not in verts or t not in verts:
        raise InvalidInstanceError("tree does not span the endpoints")
    deg = tree_degrees(edges)
    wrong = set()
    for v in verts:
        odd = deg[v] % 2 == 1
        if v in (s, t):
            if not odd:
                wrong.add(v)
        elif odd:
            wrong.add(v)
    return ParitySet(frozenset(wrong))


def min_weight_perfect_matching(
    points: Iterable[int], costs
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Minimum-cost perfect matching on `points` under a cost matrix.

    Edmonds's perfect-matching LP over the pairs of points: bounds [0, 1],
    x(delta(v)) = 1 at each point, and x(delta(S)) >= 1 on every odd S that
    a Gomory-Hu split finds violated. The polytope is integral, so the
    certified optimum is the matching; an entry more than 1e-6 from 0 or 1
    raises InvariantError. The objective is divided by the power of two
    nearest its largest |cost|, since the solver's tolerances are absolute.
    """
    pts = sorted(points)
    k = len(pts)
    if k % 2:
        raise InvalidInstanceError(f"cannot pair an odd set of {k} points")
    matrix = np.asarray(costs, dtype=float)
    if k <= 2:
        pairs = (tuple(pts),) if pts else ()
        return pairs, float(sum(matrix[u, v] for u, v in pairs))
    edges = all_edges(k)
    m = len(edges)
    objective = matrix[np.ix_(pts, pts)][np.triu_indices(k, 1)]  # in edges' order
    largest = float(np.abs(objective).max())
    if largest > 0:
        objective = np.ldexp(objective, -round(math.log2(largest)))
    degree = np.array([cut_row({v}, edges, m, 1.0)[0] for v in range(k)])

    def violated(z):
        splits = odd_splits(edge_point(edges, z).to_matrix(k), frozenset(range(k)))
        return [cut_row(side, edges, m, 1.0) for value, side in splits if value < 1.0 - HK_TOL]

    res, _ = row_generation(
        objective, [(0.0, 1.0)] * m, (degree, np.ones(k)), violated, 50 * k * k, "matching"
    )
    if np.abs(res.x - np.round(res.x)).max() > 1e-6:
        raise InvariantError("matching LP optimum is fractional")
    pairs = tuple((pts[i], pts[j]) for (i, j), v in zip(edges, res.x) if v > 0.5)
    if sorted(v for e in pairs for v in e) != pts:
        raise InvariantError("matching is not perfect")
    return pairs, float(sum(matrix[u, v] for u, v in pairs))


def min_tjoin(inst: Instance, T: ParitySet) -> JoinResult:
    """Minimum T-join of a complete metric instance (matching on T)."""
    if len(T) == 0:
        return JoinResult((), 0.0)
    pairs, total = min_weight_perfect_matching(T.vertices, inst.cost)
    deg = tree_degrees(pairs)
    odd = {v for v, d in deg.items() if d % 2 == 1}
    if odd != set(T.vertices):
        raise InvariantError("join parity does not match T")
    return JoinResult(pairs, total)


def eulerian_path(
    multigraph: Iterable[tuple[int, int]], s: int, t: int
) -> list[int]:
    """s-t Eulerian walk of an edge multiset (Hierholzer), as a vertex list.

    Requires the odd-degree vertex set to be exactly {s, t} (or empty with
    s == t), and all edges reachable from s.
    """
    edges = [edge_key(u, v) for u, v in multigraph]
    counts: dict[tuple[int, int], int] = Counter(edges)
    adj: dict[int, Counter] = defaultdict(Counter)
    deg: dict[int, int] = defaultdict(int)
    for (u, v), k in counts.items():
        adj[u][v] += k
        adj[v][u] += k
        deg[u] += k
        deg[v] += k
    odd = sorted(v for v, d in deg.items() if d % 2 == 1)
    if s == t:
        if odd:
            raise InvalidInstanceError(f"odd-degree vertices {odd} block a circuit")
    elif odd != sorted((s, t)):
        raise InvalidInstanceError(
            f"odd-degree vertices must be exactly {sorted((s, t))}, got {odd}"
        )
    support = {v for v, d in deg.items() if d > 0}
    if support:
        if s not in support:
            raise InvalidInstanceError(f"start vertex {s} is isolated")
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if adj[u][v] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        missing = sorted(support - seen)
        if missing:
            raise InvalidInstanceError(f"edges at {missing} unreachable from {s}")
    stack = [s]
    out: list[int] = []
    while stack:
        v = stack[-1]
        nxt = None
        for u in sorted(adj[v]):
            if adj[v][u] > 0:
                nxt = u
                break
        if nxt is None:
            out.append(stack.pop())
        else:
            adj[v][nxt] -= 1
            adj[nxt][v] -= 1
            stack.append(nxt)
    walk = out[::-1]
    if walk[0] != s or walk[-1] != t:
        raise InvariantError("walk endpoints are wrong despite valid parity")
    if len(walk) != len(edges) + 1:
        raise InvariantError("walk did not use every edge exactly once")
    return walk


def shortcut(walk: Sequence[int], inst: Instance) -> tuple[list[int], float]:
    """Compress a spanning s-t walk into a Hamiltonian path, first visit wins.

    Interior occurrences of t are skipped so the output still ends at t;
    every hop of the output spans a contiguous walk segment, so the cost can
    only go down under the triangle inequality.
    """
    s, t = inst.s, inst.t
    if walk[0] != s or walk[-1] != t:
        raise InvalidInstanceError("walk must run from s to t")
    missing = set(range(inst.n)) - set(walk)
    if missing:
        raise InvalidInstanceError(f"walk misses vertices {sorted(missing)}")
    order = [s]
    seen = {s, t}
    for v in walk[1:]:
        if v not in seen:
            seen.add(v)
            order.append(v)
    order.append(t)
    return order, inst.path_cost(order)
