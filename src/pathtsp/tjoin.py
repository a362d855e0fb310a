"""Wrong-parity sets, minimum T-joins via blossom matching, Eulerian paths
and metric shortcutting.

In a complete metric graph a minimum T-join is realized directly by a
minimum-cost perfect matching on T: path unions never beat direct edges
under the triangle inequality. Matchings at desk scale (|T| <= 10) are
certified against an exhaustive pairing scan at construction time.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx
import numpy as np

from .decompose import _DisjointSet
from .errors import InvalidInstanceError, InvariantError
from .exact import brute_force_matching
from .instances import Instance, edge_key

CERTIFY_LIMIT = 10


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


def _check_tree(tree: Sequence[tuple[int, int]]):
    edges = [edge_key(u, v) for u, v in tree]
    if len(set(edges)) != len(edges):
        raise InvalidInstanceError("duplicate edges; not a tree")
    verts = {v for e in edges for v in e}
    if len(edges) != len(verts) - 1:
        raise InvalidInstanceError("edge count is not |V|-1; not a tree")
    label = {v: i for i, v in enumerate(verts)}
    ds = _DisjointSet(len(verts))
    for u, v in edges:
        if not ds.union(label[u], label[v]):
            raise InvalidInstanceError("cycle detected; not a tree")
    return edges, verts


def wrong_parity_set(tree: Iterable[tuple[int, int]], s: int, t: int) -> ParitySet:
    """Odd-degree internal vertices plus even-degree endpoints of the tree."""
    edges, verts = _check_tree(list(tree))
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

    Backed by the blossom algorithm; for point sets of size <= 10 the result
    is certified against the exhaustive pairing minimum.
    """
    pts = sorted(points)
    if len(pts) % 2:
        raise InvalidInstanceError(f"cannot pair an odd set of {len(pts)} points")
    if not pts:
        return (), 0.0
    matrix = np.asarray(costs, dtype=float)
    cost = lambda u, v: float(matrix[u, v])  # noqa: E731
    graph = nx.Graph()
    graph.add_nodes_from(pts)
    for i, u in enumerate(pts):
        for v in pts[i + 1 :]:
            graph.add_edge(u, v, weight=cost(u, v))
    raw = nx.min_weight_matching(graph)
    pairs = tuple(sorted(edge_key(u, v) for u, v in raw))
    if 2 * len(pairs) != len(pts):
        raise InvariantError("matching is not perfect")
    total = float(sum(cost(u, v) for u, v in pairs))
    if len(pts) <= CERTIFY_LIMIT:
        _, brute = brute_force_matching(pts, cost)
        if total > brute + 1e-9 * max(1.0, abs(brute)):
            raise InvariantError(
                f"matching cost {total} exceeds exhaustive minimum {brute}"
            )
    return pairs, total


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
