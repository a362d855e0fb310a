"""Path-variant Held-Karp relaxation solved by row generation.

The LP keeps the degree equalities (1 at each endpoint, 2 elsewhere) and
grows cut rows lazily: s-t separating cuts must carry capacity at least 1,
all other cuts at least 2. Separation runs min-cut probes under the current
fractional solution -- one s-t probe plus, with s and t merged into a
super-node, one probe per internal vertex.

`row_generation`, `degree_rows`, `cut_row` and `probe_cuts` are the one
engine behind both this relaxation and the prize-collecting LP in
`prize.py`, which adds an inclusion column y_v per internal vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InvariantError, IterationLimitError
from .instances import EdgeVector, Instance, all_edges, edge_key
from .maxflow import min_cut_merged
from .simplex import LinearProgram, Row, SimplexResult, simplex_solve

HK_TOL = 1e-7


@dataclass(frozen=True)
class CutQuery:
    vertices: frozenset[int]
    capacity: float
    kind: str  # "st" | "nonseparating"

    @property
    def required(self) -> float:
        return 1.0 if self.kind == "st" else 2.0

    @property
    def violation(self) -> float:
        return self.required - self.capacity


@dataclass(frozen=True)
class HKSolution:
    x: EdgeVector
    value: float
    iterations: int
    n: int
    s: int
    t: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "x": self.x.to_pairs(),
            "iterations": self.iterations,
        }


def row_generation(
    objective, bounds, base_rows: list[Row],
    violated: Callable[[tuple[float, ...]], list[Row]], cap_rounds: int, what: str,
) -> tuple[SimplexResult, int]:
    """Minimize objective over base_rows plus rows generated on demand.

    Each round solves the LP and asks ``violated(z)`` for the rows its
    optimum z breaks, as hashable tuples like `cut_row` builds; those not
    added in an earlier round are appended.
    Returns the optimal result and the round count once nothing is violated.
    A round whose violated rows are all in the LP already means the LP and
    the separation disagree, and raises instead of returning z.
    """
    rows = list(base_rows)
    added: set[Row] = set()
    res = None
    for rounds in range(1, cap_rounds + 1):
        res = simplex_solve(LinearProgram(objective, tuple(rows), bounds))
        if res.status != "optimal":
            raise InvariantError(f"{what} LP came back {res.status}")
        cuts = violated(res.x)
        if not cuts:
            return res, rounds
        new = [row for row in cuts if row not in added]
        if not new:
            raise InvariantError(f"{what} separation found only cuts already in the LP")
        added.update(new)
        rows.extend(new)
    raise IterationLimitError(
        f"{what} separation did not converge within {cap_rounds} rounds", best=res
    )


def degree_rows(inst: Instance, edges, width: int, ycol: dict[int, int] | None = None):
    """x(delta(v)) = 1 at s and t and 2 elsewhere; with ycol, internal v
    instead gets x(delta(v)) - 2*y_v = 0 with y_v in column ycol[v]."""
    n, s, t = inst.n, inst.s, inst.t
    index = {e: i for i, e in enumerate(edges)}
    rows = []
    for v in range(n):
        coeffs = [0.0] * width
        for u in range(n):
            if u != v:
                coeffs[index[edge_key(u, v)]] = 1.0
        if v in (s, t):
            rows.append((tuple(coeffs), "=", 1.0))
        elif ycol is None:
            rows.append((tuple(coeffs), "=", 2.0))
        else:
            coeffs[ycol[v]] = -2.0
            rows.append((tuple(coeffs), "=", 0.0))
    return rows


def cut_row(side: frozenset[int], edges, width: int, rhs: float, ycol: int | None = None):
    """x(delta(side)) >= rhs; with ycol, x(delta(side)) - 2*y_v >= rhs."""
    coeffs = [0.0] * width
    for i, (u, v) in enumerate(edges):
        if (u in side) != (v in side):
            coeffs[i] = 1.0
    if ycol is not None:
        coeffs[ycol] = -2.0
    return (tuple(coeffs), ">=", rhs)


def edge_point(edges, z) -> EdgeVector:
    """The edge part of an LP point, dropping entries at or below 1e-12."""
    return EdgeVector({e: v for e, v in zip(edges, z) if v > 1e-12})


def probe_cuts(x: EdgeVector, inst: Instance, vertices: Iterable[int]):
    """Separation probes under x, yielded as (v, capacity, source side).

    First the min s-t cut (v is None, the side holds s), then for each v in
    vertices the min cut between v and the merged pair {s, t}.
    """
    weights = np.maximum(x.to_matrix(inst.n), 0.0)
    s, t = inst.s, inst.t
    yield (None, *min_cut_merged(weights, [s], [t]))
    for v in vertices:
        yield (v, *min_cut_merged(weights, [v], [s, t]))


def _cut_queries(x: EdgeVector, inst: Instance) -> list[CutQuery]:
    """All Held-Karp separation probes for x, one CutQuery each."""
    return [
        CutQuery(side, cap, "st" if v is None else "nonseparating")
        for v, cap, side in probe_cuts(x, inst, inst.internal)
    ]


def separate(x: EdgeVector, inst: Instance, tol: float = HK_TOL) -> CutQuery | None:
    """Most-violated cut constraint, or None if x is cut-feasible.

    Ties on violation break toward the lexicographically smallest sorted
    vertex set, making the answer deterministic.
    """
    violated = [q for q in _cut_queries(x, inst) if q.violation > tol]
    if not violated:
        return None
    return min(violated, key=lambda q: (-q.violation, sorted(q.vertices)))


def hk_solve(inst: Instance, tol: float = HK_TOL) -> HKSolution:
    """Optimal solution of the path-variant Held-Karp relaxation."""
    n, s, t = inst.n, inst.s, inst.t
    if n == 2:
        x = EdgeVector({(min(s, t), max(s, t)): 1.0})
        return HKSolution(x, inst.c(s, t), 0, n, s, t)
    edges = all_edges(n)
    m = len(edges)

    def violated(z):
        return [
            cut_row(q.vertices, edges, m, q.required)
            for q in _cut_queries(edge_point(edges, z), inst)
            if q.violation > tol
        ]

    res, rounds = row_generation(
        [inst.cost[u, v] for u, v in edges],
        [(0.0, 2.0)] * m,
        degree_rows(inst, edges, m),
        violated,
        50 * n * n,
        "Held-Karp",
    )
    return HKSolution(edge_point(edges, res.x), res.objective, rounds, n, s, t)


@dataclass(frozen=True)
class HKReport:
    degree_violations: tuple[tuple[int, float, float], ...]  # (vertex, value, required)
    cut_violations: tuple[tuple[frozenset[int], float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.degree_violations and not self.cut_violations


def hk_verify(x: EdgeVector, inst: Instance, tol: float = HK_TOL) -> HKReport:
    """Check degree equalities and cut constraints against x.

    Cuts are enumerated exhaustively for n <= 16; beyond that the flow-based
    separation provides the (single) most-violated witness.
    """
    from .exact import CUT_ENUM_CAP, enumerate_cut_check

    n, s, t = inst.n, inst.s, inst.t
    degree = np.zeros(n)
    for (u, v), w in x.values.items():
        degree[u] += w
        degree[v] += w
    deg_bad = []
    for v in range(n):
        want = 1.0 if v in (s, t) else 2.0
        if abs(degree[v] - want) > tol:
            deg_bad.append((v, float(degree[v]), want))
    if n <= CUT_ENUM_CAP:
        cut_bad = enumerate_cut_check(x, inst, ("hk",), tol=tol)
    else:
        worst = separate(x, inst, tol)
        cut_bad = [] if worst is None else [
            (worst.vertices, worst.capacity, worst.required)
        ]
    return HKReport(tuple(deg_bad), tuple(cut_bad))
