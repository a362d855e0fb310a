"""Path-variant Held-Karp relaxation solved by row generation.

The LP keeps the degree equalities (1 at each endpoint, 2 elsewhere) and
grows cut rows lazily: s-t separating cuts must carry capacity at least 1,
all other cuts at least 2. Separation runs min-cut probes under the current
fractional solution -- one s-t probe plus, with s and t merged into a
super-node, one probe per internal vertex.

`row_generation`, `degree_rows`, `cut_row` and `probe_cuts` are the one
engine behind both this relaxation and the prize-collecting LP in
`prize.py`, which adds an inclusion column y_v per internal vertex. Rows are
NumPy arrays: `degree_rows` gives the equality block as one matrix, each
`cut_row` one `>=` row, and `row_generation` stacks new cut rows under the
matrix it hands to `simplex_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InvariantError, IterationLimitError
from .instances import EdgeVector, Instance, all_edges
from .maxflow import min_cut_merged
from .simplex import LinearProgram, SimplexResult, simplex_solve

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
    objective, bounds, base_rows, violated: Callable[[np.ndarray], list], cap_rounds: int,
    what: str,
) -> tuple[SimplexResult, int]:
    """Minimize objective over the equalities base_rows = (matrix, rhs) plus
    >= rows generated on demand.

    Each round solves the LP and asks ``violated(z)`` for the rows its
    optimum z breaks, as (row, rhs) pairs like `cut_row` builds; those not
    added in an earlier round are appended to the matrix.
    Returns the optimal result and the round count once nothing is violated.
    A round whose violated rows are all in the LP already means the LP and
    the separation disagree, and raises instead of returning z.
    """
    rows, rhs = base_rows
    n_eq = len(rows)
    added: set[tuple[bytes, float]] = set()
    res = None
    for rounds in range(1, cap_rounds + 1):
        res = simplex_solve(LinearProgram(objective, rows, rhs, n_eq, bounds))
        if res.status != "optimal":
            raise InvariantError(f"{what} LP came back {res.status}")
        cuts = violated(res.x)
        if not cuts:
            return res, rounds
        new = [(row, b) for row, b in cuts if (row.tobytes(), b) not in added]
        if not new:
            raise InvariantError(f"{what} separation found only cuts already in the LP")
        added.update((row.tobytes(), b) for row, b in new)
        rows = np.vstack([rows] + [row for row, _ in new])
        rhs = np.append(rhs, [b for _, b in new])
    raise IterationLimitError(
        f"{what} separation did not converge within {cap_rounds} rounds", best=res
    )


def degree_rows(inst: Instance, edges, width: int, ycol: dict[int, int] | None = None):
    """(matrix, rhs) of x(delta(v)) = 1 at s and t and 2 elsewhere, one row
    per vertex; with ycol, internal v instead gets x(delta(v)) - 2*y_v = 0
    with y_v in column ycol[v]."""
    ends = np.asarray(edges)
    matrix = np.zeros((inst.n, width))
    cols = np.arange(len(ends))
    matrix[ends[:, 0], cols] = 1.0
    matrix[ends[:, 1], cols] = 1.0
    rhs = np.full(inst.n, 2.0)
    rhs[[inst.s, inst.t]] = 1.0
    if ycol is not None:
        internal = list(ycol)
        matrix[internal, list(ycol.values())] = -2.0
        rhs[internal] = 0.0
    return matrix, rhs


def cut_row(side: frozenset[int], edges, width: int, rhs: float, ycol: int | None = None):
    """(row, rhs) of x(delta(side)) >= rhs; with ycol, x(delta(side)) - 2*y_v >= rhs."""
    inside = np.isin(np.asarray(edges), list(side))
    row = np.zeros(width)
    row[: len(inside)] = inside[:, 0] != inside[:, 1]
    if ycol is not None:
        row[ycol] = -2.0
    return row, float(rhs)


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


def separate(x: EdgeVector, inst: Instance, tol: float = HK_TOL) -> CutQuery | None:
    """Most-violated cut constraint, or None if x is cut-feasible.

    Ties on violation break toward the lexicographically smallest sorted
    vertex set, making the answer deterministic.
    """
    queries = (
        CutQuery(side, cap, "st" if v is None else "nonseparating")
        for v, cap, side in probe_cuts(x, inst, inst.internal)
    )
    violated = [q for q in queries if q.violation > tol]
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
        rows = []
        for v, cap, side in probe_cuts(edge_point(edges, z), inst, inst.internal):
            required = 1.0 if v is None else 2.0
            if required - cap > tol:
                rows.append(cut_row(side, edges, m, required))
        return rows

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

    n = inst.n
    edges = all_edges(n)
    matrix, want = degree_rows(inst, edges, len(edges))
    degree = matrix @ np.array([x.get(u, v) for u, v in edges])
    deg_bad = [
        (int(v), float(degree[v]), float(want[v]))
        for v in np.flatnonzero(np.abs(degree - want) > tol)
    ]
    if n <= CUT_ENUM_CAP:
        cut_bad = enumerate_cut_check(x, inst, ("hk",), tol=tol)
    else:
        worst = separate(x, inst, tol)
        cut_bad = [] if worst is None else [
            (worst.vertices, worst.capacity, worst.required)
        ]
    return HKReport(tuple(deg_bad), tuple(cut_bad))
