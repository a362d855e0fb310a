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
from .simplex import LinearProgram, SimplexResult, certify_value, simplex_solve

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
    Returns the optimal result, its value checked by `certify_value`, and
    the round count once nothing is violated; earlier rounds only pick cuts.
    A round whose violated rows are all in the LP already means the LP and
    the separation disagree, and raises instead of returning z.
    """
    rows, rhs = base_rows
    n_eq = len(rows)
    added: set[tuple[bytes, float]] = set()
    res = None
    for rounds in range(1, cap_rounds + 1):
        lp = LinearProgram(objective, rows, rhs, n_eq, bounds)
        res = simplex_solve(lp)
        if res.status != "optimal":
            raise InvariantError(f"{what} LP came back {res.status}")
        cuts = violated(res.x)
        if not cuts:
            certify_value(lp, res)
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


def separate(x: EdgeVector, inst: Instance) -> CutQuery | None:
    """Most-violated cut constraint, or None if x is cut-feasible (every
    violation at most HK_TOL).

    Ties on violation break toward the lexicographically smallest sorted
    vertex set, making the answer deterministic.
    """
    queries = (
        CutQuery(side, cap, "st" if v is None else "nonseparating")
        for v, cap, side in probe_cuts(x, inst, inst.internal)
    )
    violated = [q for q in queries if q.violation > HK_TOL]
    if not violated:
        return None
    return min(violated, key=lambda q: (-q.violation, sorted(q.vertices)))


def hk_solve(inst: Instance) -> HKSolution:
    """Optimal solution of the path-variant Held-Karp relaxation; a cut
    row is added when the point violates it by more than HK_TOL."""
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
            if required - cap > HK_TOL:
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
    cut_violations: tuple[tuple[frozenset[int], float, float], ...]  # at most one witness
    negative_entries: tuple[tuple[tuple[int, int], float], ...]  # (edge, value)

    @property
    def ok(self) -> bool:
        return not (self.degree_violations or self.cut_violations or self.negative_entries)


def hk_verify(x: EdgeVector, inst: Instance) -> HKReport:
    """Check degree equalities and cut constraints against x, each to
    within HK_TOL.

    The cut check is `separate`: it reports one most-violated cut, or none
    when every cut constraint holds. Its flows read negative entries as 0,
    so those are reported on their own: x must be nonnegative.
    """
    pairs = sorted(x.values.items())
    ends = np.array([e for e, _ in pairs], dtype=int).reshape(-1, 2)
    degree = np.bincount(ends.ravel(), np.repeat([w for _, w in pairs], 2), inst.n)
    want = np.full(inst.n, 2.0)
    want[[inst.s, inst.t]] = 1.0
    deg_bad = [
        (int(v), float(degree[v]), float(want[v]))
        for v in np.flatnonzero(np.abs(degree - want) > HK_TOL)
    ]
    worst = separate(x, inst)
    cut_bad = () if worst is None else ((worst.vertices, worst.capacity, worst.required),)
    negative = tuple((e, w) for e, w in sorted(x.values.items()) if w < -HK_TOL)
    return HKReport(tuple(deg_bad), cut_bad, negative)
