"""Small dense LP surface used by the cutting-plane and pricing loops.

An LP is ``min objective @ x`` subject to ``rows[:n_eq] @ x == rhs[:n_eq]``,
``rows[n_eq:] @ x >= rhs[n_eq:]`` and per-variable bounds, with all rows in
one 2-D float array. `simplex_solve` delegates to scipy's HiGHS simplex,
re-checks the returned point against every row and bound, and reports
infeasible, unbounded and stalled outcomes as distinct verdicts.
`certify_value` turns the row duals into a rigorous lower bound on the LP
(Neumaier and Shcherbina, Math. Prog. 99, 2004) and refuses an objective
more than GAP_TOL, relative, above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog as _scipy_linprog

from .errors import InvariantError

FEAS_TOL = 1e-8
GAP_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    rows: np.ndarray  # equality rows first, then >= rows
    rhs: np.ndarray
    n_eq: int
    bounds: tuple[tuple[float | None, float | None], ...]

    def __post_init__(self):
        objective = np.asarray(self.objective, dtype=float)
        width = len(objective)
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, width)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows of shape {rows.shape} do not match objective width {width}")
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.shape != (len(rows),):
            raise ValueError(f"{rhs.size} right-hand sides for {len(rows)} rows")
        if not 0 <= self.n_eq <= len(rows):
            raise ValueError(f"n_eq={self.n_eq} outside 0..{len(rows)}")
        if len(self.bounds) != width:
            raise ValueError("one bound pair per variable required")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"bound lower {lo} > upper {hi}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "bounds", tuple(self.bounds))


@dataclass(frozen=True)
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | stalled
    x: np.ndarray | None
    objective: float | None
    row_duals: np.ndarray | None  # one per row of the LP


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Solve the LP and re-check the feasibility of its point; see module
    docstring."""
    k = lp.n_eq
    eq, ge = lp.rows[:k], lp.rows[k:]
    res = _scipy_linprog(
        lp.objective,
        A_ub=-ge if len(ge) else None,
        b_ub=-lp.rhs[k:] if len(ge) else None,
        A_eq=eq if len(eq) else None,
        b_eq=lp.rhs[:k] if len(eq) else None,
        bounds=list(lp.bounds),
        method="highs",
    )
    if res.status == 2:
        return SimplexResult("infeasible", None, None, None)
    if res.status == 3:
        return SimplexResult("unbounded", None, None, None)
    if res.status != 0:
        return SimplexResult("stalled", None, None, None)

    x = np.asarray(res.x)
    # None bounds become NaN, which no comparison below satisfies
    lo, hi = np.array(lp.bounds, dtype=float).reshape(-1, 2).T
    row_scale = max(1.0, float(np.abs(lp.rows).max(initial=0.0)))
    _check_feasible(lp, x, lo, hi, lp.rows @ x - lp.rhs, row_scale)
    duals = np.concatenate([res.eqlin.marginals, -res.ineqlin.marginals])
    return SimplexResult("optimal", x, float(res.fun), duals)


def _check_feasible(lp, x, lo, hi, slack, row_scale: float):
    tol = FEAS_TOL * row_scale * max(1.0, float(np.abs(x).max(initial=0.0)))
    k = lp.n_eq
    bad = np.flatnonzero(np.concatenate([np.abs(slack[:k]) > tol, slack[k:] < -tol]))
    if len(bad):
        i = bad[0]
        rel = "!=" if i < k else "<"
        raise InvariantError(
            f"solver returned infeasible point: {slack[i] + lp.rhs[i]} {rel} {lp.rhs[i]}"
        )
    if (x < lo - tol).any():
        raise InvariantError("solver violated a lower bound")
    if (x > hi + tol).any():
        raise InvariantError("solver violated an upper bound")


def certify_value(lp: LinearProgram, res: SimplexResult) -> float:
    """Rigorous lower bound L = b^T y + sum_j min(r_j l_j, r_j u_j) on lp, from
    the duals y of res (>= rows' clipped at 0) and r = c - A^T y; raises
    InvariantError unless res.objective - L <= GAP_TOL (|c|.|x| + |y|.|b|)."""
    k = lp.n_eq
    y = res.row_duals.copy()
    y[k:] = np.maximum(y[k:], 0.0)
    reduced = lp.objective - y @ lp.rows
    lo, hi = np.array(lp.bounds, dtype=float).reshape(-1, 2).T  # None becomes NaN
    at = np.where(reduced > 0, lo, np.where(reduced < 0, hi, 0.0))
    # NaN where some r_j pushes toward a missing bound; fmax makes that -inf
    bound = float(np.fmax(lp.rhs @ y + reduced @ at, -np.inf))
    scale = float(np.abs(lp.objective) @ np.abs(res.x) + np.abs(y) @ np.abs(lp.rhs))
    if not res.objective - bound <= GAP_TOL * scale:
        raise InvariantError(
            f"LP value {res.objective:.17g} not certified: dual bound {bound:.17g}"
        )
    return bound
