"""Small dense LP surface used by the cutting-plane and pricing loops.

An LP is ``min objective @ x`` subject to ``rows[:n_eq] @ x == rhs[:n_eq]``,
``rows[n_eq:] @ x >= rhs[n_eq:]`` and per-variable bounds, with all rows in
one 2-D float array. The solve itself is delegated to scipy's HiGHS simplex;
this wrapper pins the package's contract on top of it: feasibility of the
returned point is re-checked against every row and bound, and optimality is
certified through the dual solution (dual feasibility + complementary
slackness) before the result is released. Infeasible, unbounded and stalled
outcomes are reported as distinct verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog as _scipy_linprog

from .errors import InvariantError

FEAS_TOL = 1e-8
DUAL_TOL = 1e-7


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
    """Solve the LP and certify the answer; see module docstring."""
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
    scale = max(1.0, float(np.abs(lp.objective).max(initial=0.0)))
    row_scale = max(1.0, float(np.abs(lp.rows).max(initial=0.0)))
    slack = lp.rows @ x - lp.rhs
    _check_feasible(lp, x, lo, hi, slack, row_scale)
    duals = np.concatenate([res.eqlin.marginals, -res.ineqlin.marginals])
    _check_optimal(lp, x, lo, hi, slack, duals, scale * row_scale)
    return SimplexResult("optimal", x, float(res.fun), duals)


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def _check_feasible(lp, x, lo, hi, slack, row_scale: float):
    tol = FEAS_TOL * row_scale * max(1.0, float(np.abs(x).max(initial=0.0)))
    k = lp.n_eq
    bad = _first(np.concatenate([np.abs(slack[:k]) > tol, slack[k:] < -tol]))
    if bad is not None:
        rel = "!=" if bad < k else "<"
        raise InvariantError(
            f"solver returned infeasible point: {slack[bad] + lp.rhs[bad]} {rel} {lp.rhs[bad]}"
        )
    if (x < lo - tol).any():
        raise InvariantError("solver violated a lower bound")
    if (x > hi + tol).any():
        raise InvariantError("solver violated an upper bound")


def _check_optimal(lp, x, lo, hi, slack, duals, scale):
    """Dual feasibility + complementary slackness under min-sense data."""
    tol = DUAL_TOL * max(scale, float(np.abs(duals).max(initial=0.0)))
    k = lp.n_eq
    if (duals[k:] < -tol).any():
        raise InvariantError("dual sign violated on >= row")
    if (np.abs(duals[k:] * slack[k:]) > tol * np.maximum(1.0, np.abs(lp.rhs[k:]))).any():
        raise InvariantError("complementary slackness violated")
    # reduced costs against active bounds
    reduced = lp.objective - duals @ lp.rows
    at_lo = np.abs(x - lo) <= 1e-7 * np.maximum(1.0, np.abs(lo))
    at_hi = np.abs(x - hi) <= 1e-7 * np.maximum(1.0, np.abs(hi))
    j = _first(at_lo & ~at_hi & (reduced < -tol))
    if j is not None:
        raise InvariantError(f"reduced cost {reduced[j]} negative at lower bound (var {j})")
    j = _first(at_hi & ~at_lo & (reduced > tol))
    if j is not None:
        raise InvariantError(f"reduced cost {reduced[j]} positive at upper bound (var {j})")
    j = _first(~at_lo & ~at_hi & (np.abs(reduced) > tol))
    if j is not None:
        raise InvariantError(f"nonzero reduced cost {reduced[j]} at interior variable {j}")
