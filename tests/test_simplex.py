import dataclasses
import itertools

import numpy as np
import pytest

from pathtsp.errors import InvariantError
from pathtsp.simplex import GAP_TOL, LinearProgram, certify_value, simplex_solve


def test_maximize_single_variable():
    # max x s.t. x <= 3, as min -x s.t. -x >= -3
    lp = LinearProgram((-1.0,), ((-1.0,),), (-3.0,), 0, ((0.0, None),))
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(3.0)
    assert -res.objective == pytest.approx(3.0)


def test_min_sum_with_lower_row():
    lp = LinearProgram((1.0, 1.0), ((1.0, 1.0),), (2.0,), 0, ((0.0, None), (0.0, None)))
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_infeasible_and_unbounded_are_distinct():
    infeasible = LinearProgram((1.0,), ((-1.0,),), (1.0,), 0, ((0.0, None),))
    assert simplex_solve(infeasible).status == "infeasible"
    unbounded = LinearProgram((-1.0,), (), (), 0, ((0.0, None),))
    assert simplex_solve(unbounded).status == "unbounded"


def test_bad_rows_rejected():
    with pytest.raises(ValueError):
        LinearProgram((1.0,), ((1.0, 2.0),), (1.0,), 0, ((0.0, None),))
    with pytest.raises(ValueError):
        LinearProgram((1.0,), (), (), 0, ((2.0, 1.0),))
    with pytest.raises(ValueError):
        LinearProgram((1.0,), ((1.0,),), (1.0, 2.0), 0, ((0.0, None),))
    with pytest.raises(ValueError):
        LinearProgram((1.0,), ((1.0,),), (1.0,), 2, ((0.0, None),))


def _vertex_enumeration_optimum(c, rows, bounds):
    """Brute-force LP oracle: intersect every n-subset of tight constraints."""
    n = len(c)
    planes = []
    for coeffs, rel, rhs in rows:
        planes.append((np.array(coeffs), rhs))
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[j] = 1.0
        if lo is not None:
            planes.append((e.copy(), lo))
        if hi is not None:
            planes.append((e.copy(), hi))

    def feasible(x):
        for coeffs, rel, rhs in rows:
            v = float(np.dot(coeffs, x))
            if rel == "<=" and v > rhs + 1e-9:
                return False
            if rel == ">=" and v < rhs - 1e-9:
                return False
            if rel == "=" and abs(v - rhs) > 1e-9:
                return False
        for xv, (lo, hi) in zip(x, bounds):
            if lo is not None and xv < lo - 1e-9:
                return False
            if hi is not None and xv > hi + 1e-9:
                return False
        return True

    best = None
    for subset in itertools.combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in subset])
        b = np.array([planes[i][1] for i in subset])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if feasible(x):
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


def _random_lps():
    """Eight random box-bounded LPs as (c, oracle rows, bounds, LinearProgram)."""
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = 5
        c = rng.normal(size=n)
        rows = []
        for _ in range(4):
            coeffs = rng.normal(size=n)
            rows.append((tuple(coeffs), "<=", float(rng.uniform(1.0, 3.0))))
        bounds = tuple((0.0, 2.0) for _ in range(n))
        # the oracle's <= rows enter the LP as negated >= rows
        lp = LinearProgram(
            tuple(c), [-np.array(r[0]) for r in rows], [-r[2] for r in rows], 0, bounds
        )
        yield c, rows, bounds, lp


def test_random_lp_matches_vertex_enumeration():
    for c, rows, bounds, lp in _random_lps():
        res = simplex_solve(lp)
        assert res.status == "optimal"
        oracle = _vertex_enumeration_optimum(c, rows, bounds)
        assert res.objective == pytest.approx(oracle, abs=1e-7)


def test_certified_bound_brackets_the_enumerated_optimum():
    for c, rows, bounds, lp in _random_lps():
        res = simplex_solve(lp)
        bound = certify_value(lp, res)
        oracle = _vertex_enumeration_optimum(c, rows, bounds)
        assert bound <= oracle + 1e-12 and oracle <= res.objective + 1e-12
        y = np.maximum(res.row_duals, 0.0)  # every row is a >= row
        scale = np.abs(c) @ np.abs(res.x) + y @ np.abs(lp.rhs)
        assert res.objective - bound <= GAP_TOL * scale


def test_certify_refuses_a_raised_objective():
    _, _, _, lp = next(_random_lps())
    res = simplex_solve(lp)
    certify_value(lp, res)
    with pytest.raises(InvariantError, match="not certified"):
        certify_value(lp, dataclasses.replace(res, objective=res.objective + 1e-3))


def test_certify_finds_no_bound_past_a_missing_upper_bound():
    """min -x s.t. x <= 3, x >= 0 and no upper bound. The row dual 1 gives
    the bound -3; a dual short by 1e-13 leaves x a negative reduced cost,
    and with no upper bound to charge it at, no finite bound remains. The
    decomposition master's columns have no upper bounds, which is why its
    LP is not certified this way."""
    lp = LinearProgram((-1.0,), ((-1.0,),), (-3.0,), 0, ((0.0, None),))
    res = simplex_solve(lp)
    assert certify_value(lp, res) == pytest.approx(-3.0)
    short = dataclasses.replace(res, row_duals=res.row_duals - 1e-13)
    with pytest.raises(InvariantError, match="dual bound -inf"):
        certify_value(lp, short)


def test_solution_respects_constraints_tightly():
    rng = np.random.default_rng(11)
    c = rng.normal(size=4)
    rows = rng.normal(size=(2, 4))  # one = row, then one >= row
    lp = LinearProgram(tuple(c), rows, (1.0, -1.0), 1, tuple((-3.0, 3.0) for _ in range(4)))
    res = simplex_solve(lp)
    assert res.status == "optimal"
    x = np.array(res.x)
    assert abs(float(np.dot(rows[0], x)) - 1.0) < 1e-8
    assert float(np.dot(rows[1], x)) > -1.0 - 1e-8
