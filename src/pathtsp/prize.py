"""Prize-collecting s-t path: LP relaxation, threshold rounding, and the
exactly derandomized combination with a primal-dual style oracle.

The LP couples edge variables with per-vertex inclusion variables y_v
(internal degree = 2*y_v) and is solved by the same row-generation engine
as the plain relaxation (`heldkarp.row_generation`). Rounding keeps every
vertex with y_v above a threshold gamma and runs the golden-ratio path
solver on the induced sub-instance; instead of sampling gamma, all O(n)
distinct sublevel sets in (a, 1) are evaluated and combined with their
exact interval weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInstanceError, InvariantError, SizeLimitError
from .exact import exact_pc_path
from .heldkarp import HK_TOL, cut_row, degree_rows, edge_point, probe_cuts, row_generation
from .instances import EdgeVector, Instance, all_edges, is_number
from .solver import GOLDEN_RATIO, solve_bom

PD_ORACLE_CAP = 15


@dataclass(frozen=True)
class PCInstance:
    inst: Instance
    prizes: np.ndarray  # length n; forced to 0 at s and t

    def __post_init__(self):
        p = np.asarray(self.prizes, dtype=float).copy()
        if p.shape != (self.inst.n,):
            raise InvalidInstanceError(
                f"prizes must have length n={self.inst.n}, got {p.shape}"
            )
        if not np.isfinite(p).all():
            raise InvalidInstanceError("prizes must be finite")
        if (p < 0).any():
            raise InvalidInstanceError("prizes must be nonnegative")
        if p[self.inst.s] != 0.0 or p[self.inst.t] != 0.0:
            raise InvalidInstanceError("endpoint prizes must be zero")
        p.setflags(write=False)
        object.__setattr__(self, "prizes", p)

    @classmethod
    def from_internal(cls, inst: Instance, internal_prizes: Sequence[float]) -> "PCInstance":
        """Build from prizes listed per internal vertex in ascending order."""
        internal = inst.internal
        if not isinstance(internal_prizes, (Sequence, np.ndarray)) or not all(
            is_number(v) for v in internal_prizes
        ):
            raise InvalidInstanceError("prizes must be a sequence of numbers")
        if len(internal_prizes) != len(internal):
            raise InvalidInstanceError(
                f"expected {len(internal)} internal prizes, got {len(internal_prizes)}"
            )
        p = np.zeros(inst.n)
        for v, val in zip(internal, internal_prizes):
            p[v] = float(val)
        return cls(inst, p)

    def objective(self, order: Sequence[int]) -> float:
        visited = set(order)
        missed = sum(float(self.prizes[v]) for v in range(self.inst.n) if v not in visited)
        return self.inst.path_cost(order) + missed


@dataclass(frozen=True)
class PCLPSolution:
    x: EdgeVector
    y: dict[int, float]  # internal vertex -> inclusion level
    value: float
    iterations: int

    def edge_cost_part(self, inst: Instance) -> float:
        return self.x.dot_costs(inst)


def pc_lp_solve(pc: PCInstance) -> PCLPSolution:
    """Solve the prize-collecting LP by row generation.

    Separation: (a) a min s-t cut below 1 - HK_TOL adds an s-t cut row; (b)
    for each internal v with y_v above HK_TOL, a min cut between v and the
    merged endpoint pair below 2*y_v - HK_TOL adds the row
    x(delta(S)) - 2*y_v >= 0. The per-vertex probe is exact for the whole
    family.
    """
    inst = pc.inst
    n = inst.n
    edges = all_edges(n)
    m = len(edges)
    internal = inst.internal
    ycol = {v: m + i for i, v in enumerate(internal)}
    width = m + len(internal)

    def violated(z):
        y = {v: z[ycol[v]] for v in internal}
        probes = probe_cuts(edge_point(edges, z), inst, [v for v in internal if y[v] > HK_TOL])
        rows = []
        for v, cap, side in probes:
            if v is None and cap < 1.0 - HK_TOL:
                rows.append(cut_row(side, edges, width, 1.0))
            elif v is not None and cap < 2.0 * y[v] - HK_TOL:
                rows.append(cut_row(side, edges, width, 0.0, ycol[v]))
        return rows

    res, rounds = row_generation(
        [inst.cost[u, v] for u, v in edges] + [-pc.prizes[v] for v in internal],
        [(0.0, 2.0)] * m + [(0.0, 1.0)] * len(internal),
        degree_rows(inst, edges, width, ycol),
        violated,
        50 * n * n,
        "prize-collecting",
    )
    y = {v: float(res.x[ycol[v]]) for v in internal}
    return PCLPSolution(
        edge_point(edges, res.x), y, res.objective + float(pc.prizes.sum()), rounds
    )


def threshold_subinstance(
    pc: PCInstance, pclp: PCLPSolution, gamma: float
) -> tuple[Instance, tuple[int, ...]]:
    """Induced metric sub-instance on {v : y_v >= gamma} plus the endpoints.

    Returns the sub-instance and the original labels of its vertices in
    index order (gamma above 1 keeps only the endpoints).
    """
    if gamma <= 0.0:
        raise InvalidInstanceError(f"gamma must be positive, got {gamma}")
    inst = pc.inst
    keep = sorted(
        {inst.s, inst.t} | {v for v, yv in pclp.y.items() if yv >= gamma}
    )
    sub = Instance(
        cost=inst.cost[np.ix_(keep, keep)],
        s=keep.index(inst.s),
        t=keep.index(inst.t),
    )
    return sub, tuple(keep)


def pd_oracle(pc: PCInstance) -> tuple[tuple[int, ...], float]:
    """Default stand-in for the primal-dual oracle: the exact solver.

    Its objective is trivially within 2*c(x*) + missed-prize of the LP
    optimum; instances beyond n=15 must plug a real oracle instead.
    """
    if pc.inst.n > PD_ORACLE_CAP:
        raise SizeLimitError(
            f"default prize-collecting oracle handles n <= {PD_ORACLE_CAP}; "
            "pass a custom oracle for larger instances"
        )
    res = exact_pc_path(pc)
    return tuple(res.witness), res.optimum


@dataclass(frozen=True)
class PCResult:
    order: tuple[int, ...]
    path_cost: float
    missed_prize: float
    objective: float
    lp_value: float
    expectation: float
    pd_objective: float
    mix_probability: float  # weight p on the primal-dual candidate
    threshold_floor: float  # a = exp(1 - 2/rho)
    intervals: tuple[tuple[float, float, float], ...]  # (lo, hi, objective)

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "path_cost": self.path_cost,
            "missed_prize": self.missed_prize,
            "objective": self.objective,
            "lp_value": self.lp_value,
            "expectation": self.expectation,
        }


def pc_solve(
    pc: PCInstance,
    rho: float = GOLDEN_RATIO,
    oracle: Callable[[PCInstance], tuple[tuple[int, ...], float]] | None = None,
) -> PCResult:
    """Exactly derandomized combination of the oracle and threshold rounding.

    The candidate set is the oracle path plus one rounded path per interval
    of constant sublevel set in (a, 1); the reported expectation weighs them
    with the interval lengths and the mixing probability p, and is certified
    against rho/(rho - a) times the LP value before returning the cheapest
    candidate.
    """
    if not (1.5 <= rho < 2.0):
        raise InvalidInstanceError(f"rho must lie in [1.5, 2), got {rho}")
    inst = pc.inst
    pclp = pc_lp_solve(pc)
    cx = pclp.edge_cost_part(inst)
    missed_lp = pclp.value - cx  # pi(1 - y*)
    scale = max(1.0, pclp.value)

    oracle_fn = oracle or pd_oracle
    pd_order, pd_obj = oracle_fn(pc)
    if pd_obj > 2.0 * cx + missed_lp + 1e-6 * scale:
        raise InvariantError(
            f"oracle objective {pd_obj} violates the 2*c(x*) + missed bound"
        )

    a = math.exp(1.0 - 2.0 / rho)
    log_a = 1.0 - 2.0 / rho
    p = (1.0 + rho * log_a) / (2.0 - a + rho * log_a)
    grid = sorted({a, 1.0} | {yv for yv in pclp.y.values() if a < yv < 1.0})
    candidates: list[tuple[float, tuple[int, ...]]] = [(pd_obj, tuple(pd_order))]
    intervals = []
    rounded_expect = 0.0
    for lo, hi in zip(grid, grid[1:]):
        if hi - lo <= 0.0:
            continue
        sub, labels = threshold_subinstance(pc, pclp, hi)
        sol = solve_bom(sub)
        order = tuple(labels[v] for v in sol.order)
        path_cost = inst.path_cost(order)
        if path_cost > (rho / lo) * cx + 1e-6 * scale:
            raise InvariantError(
                f"rounded path cost {path_cost} exceeds rho/gamma * c(x*) "
                f"at gamma={lo}"
            )
        obj = pc.objective(order)
        weight = (hi - lo) / (1.0 - a)
        rounded_expect += weight * obj
        intervals.append((lo, hi, obj))
        candidates.append((obj, order))
    expectation = p * pd_obj + (1.0 - p) * rounded_expect
    best_obj, best_order = min(candidates, key=lambda c: (c[0], c[1]))
    ratio_bound = rho / (rho - a)
    if expectation > ratio_bound * pclp.value * (1.0 + 1e-6) + 1e-9:
        raise InvariantError(
            f"derandomized expectation {expectation} exceeds "
            f"{ratio_bound} * LP value {pclp.value}"
        )
    if best_obj > expectation + 1e-9 * scale:
        raise InvariantError("minimum candidate exceeds the expectation")
    path_cost = inst.path_cost(best_order)
    return PCResult(
        order=best_order,
        path_cost=path_cost,
        missed_prize=best_obj - path_cost,
        objective=best_obj,
        lp_value=pclp.value,
        expectation=expectation,
        pd_objective=pd_obj,
        mix_probability=p,
        threshold_floor=a,
        intervals=tuple(intervals),
    )
