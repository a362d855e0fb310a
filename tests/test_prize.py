import math

import numpy as np
import pytest

from pathtsp.errors import InvalidInstanceError, SizeLimitError
from pathtsp.exact import exact_pc_path, exact_path_tsp
from pathtsp.heldkarp import hk_solve
from pathtsp.instances import Instance, generate_random_metric
from pathtsp.prize import (
    PCInstance,
    PCLPSolution,
    pc_lp_solve,
    pc_solve,
    pd_oracle,
    threshold_subinstance,
)
from pathtsp.solver import GOLDEN_RATIO, solve_bom

PHI = GOLDEN_RATIO


def _mixed_pc(n, seed, scale=0.6):
    rng = np.random.default_rng(seed)
    inst = generate_random_metric(n, seed)
    prizes = np.zeros(n)
    for v in inst.internal:
        prizes[v] = rng.uniform(0, scale)
    return PCInstance(inst, prizes)


def test_pc_instance_validation():
    inst = generate_random_metric(4, 0)
    with pytest.raises(InvalidInstanceError):
        PCInstance(inst, np.array([1.0, 0, 0, 0]))  # prize on endpoint
    with pytest.raises(InvalidInstanceError):
        PCInstance(inst, np.array([0.0, 0, -1, 0]))
    pc = PCInstance.from_internal(inst, [0.3, 0.4])
    assert pc.prizes[2] == 0.3 and pc.prizes[3] == 0.4


def test_lp_zero_prizes_is_direct_edge():
    inst = generate_random_metric(6, 5)
    lp = pc_lp_solve(PCInstance(inst, np.zeros(6)))
    assert lp.value == pytest.approx(inst.c(inst.s, inst.t), abs=1e-7)
    assert all(y <= 1e-7 for y in lp.y.values())
    assert lp.x.get(inst.s, inst.t) == pytest.approx(1.0, abs=1e-7)


def test_lp_huge_prizes_matches_held_karp():
    inst = generate_random_metric(6, 5)
    prizes = np.array([0 if v in (inst.s, inst.t) else 100.0 for v in range(6)])
    lp = pc_lp_solve(PCInstance(inst, prizes))
    hk = hk_solve(inst)
    assert all(y == pytest.approx(1.0, abs=1e-7) for y in lp.y.values())
    assert lp.value == pytest.approx(hk.value, abs=1e-6)


def test_lp_lower_bounds_exact_optimum():
    for seed in range(6):
        pc = _mixed_pc(6, seed)
        lp = pc_lp_solve(pc)
        assert lp.value <= exact_pc_path(pc).optimum + 1e-7
        # degree ties hold
        for v, yv in lp.y.items():
            assert lp.x.cut({v}) == pytest.approx(2 * yv, abs=1e-7)


def _synthetic_pclp(inst, yvals):
    x = hk_solve(inst).x
    return PCLPSolution(x, dict(yvals), 0.0, 1)


def test_threshold_keeps_everyone_at_low_gamma():
    inst = generate_random_metric(6, 2)
    lp = _synthetic_pclp(inst, {v: 0.9 for v in inst.internal})
    sub, labels = threshold_subinstance(PCInstance(inst, np.zeros(6)), lp, 0.5)
    assert labels == tuple(range(6))
    assert sub.n == 6


def test_threshold_sentinel_keeps_endpoints_only():
    inst = generate_random_metric(6, 2)
    lp = _synthetic_pclp(inst, {v: 1.0 for v in inst.internal})
    sub, labels = threshold_subinstance(PCInstance(inst, np.zeros(6)), lp, 1.0 + 1e-9)
    assert set(labels) == {inst.s, inst.t}
    assert sub.n == 2
    assert sub.c(sub.s, sub.t) == pytest.approx(inst.c(inst.s, inst.t))


def test_threshold_half_respects_scaling_bound():
    pc = _mixed_pc(8, 11)
    lp = pc_lp_solve(pc)
    gamma = 0.5
    sub, labels = threshold_subinstance(pc, lp, gamma)
    sol = solve_bom(sub)
    cx = lp.edge_cost_part(pc.inst)
    assert sol.cost <= (PHI / gamma) * cx + 1e-6 * max(1.0, cx)


def test_pd_oracle_examples():
    inst = generate_random_metric(6, 9)
    order, obj = pd_oracle(PCInstance(inst, np.zeros(6)))
    assert order == (inst.s, inst.t)
    assert obj == pytest.approx(inst.c(inst.s, inst.t))
    prizes = np.array([0 if v in (inst.s, inst.t) else 99.0 for v in range(6)])
    order, obj = pd_oracle(PCInstance(inst, prizes))
    assert obj == pytest.approx(exact_path_tsp(inst).optimum)


def test_pd_oracle_size_cap():
    inst = generate_random_metric(16, 0)
    with pytest.raises(SizeLimitError, match="oracle"):
        pd_oracle(PCInstance(inst, np.zeros(16)))


def test_pd_oracle_meets_contract_bound():
    pc = _mixed_pc(8, 4)
    lp = pc_lp_solve(pc)
    _, obj = pd_oracle(pc)
    cx = lp.edge_cost_part(pc.inst)
    assert obj <= 2 * cx + (lp.value - cx) + 1e-6


def test_combination_constants():
    # closed-form identities behind the derandomized expectation
    rho = PHI
    a = math.exp(1 - 2 / rho)
    log_a = 1 - 2 / rho
    p = (1 + rho * log_a) / (2 - a + rho * log_a)
    ratio = rho / (rho - a)
    assert 0 < a < 1 and 0 < p < 1
    assert 2 * p + (1 - p) * (-log_a / (1 - a)) * rho == pytest.approx(ratio, rel=1e-12)
    assert p + (1 - p) / (1 - a) == pytest.approx(ratio, rel=1e-12)
    assert ratio <= 1.9535


def test_pc_solve_zero_prizes():
    inst = generate_random_metric(6, 5)
    res = pc_solve(PCInstance(inst, np.zeros(6)))
    assert res.order == (inst.s, inst.t)
    assert res.objective == pytest.approx(res.lp_value, abs=1e-7)
    assert res.missed_prize == pytest.approx(0.0, abs=1e-9)


def test_pc_solve_guarantees_on_random_instances():
    for seed in range(5):
        pc = _mixed_pc(7, 30 + seed)
        res = pc_solve(pc)
        opt = exact_pc_path(pc).optimum
        assert res.objective >= opt - 1e-9
        assert res.objective <= res.expectation + 1e-9
        assert res.expectation <= 1.9535 * res.lp_value * (1 + 1e-6)
        assert res.objective == pytest.approx(pc.inst.path_cost(res.order)
                                              + res.missed_prize, abs=1e-9)


def test_pc_solve_rejects_bad_rho():
    pc = _mixed_pc(5, 1)
    for rho in (1.2, 2.0, 2.5):
        with pytest.raises(InvalidInstanceError):
            pc_solve(pc, rho=rho)


def missed_weight(pclp: PCLPSolution, v: int, rho: float = GOLDEN_RATIO) -> float:
    """Derandomized weight of the event {v not in V_gamma} over gamma in (a,1)."""
    a = math.exp(1.0 - 2.0 / rho)
    yv = pclp.y[v]
    if yv >= 1.0:
        return 0.0
    return min((1.0 - yv) / (1.0 - a), 1.0)


def test_missed_weight_identity():
    inst = generate_random_metric(7, 3)
    a = math.exp(1 - 2 / PHI)
    ys = {2: 0.2, 3: a + 0.05, 4: 0.95, 5: 1.0, 6: a}
    lp = _synthetic_pclp(inst, ys)
    for v, yv in ys.items():
        expected = min((1 - yv) / (1 - a), 1.0) if yv < 1 else 0.0
        assert missed_weight(lp, v) == pytest.approx(expected, abs=1e-9)
    # interval decomposition reproduces the same weights
    grid = sorted({a, 1.0} | {y for y in ys.values() if a < y < 1.0})
    for v, yv in ys.items():
        w = sum(
            (hi - lo) / (1 - a)
            for lo, hi in zip(grid, grid[1:])
            if yv < hi  # v missing from V_gamma on (lo, hi)
        )
        assert w == pytest.approx(missed_weight(lp, v), abs=1e-9)


def test_pc_solve_custom_oracle_is_used():
    pc = _mixed_pc(6, 12)
    calls = []

    def oracle(instance):
        calls.append(1)
        return pd_oracle(instance)

    res = pc_solve(pc, oracle=oracle)
    assert calls == [1]
    assert res.pd_objective >= res.objective - 1e-12
