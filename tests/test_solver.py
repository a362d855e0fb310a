import numpy as np
import pytest

from pathtsp.decompose import TreeCombination, decompose
from pathtsp.exact import exact_path_tsp
from pathtsp.errors import InvalidInstanceError
from pathtsp.heldkarp import hk_solve
from pathtsp.instances import Instance, generate_random_metric
from pathtsp.solver import (
    GOLDEN_RATIO,
    BaselineBounds,
    PathSolution,
    baseline_bounds_check,
    solve_bom,
    solve_hoogeveen,
)

FIVE_THIRDS = 5.0 / 3.0
# (s, c(s, t)) on K_2, with t the other vertex
TWO_VERTICES = [(s, c) for s in (0, 1) for c in (0.0, 2.0, 1e-8)]


def two_vertex_instance(s: int, c: float) -> Instance:
    return Instance(cost=np.array([[0.0, c], [c, 0.0]]), s=s, t=1 - s)


@pytest.mark.parametrize("solve", [solve_bom, solve_hoogeveen], ids=["bom", "hoogeveen"])
@pytest.mark.parametrize("s,c", TWO_VERTICES)
def test_bom_two_vertices(solve, s, c):
    inst = two_vertex_instance(s, c)
    assert decompose(hk_solve(inst)) == TreeCombination((frozenset({(0, 1)}),), (1.0,), 0.0)
    assert solve(inst) == PathSolution((s, 1 - s), c, ((0, c, 0.0, c),), 0, c, (1.0,))


def test_path_solution_needs_one_lambda_per_tree():
    with pytest.raises(ValueError, match="0 lambdas but 1 trees"):
        PathSolution((0, 1), 1.0, ((0, 1.0, 0.0, 1.0),), 0, 1.0, ())


def test_bom_unit_triangle(unit_triangle):
    sol = solve_bom(unit_triangle)
    assert sol.order == (0, 2, 1)
    assert sol.cost == pytest.approx(2.0)
    assert sol.hk_value == pytest.approx(2.0)


def test_bom_rejects_non_metric():
    cost = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    with pytest.raises(InvalidInstanceError):
        solve_bom(Instance(cost=cost, s=0, t=2))


def test_bom_cost_consistency():
    inst = generate_random_metric(10, 44)
    sol = solve_bom(inst)
    assert sorted(sol.order) == list(range(10))
    assert sol.order[0] == inst.s and sol.order[-1] == inst.t
    assert sol.cost == pytest.approx(inst.path_cost(sol.order), abs=1e-9)
    assert sol.cost == pytest.approx(min(p[3] for p in sol.per_tree), abs=1e-12)


def test_bom_guarantees_on_random_instances():
    for seed in (26, 44, 52, 59, 105):
        n = 10
        inst = generate_random_metric(n, seed)
        sol = solve_bom(inst)
        opt = exact_path_tsp(inst).optimum
        assert sol.cost >= opt - 1e-9
        assert sol.cost <= GOLDEN_RATIO * sol.hk_value * (1 + 1e-6)
        assert sol.cost / opt <= GOLDEN_RATIO + 1e-7
        # derandomized average obeys the golden bound, hence so does the min
        assert sol.weighted_average <= GOLDEN_RATIO * sol.hk_value * (1 + 1e-6)
        assert sol.cost <= sol.weighted_average + 1e-9
        # 5/3 fallback holds without narrow-cut machinery
        assert sol.weighted_average <= FIVE_THIRDS * sol.hk_value * (1 + 1e-6)


def test_hoogeveen_unit_triangle(unit_triangle):
    sol = solve_hoogeveen(unit_triangle)
    assert sol.cost == pytest.approx(2.0)


def test_hoogeveen_five_thirds_bound():
    for seed in range(6):
        inst = generate_random_metric(4 + seed, 50 + seed)
        sol = solve_hoogeveen(inst)
        assert sol.cost <= FIVE_THIRDS * sol.hk_value * (1 + 1e-6)
        assert sol.cost >= exact_path_tsp(inst).optimum - 1e-9
        assert len(sol.per_tree) == 1


def test_baseline_bounds_unit_triangle(unit_triangle):
    # all spanning trees tie at cost 2; the canonical tie-break picks the
    # star at s, whose wrong-parity join is the single edge (s, v)
    hk = hk_solve(unit_triangle)
    rep = baseline_bounds_check(unit_triangle, hk)
    assert rep.mst_cost == pytest.approx(2.0)
    assert rep.bound_j2 == pytest.approx(1.5)
    assert rep.bound_j3 == pytest.approx(1.0)
    assert rep.all_hold


def test_baseline_bounds_forced_path_mst():
    # stretching the direct edge forces the path MST, making the join empty
    cost = np.array([[0.0, 1.5, 1.0], [1.5, 0.0, 1.0], [1.0, 1.0, 0.0]])
    inst = Instance(cost=cost, s=0, t=1)
    hk = hk_solve(inst)
    rep = baseline_bounds_check(inst, hk)
    assert rep.join_cost == 0.0
    assert rep.bound_j2 == pytest.approx((hk.value + 1.5) / 2)
    assert rep.bound_j3 == pytest.approx(hk.value - 1.5)
    assert rep.all_hold


@pytest.mark.parametrize("s,c", TWO_VERTICES)
def test_baseline_bounds_two_vertices(s, c):
    inst = two_vertex_instance(s, c)
    rep = baseline_bounds_check(inst, hk_solve(inst))
    assert rep == BaselineBounds(c, 0.0, 0.0, c, c, 0.0, True, True, True)


def test_baseline_bounds_random_sample():
    rng = np.random.default_rng(1)
    for trial in range(12):
        n = int(rng.integers(4, 13))
        inst = generate_random_metric(n, 200 + trial)
        hk = hk_solve(inst)
        rep = baseline_bounds_check(inst, hk)
        assert rep.all_hold, rep
        assert rep.join_cost <= rep.jprime_cost + 1e-9
