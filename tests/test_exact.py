import itertools

import numpy as np
import pytest

from conftest import (
    brute_force_path_scan,
    enumerate_cut_check,
    exact_path_tsp_loop,
    exact_pc_path_loop,
    random_connected_graph,
)
from pathtsp.errors import InvalidInstanceError, SizeLimitError
from pathtsp.exact import (
    CUT_ENUM_CAP,
    PATH_TSP_CAP,
    all_cut_capacities,
    brute_force_matching,
    exact_path_tsp,
    exact_pc_path,
)
from pathtsp.heldkarp import hk_solve
from pathtsp.instances import EdgeVector, Instance, generate_random_metric, metric_closure
from pathtsp.prize import PCInstance


def test_two_vertices(unit_triangle):
    inst = Instance(cost=np.array([[0.0, 4.0], [4.0, 0.0]]), s=0, t=1)
    res = exact_path_tsp(inst)
    assert res.optimum == 4.0 and res.witness == (0, 1)
    with pytest.raises(InvalidInstanceError, match="finite"):
        exact_path_tsp(Instance(cost=np.array([[0.0, np.inf], [np.inf, 0.0]]), s=0, t=1))


def test_unit_triangle_path(unit_triangle):
    res = exact_path_tsp(unit_triangle)
    assert res.optimum == 2.0
    assert res.witness == (0, 2, 1)


def test_dp_matches_permutation_scan():
    inst = generate_random_metric(9, 17)
    res = exact_path_tsp(inst)
    assert res.optimum == pytest.approx(brute_force_path_scan(inst), abs=1e-12)
    assert inst.path_cost(res.witness) == pytest.approx(res.optimum)
    assert sorted(res.witness) == list(range(9))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 13])
@pytest.mark.parametrize("costs", ["random", "integer"])
@pytest.mark.parametrize("with_prizes", [False, True])
def test_dp_matches_loop_reference(n, costs, with_prizes):
    """Optimum, witness and explored count equal the per-mask loop DPs.

    Integer costs (shortest-path closures of sparse graphs) and prizes in
    steps of 0.5 make many paths and objectives tie, which pins the
    first-argmin parent and the earliest-mask rule of the pc selection.
    """
    for seed in range(3):
        rng = np.random.default_rng((n, seed))
        if costs == "random":
            inst = generate_random_metric(n, seed)
            prizes = rng.uniform(0.0, 0.6, n)
        else:
            inst = metric_closure(random_connected_graph(n, seed, density=0.2))
            prizes = rng.integers(0, 4, n) * 0.5
        if not with_prizes:
            assert exact_path_tsp(inst) == exact_path_tsp_loop(inst)
            continue
        prizes[[inst.s, inst.t]] = 0.0
        pc = PCInstance(inst, prizes)
        assert exact_pc_path(pc) == exact_pc_path_loop(pc)


def test_dp_at_size_cap_returns_hamiltonian_path():
    inst = generate_random_metric(PATH_TSP_CAP, 5)
    res = exact_path_tsp(inst)
    assert res.witness[0] == inst.s and res.witness[-1] == inst.t
    assert sorted(res.witness) == list(range(PATH_TSP_CAP))
    assert inst.path_cost(res.witness) == res.optimum


def test_size_cap_refused():
    inst = generate_random_metric(21, 0)
    with pytest.raises(SizeLimitError, match="20"):
        exact_path_tsp(inst)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_overflowing_costs_refused_quietly(n):
    """Uniform costs of 1e308 pass the metric guard, but every path's sum
    overflows: exact_path_tsp refuses, and exact_pc_path still answers with
    the direct edge, the only finite choice. Neither lets numpy warn (the
    suite turns a RuntimeWarning into an error)."""
    cost = np.full((n, n), 1e308)
    np.fill_diagonal(cost, 0.0)
    inst = Instance(cost=cost, s=0, t=1)
    with pytest.raises(InvalidInstanceError, match="finite"):
        exact_path_tsp(inst)
    prizes = np.ones(n)
    prizes[[0, 1]] = 0.0
    res = exact_pc_path(PCInstance(inst, prizes))
    assert res.witness == (0, 1) and res.optimum == 1e308 + (n - 2)


def test_pc_zero_prizes_takes_direct_edge():
    inst = generate_random_metric(7, 3)
    res = exact_pc_path(PCInstance(inst, np.zeros(7)))
    assert res.witness == (inst.s, inst.t)
    assert res.optimum == pytest.approx(inst.c(inst.s, inst.t))


def test_pc_huge_prizes_visits_everything():
    inst = generate_random_metric(7, 3)
    prizes = np.array([0 if v in (inst.s, inst.t) else 50.0 for v in range(7)])
    res = exact_pc_path(PCInstance(inst, prizes))
    assert res.optimum == pytest.approx(exact_path_tsp(inst).optimum)
    assert sorted(res.witness) == list(range(7))


def test_pc_matches_double_exhaustive():
    rng = np.random.default_rng(2)
    inst = generate_random_metric(8, 8)
    prizes = np.array(
        [0 if v in (inst.s, inst.t) else rng.uniform(0, 0.6) for v in range(8)]
    )
    pc = PCInstance(inst, prizes)
    internal = inst.internal
    best = inst.c(inst.s, inst.t) + prizes.sum()
    for r in range(1, len(internal) + 1):
        for subset in itertools.combinations(internal, r):
            missed = prizes.sum() - prizes[list(subset)].sum()
            for perm in itertools.permutations(subset):
                best = min(
                    best, inst.path_cost([inst.s, *perm, inst.t]) + missed
                )
    res = exact_pc_path(pc)
    assert res.optimum == pytest.approx(best, abs=1e-12)
    assert pc.objective(res.witness) == pytest.approx(res.optimum)


def test_cut_enumeration_size_cap_refused():
    n = CUT_ENUM_CAP + 1
    with pytest.raises(SizeLimitError, match=str(CUT_ENUM_CAP)):
        all_cut_capacities(EdgeVector(), n)
    with pytest.raises(SizeLimitError, match=str(CUT_ENUM_CAP)):
        enumerate_cut_check(EdgeVector(), generate_random_metric(n, 0), ("hk",))


def test_cut_check_accepts_feasible_point():
    inst = generate_random_metric(7, 12)
    hk = hk_solve(inst)
    assert enumerate_cut_check(hk.x, inst, ("hk",)) == []


def test_cut_check_zero_vector_lists_all_odd_cuts():
    inst = generate_random_metric(5, 1)
    zero = EdgeVector()
    T = frozenset({inst.s, 2})
    violations = enumerate_cut_check(zero, inst, ("tjoin", T))
    # every odd cut has capacity 0 < 1: count odd subsets among the 2^4 - 1
    # canonical sides
    count = 0
    for mask in range(1, 1 << 4):
        side = {v for v in range(4) if mask >> v & 1}
        if len(side & T) % 2 == 1:
            count += 1
    assert len(violations) == count
    assert all(cap == 0.0 for _, cap, _ in violations)


def test_matching_brute_force_line():
    pts = [0, 1, 2, 3]
    coords = {0: 0.0, 1: 1.0, 2: 10.0, 3: 11.0}
    pairs, cost = brute_force_matching(pts, lambda u, v: abs(coords[u] - coords[v]))
    assert cost == 2.0 and set(pairs) == {(0, 1), (2, 3)}
