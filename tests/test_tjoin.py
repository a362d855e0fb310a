import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamiltonian_path_instance
from pathtsp import heldkarp, tjoin
from pathtsp.errors import InvalidInstanceError, InvariantError
from pathtsp.exact import all_cut_capacities, brute_force_matching, exact_path_tsp
from pathtsp.heldkarp import hk_solve
from pathtsp.decompose import decompose
from pathtsp.instances import EdgeVector, generate_random_metric
from pathtsp.simplex import SimplexResult, simplex_solve
from pathtsp.tjoin import (
    ParitySet,
    eulerian_path,
    min_tjoin,
    min_weight_perfect_matching,
    shortcut,
    wrong_parity_set,
)


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    return edges


def test_parity_set_must_be_even():
    with pytest.raises(InvalidInstanceError):
        ParitySet(frozenset({1}))


def test_hamiltonian_path_has_empty_parity_set():
    _, path_edges = hamiltonian_path_instance(6, 0)
    assert len(wrong_parity_set(path_edges, 0, 5)) == 0


def test_star_parity_set():
    # center 2 (internal, degree 3), leaves 0=s, 1=t, 3=w
    tree = [(2, 0), (2, 1), (2, 3)]
    T = wrong_parity_set(tree, 0, 1)
    assert set(T.vertices) == {2, 3}


def test_non_tree_inputs_rejected():
    with pytest.raises(InvalidInstanceError):
        wrong_parity_set([(0, 1), (1, 2), (0, 2)], 0, 2)
    with pytest.raises(InvalidInstanceError):
        wrong_parity_set([(0, 1), (0, 1)], 0, 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_wrong_parity_set_always_even(seed):
    tree = _random_tree(8, seed)
    T = wrong_parity_set(tree, 0, 7)
    assert len(T) % 2 == 0


def test_matching_two_points():
    pairs, cost = min_weight_perfect_matching([3, 5], np.full((6, 6), 7.0))
    assert pairs == ((3, 5),) and cost == 7.0


def test_matching_line_example():
    coords = np.array([0.0, 1.0, 10.0, 11.0])
    pairs, cost = min_weight_perfect_matching(
        [0, 1, 2, 3], np.abs(coords[:, None] - coords[None, :])
    )
    assert set(pairs) == {(0, 1), (2, 3)}
    assert cost == 2.0


def test_matching_odd_set_rejected():
    with pytest.raises(InvalidInstanceError):
        min_weight_perfect_matching([1, 2, 3], np.ones((4, 4)))


def test_matching_eight_points_matches_exhaustive():
    inst = generate_random_metric(8, 13)
    pts = list(range(8))
    pairs, cost = min_weight_perfect_matching(pts, inst.cost)
    _, brute = brute_force_matching(pts, inst.c)
    assert cost == pytest.approx(brute, abs=1e-9)


def test_tjoin_empty():
    inst = generate_random_metric(5, 0)
    join = min_tjoin(inst, ParitySet(frozenset()))
    assert join.edges == () and join.cost == 0.0


def test_tjoin_single_pair():
    inst = generate_random_metric(6, 1)
    join = min_tjoin(inst, ParitySet(frozenset({2, 4})))
    assert join.edges == ((2, 4),)
    assert join.cost == pytest.approx(inst.c(2, 4))


def test_tjoin_six_points_exhaustive():
    inst = generate_random_metric(9, 21)
    T = ParitySet(frozenset({0, 2, 3, 5, 6, 8}))
    join = min_tjoin(inst, T)
    _, brute = brute_force_matching(sorted(T.vertices), inst.c)
    assert join.cost == pytest.approx(brute, abs=1e-9)


def test_euler_path_simple():
    assert eulerian_path([(0, 2), (2, 1)], 0, 1) == [0, 2, 1]


def test_euler_tree_plus_empty_join():
    assert eulerian_path([(0, 2), (2, 1)], 0, 1) == [0, 2, 1]


def test_euler_uses_every_edge_once():
    inst = generate_random_metric(8, 5)
    hk = hk_solve(inst)
    combo = decompose(hk)
    tree = combo.trees[0]
    T = wrong_parity_set(tree, inst.s, inst.t)
    join = min_tjoin(inst, T)
    edges = list(tree) + list(join.edges)
    walk = eulerian_path(edges, inst.s, inst.t)
    assert walk[0] == inst.s and walk[-1] == inst.t
    from collections import Counter

    used = Counter(tuple(sorted(p)) for p in zip(walk, walk[1:]))
    assert used == Counter(tuple(sorted(e)) for e in edges)


def test_euler_rejects_bad_parity():
    with pytest.raises(InvalidInstanceError, match=r"\[2\]|2"):
        eulerian_path([(0, 1), (1, 2)], 0, 1)


def test_euler_rejects_disconnected():
    with pytest.raises(InvalidInstanceError, match="unreachable"):
        eulerian_path([(0, 1), (2, 3), (2, 3)], 0, 1)


def test_euler_circuit_when_endpoints_coincide():
    walk = eulerian_path([(0, 1), (1, 2), (0, 2)], 0, 0)
    assert walk[0] == walk[-1] == 0 and len(walk) == 4


def test_shortcut_keeps_hamiltonian_path():
    inst = generate_random_metric(5, 2)
    walk = [inst.s, 2, 3, 4, inst.t]
    order, cost = shortcut(walk, inst)
    assert order == walk
    assert cost == pytest.approx(inst.path_cost(walk))


def test_shortcut_skips_revisit():
    inst = generate_random_metric(4, 3)  # s=0, t=1, internals 2,3
    walk = [0, 2, 3, 2, 1]
    order, cost = shortcut(walk, inst)
    assert order == [0, 2, 3, 1]
    assert cost <= inst.path_cost(walk) + 1e-12


def test_shortcut_defers_interior_t():
    inst = generate_random_metric(5, 9)
    walk = [inst.s, 2, inst.t, 3, inst.t, 4, inst.t]
    order, cost = shortcut(walk, inst)
    assert order[0] == inst.s and order[-1] == inst.t
    assert sorted(order) == list(range(5))
    assert cost <= inst.path_cost(walk) + 1e-12


def test_shortcut_rejects_missing_vertex():
    inst = generate_random_metric(5, 2)
    with pytest.raises(InvalidInstanceError, match="misses"):
        shortcut([inst.s, 2, inst.t], inst)


def test_pipeline_shortcut_bounds():
    inst = generate_random_metric(10, 31)
    hk = hk_solve(inst)
    combo = decompose(hk)
    tree = combo.trees[0]
    T = wrong_parity_set(tree, inst.s, inst.t)
    join = min_tjoin(inst, T)
    walk = eulerian_path(list(tree) + list(join.edges), inst.s, inst.t)
    order, cost = shortcut(walk, inst)
    walk_cost = inst.path_cost(walk)
    assert cost <= walk_cost + 1e-12
    assert cost >= exact_path_tsp(inst).optimum - 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_odd_cut_crossing_parity(seed):
    """Odd s-t cuts are crossed an even number >= 2 of times by the tree."""
    n = 7
    tree = _random_tree(n, seed)
    s, t = 0, n - 1
    T = wrong_parity_set(tree, s, t)
    tvec = EdgeVector.from_edges(tree)
    memb, caps = all_cut_capacities(tvec, n)
    tset = sorted(T.vertices)
    for i in range(memb.shape[0]):
        side = {v for v in range(n) if memb[i, v]}
        if (s in side) == (t in side):
            continue
        if len(side & set(tset)) % 2 == 1:
            crossings = int(round(caps[i]))
            assert crossings >= 2 and crossings % 2 == 0


def _l1_lattice(side):
    """L1 distances on a side x side integer grid: many tied pairings."""
    grid = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    return np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=2)


def _brute(pts, costs):
    return brute_force_matching(pts, lambda u, v: float(costs[u, v]))


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
@pytest.mark.parametrize("seed", range(3))
def test_matching_equals_exhaustive_at_every_size(k, seed):
    rng = np.random.default_rng(seed)
    for costs in (generate_random_metric(k + 3, seed).cost, _l1_lattice(4)):
        pts = sorted(rng.choice(len(costs), k, replace=False).tolist())
        pairs, cost = min_weight_perfect_matching(pts, costs)
        assert sorted(v for e in pairs for v in e) == pts
        assert cost == pytest.approx(_brute(pts, costs)[1], rel=1e-12, abs=1e-12)
        assert cost == sum(costs[u, v] for u, v in pairs)


@pytest.mark.parametrize("factor", [1e-10, 1e-8, 1e-6, 1e6, 1e12, 1e20])
def test_matching_equals_exhaustive_at_any_cost_scale(factor):
    for seed in range(8):
        costs = generate_random_metric(14, seed).cost * factor
        pts = list(range(4 + 2 * (seed % 4)))
        _, cost = min_weight_perfect_matching(pts, costs)
        assert cost == pytest.approx(_brute(pts, costs)[1], rel=1e-12)


@pytest.mark.parametrize("k", [4, 16, 40])
def test_matching_on_a_line_pairs_consecutive_points(k):
    x = np.random.default_rng(k).random(k)  # labels are unsorted along the line
    costs = np.abs(x[:, None] - x[None, :])
    pairs, cost = min_weight_perfect_matching(range(k), costs)
    line = np.argsort(x).tolist()
    expected = sorted(tuple(sorted(line[i : i + 2])) for i in range(0, k, 2))
    assert list(pairs) == expected
    assert cost == pytest.approx(sum(costs[u, v] for u, v in expected), rel=1e-12)


def test_matching_adds_odd_set_rows_when_degrees_alone_are_fractional(monkeypatch):
    """Two unit triangles 100 apart: with degree rows only the LP optimum is
    1/2 on each triangle edge, so odd-set rows must cut it off."""
    cluster = np.array([0, 0, 0, 1, 1, 1])
    costs = np.where(cluster[:, None] == cluster[None, :], 1.0, 100.0) - np.eye(6)
    solves = []

    def counting(lp):
        solves.append(lp)
        return simplex_solve(lp)

    monkeypatch.setattr(heldkarp, "simplex_solve", counting)
    pairs, cost = min_weight_perfect_matching(range(6), costs)
    assert cost == _brute(range(6), costs)[1] == 102.0
    assert len(solves) >= 2 and len(solves[-1].rows) > 6


@pytest.mark.parametrize(
    ("x", "message"), [(0.5, "fractional"), (0.0, "not perfect")], ids=["half", "empty"]
)
def test_matching_refuses_a_point_that_is_not_a_matching(monkeypatch, x, message):
    def fake(objective, *_):
        return SimplexResult("optimal", np.full(len(objective), x), 0.0, None), 1

    monkeypatch.setattr(tjoin, "row_generation", fake)
    with pytest.raises(InvariantError, match=message):
        min_weight_perfect_matching(range(4), np.ones((4, 4)))


def test_import_leaves_networkx_unloaded():
    code = "import sys, pathtsp; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr
