import math

import numpy as np
import pytest

from conftest import forced_cuts_eager, narrow_layers_by_pairs, random_connected_graph
from pathtsp.errors import InvalidInstanceError
from pathtsp.exact import exact_path_tsp
from pathtsp.graphical import (
    GAP_CONSTANTS,
    RATIO_CONSTANTS,
    build_layer_traversal,
    check_layer_connectivity,
    ratio_expression,
    solve_graphical,
)
from pathtsp.heldkarp import HKSolution, hk_solve
from pathtsp.instances import EdgeVector, GraphicalInstance, all_edges, metric_closure
from pathtsp.narrowcuts import NarrowCutStructure, compute_narrow_cuts

THETA = RATIO_CONSTANTS[0]


def test_published_ratio_constants():
    rho, parts = ratio_expression(*RATIO_CONSTANTS)
    assert rho < 1.5780
    assert all(p < 1.5780 for p in parts)


def test_published_gap_constants():
    gap, parts = ratio_expression(*GAP_CONSTANTS, n=7)
    assert gap < 1.6137
    assert all(p < 1.6137 for p in parts)


def test_path_graph_traversal():
    g = GraphicalInstance(4, ((0, 2), (2, 3), (3, 1)), 0, 1)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    lt = build_layer_traversal(g, hk, THETA)
    assert lt.structure.layers == ((0,), (2,), (3,), (1,))
    assert lt.plt == (0, 2, 3, 1)
    assert lt.eta_cost == 0.0
    assert lt.doubled == ()
    assert lt.hc_cost == 3.0


def test_five_cycle_augmentation_accounting(five_cycle):
    inst = metric_closure(five_cycle)
    hk = hk_solve(inst)
    lt = build_layer_traversal(five_cycle, hk, THETA)
    n = five_cycle.n
    assert lt.hc_cost <= 2 * (n - 1) - lt.plt_cost + 2 * lt.eta_cost + 1e-12
    assert lt.hc_cost >= exact_path_tsp(inst).optimum - 1e-9


def test_traversal_needs_three_vertices():
    g = GraphicalInstance(2, ((0, 1),), 0, 1)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    with pytest.raises(InvalidInstanceError, match="n >= 3"):
        build_layer_traversal(g, hk, THETA)


@pytest.mark.parametrize("seed", range(6))
def test_traversal_invariants_on_random_graphs(seed):
    n = 5 + seed
    g = random_connected_graph(n, 400 + seed)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    st = compute_narrow_cuts(hk, 1.0 - THETA)
    lt = build_layer_traversal(g, hk, THETA, st)
    # exact integer accounting identity
    assert lt.augmented_cost == 2 * (n - 1) - lt.plt_cost + 2 * lt.eta_cost
    # excess cost is paid for by the LP surplus over n-1
    assert THETA * lt.eta_cost <= hk.value - (n - 1) + 1e-6
    # traversal length sandwich
    assert st.ell - 1 <= len(lt.plt) - 1 <= lt.plt_cost + 1e-12
    # candidate is a genuine Hamiltonian path
    assert sorted(lt.hc_order) == list(range(n))
    assert lt.hc_cost >= exact_path_tsp(inst).optimum - 1e-9
    assert lt.hc_cost <= lt.augmented_cost + 1e-12


def test_layer_connectivity_on_path_graph():
    g = GraphicalInstance(5, ((0, 2), (2, 3), (3, 4), (4, 1)), 0, 1)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    st = compute_narrow_cuts(hk, 1.0 - THETA)
    rep = check_layer_connectivity(hk, st, THETA)
    assert rep.all_hold
    # singleton layers make the connectivity check vacuous
    assert all(math.isinf(c) for c in rep.connectivity)


@pytest.mark.parametrize("seed", range(4))
def test_layer_connectivity_on_random_graphs(seed):
    g = random_connected_graph(8, 500 + seed)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    theta = 0.1
    st = compute_narrow_cuts(hk, 1.0 - theta)
    rep = check_layer_connectivity(hk, st, theta)
    assert rep.all_hold, rep


def _min_bipartition(weights, members):
    """Cheapest split of `members` into two nonempty sides, by enumeration."""
    k = len(members)
    best = math.inf
    for mask in range(1, 1 << (k - 1)):
        side = [members[j] for j in range(k) if mask >> j & 1]
        rest = [v for v in members if v not in side]
        best = min(best, float(weights[np.ix_(side, rest)].sum()))
    return best


def _assert_layer_checks_exact(hk, st, theta):
    rep = check_layer_connectivity(hk, st, theta)
    weights = hk.x.to_matrix(hk.n)
    layers = [list(layer) for layer in st.layers]
    for layer, conn in zip(layers, rep.connectivity):
        if len(layer) == 1:
            assert conn == math.inf
        else:
            assert conn == pytest.approx(_min_bipartition(weights, layer), rel=1e-12)
    # every bipartition of a contiguous run of middle layers costs at least
    # the run's weakest layer connectivity or consecutive gap, so the two
    # reported checks cover it
    for i in range(1, len(layers) - 1):
        for j in range(i + 1, len(layers) - 1):
            run = [v for layer in layers[i:j] for v in layer]
            if len(run) > 1:
                floor = min(rep.connectivity[i:j] + rep.consecutive[i : j - 1])
                assert _min_bipartition(weights, run) >= floor - 1e-12
    return rep


# (n, seed, density) of graphs whose narrow-cut layers are not all singletons
LAYERED_GRAPHS = [(9, 703, 0.2), (10, 709, 0.2), (10, 711, 0.2), (12, 702, 0.2), (12, 711, 0.35)]


@pytest.mark.parametrize("n, seed, density", LAYERED_GRAPHS)
@pytest.mark.parametrize("theta", [0.1, THETA])
def test_layer_connectivity_matches_enumeration(n, seed, density, theta):
    g = random_connected_graph(n, seed, density)
    hk = hk_solve(metric_closure(g))
    st = compute_narrow_cuts(hk, 1.0 - theta)
    assert max(len(layer) for layer in st.layers) > 1
    assert _assert_layer_checks_exact(hk, st, theta).all_hold


# x* of (11, 24, 0.2) has s-t cuts of 5/3, narrow at the ratio theta (tau =
# 0.877) but not at the gap theta (tau = 0.627); every other graph here and
# every random metric in the tests has cut values 1 or >= 2 only
TAU_SENSITIVE_GRAPH = (11, 24, 0.2)


@pytest.mark.parametrize(
    "n, seed, density",
    LAYERED_GRAPHS + [TAU_SENSITIVE_GRAPH] + [(n, 400 + n, 0.35) for n in range(5, 13)],
)
def test_layers_match_the_all_pairs_rule(n, seed, density):
    """Gomory-Hu layers and prefix capacities equal the definition's at the
    ratio and the gap theta."""
    hk = hk_solve(metric_closure(random_connected_graph(n, seed, density)))
    eager = forced_cuts_eager(hk)
    for theta in (RATIO_CONSTANTS[0], GAP_CONSTANTS[0]):
        st = compute_narrow_cuts(hk, 1.0 - theta)
        assert (st.layers, st.prefix_caps) == narrow_layers_by_pairs(hk, 1.0 - theta, eager)


@pytest.mark.parametrize("seed", range(8))
def test_layer_connectivity_matches_enumeration_on_any_layering(seed):
    """Random fractional points and random layerings, n <= 12."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    x = EdgeVector(
        {(u, v): float(rng.uniform(0.05, 1.0)) for u, v in all_edges(n) if rng.random() < 0.5}
    )
    hk = HKSolution(x, 0.0, 0, n, 0, n - 1)
    cuts = np.sort(rng.choice(np.arange(2, n - 1), size=int(rng.integers(1, n - 3)), replace=False))
    middle = tuple(tuple(part.tolist()) for part in np.split(np.arange(1, n - 1), cuts - 1))
    st = NarrowCutStructure(1.0 - THETA, ((0,), *middle, (n - 1,)), (), ())
    _assert_layer_checks_exact(hk, st, THETA)


def test_layer_connectivity_requires_matching_tau():
    g = random_connected_graph(6, 1)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    st = compute_narrow_cuts(hk, 0.5)
    with pytest.raises(InvalidInstanceError):
        check_layer_connectivity(hk, st, THETA)


def test_solve_graphical_small_goes_exact():
    g = GraphicalInstance(4, ((0, 2), (2, 3), (3, 1)), 0, 1)
    res = solve_graphical(g)
    assert res.cost == 3.0
    assert res.method == "exact-small"


def test_solve_graphical_candidates_and_report():
    g = random_connected_graph(9, 77)
    res = solve_graphical(g)
    inst = metric_closure(g)
    opt = exact_path_tsp(inst).optimum
    assert res.cost >= opt - 1e-9
    assert res.candidates["hb"] >= opt - 1e-9
    assert res.candidates["hc"] >= opt - 1e-9
    assert res.candidates["ha"] is None
    assert res.bounds["rho"] < 1.5780
    assert res.bounds["certifying_case"] in (
        "first(oracle)",
        "second(traversal)",
        "third(pipeline)",
    )


def test_solve_graphical_with_plugged_oracle():
    g = random_connected_graph(8, 78)
    inst = metric_closure(g)
    exact = exact_path_tsp(inst)

    def oracle(graph):
        return exact.witness, exact.optimum

    res = solve_graphical(g, a0=oracle)
    assert res.candidates["ha"] == pytest.approx(exact.optimum)
    assert res.cost == pytest.approx(exact.optimum)
