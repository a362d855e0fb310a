import numpy as np
import pytest

from conftest import all_spanning_trees, hamiltonian_path_instance
from pathtsp.decompose import check_tree, decompose, max_weight_spanning_tree, verify_combination
from pathtsp.errors import InvalidInstanceError, NotConnectedError
from pathtsp.heldkarp import HKSolution, hk_solve
from pathtsp.instances import EdgeVector, all_edges, generate_random_metric

FRACTIONAL_SEEDS = [(26, 12), (44, 12), (52, 11), (59, 9), (105, 10)]


def path_point(inst, path_edges) -> HKSolution:
    """The integral Held-Karp point of a Hamiltonian s-t path."""
    x = EdgeVector.from_edges(path_edges)
    return HKSolution(x, x.dot_costs(inst), 0, inst.n, inst.s, inst.t)


def test_mst_on_support_of_forced_triangle(unit_triangle):
    x = EdgeVector({(0, 2): 1.0, (1, 2): 1.0})
    assert max_weight_spanning_tree(3, x) == frozenset({(0, 2), (1, 2)})


def test_mst_tie_break_is_lexicographic():
    ev = EdgeVector({e: 1.0 for e in all_edges(4)})
    assert max_weight_spanning_tree(4, ev) == frozenset(
        {(0, 1), (0, 2), (0, 3)}
    )


def test_mst_matches_cayley_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(6):
        ev = EdgeVector({e: float(rng.normal()) for e in all_edges(5)})
        tree = max_weight_spanning_tree(5, ev)
        got = sum(ev.get(*e) for e in tree)
        best = max(
            sum(ev.get(*e) for e in t) for t in all_spanning_trees(5)
        )
        assert got == pytest.approx(best, abs=1e-12)


def test_mst_disconnected_support_raises():
    x = EdgeVector({(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(NotConnectedError):
        max_weight_spanning_tree(4, x)


def test_integral_point_gives_single_tree():
    inst, path_edges = hamiltonian_path_instance(7, 1)
    combo = decompose(path_point(inst, path_edges))
    assert len(combo.trees) == 1
    assert combo.lambdas == (1.0,)
    assert combo.trees[0] == frozenset(path_edges)
    assert combo.residual <= 1e-9


def test_half_half_combination_recovered():
    t1 = frozenset({(0, 1), (1, 2), (2, 3)})
    t2 = frozenset({(0, 2), (1, 3), (0, 3)})
    x = EdgeVector.from_edges(t1, 0.5).add(EdgeVector.from_edges(t2), 0.5)
    # decompose reads only x and n of the point
    combo = decompose(HKSolution(x, 0.0, 0, 4, 0, 3))
    assert combo.residual <= 1e-6
    assert sum(combo.lambdas) == pytest.approx(1.0, abs=1e-9)
    combined = EdgeVector()
    for tree, lam in zip(combo.trees, combo.lambdas):
        combined = combined.add(EdgeVector.from_edges(tree), lam)
    for e in x.values:
        assert combined.get(*e) == pytest.approx(x.get(*e), abs=1e-6)


def test_unit_triangle_single_tree(unit_triangle):
    combo = decompose(hk_solve(unit_triangle))
    assert combo.trees == (frozenset({(0, 2), (1, 2)}),)
    assert combo.lambdas == (1.0,)


@pytest.mark.parametrize("seed,n", FRACTIONAL_SEEDS)
def test_fractional_solutions_decompose(seed, n):
    inst = generate_random_metric(n, seed)
    hk = hk_solve(inst)
    combo = decompose(hk)
    ok, deviation = verify_combination(hk, combo)
    assert ok, deviation
    assert combo.residual <= 1e-6
    assert len(combo.trees) <= len(hk.x.support(1e-9)) + 1
    # marginal property, edge by edge
    for e in hk.x.support(1e-9):
        marginal = sum(
            lam for tree, lam in zip(combo.trees, combo.lambdas) if e in tree
        )
        assert marginal == pytest.approx(hk.x.get(*e), abs=1e-6)
    # expected tree cost equals the LP value
    expected = sum(
        lam * sum(inst.cost[u, v] for u, v in tree)
        for tree, lam in zip(combo.trees, combo.lambdas)
    )
    assert expected == pytest.approx(hk.value, abs=1e-6 * max(1.0, hk.value))


def test_verify_rejects_halved_lambdas():
    inst = generate_random_metric(8, 26)
    hk = hk_solve(inst)
    combo = decompose(hk)
    broken = type(combo)(
        trees=combo.trees,
        lambdas=tuple(l / 2 for l in combo.lambdas),
        residual=combo.residual,
    )
    ok, deviation = verify_combination(hk, broken)
    assert not ok
    peak = max(hk.x.values.values())
    assert deviation == pytest.approx(peak / 2, abs=0.2 * peak)


def test_combination_refuses_a_tree_without_a_lambda():
    """verify_combination zips trees with lambdas, so a second tree with no
    lambda would go unchecked; the combination itself refuses it."""
    hk = hk_solve(generate_random_metric(8, 26))
    combo = decompose(hk)
    with pytest.raises(ValueError, match="2 trees but 1 lambdas"):
        verify_combination(hk, type(combo)(combo.trees * 2, combo.lambdas, combo.residual))


def test_verify_rejects_off_support_edge():
    inst, path_edges = hamiltonian_path_instance(6, 2)
    hk = path_point(inst, path_edges)
    combo = decompose(hk)
    tree = set(combo.trees[0])
    tree.discard((0, 1))
    tree.add((0, 5) if (0, 5) not in tree else (0, 4))
    broken = type(combo)(
        trees=(frozenset(tree),), lambdas=(1.0,), residual=combo.residual
    )
    ok, _ = verify_combination(hk, broken)
    assert not ok



@pytest.mark.parametrize(
    ("edges", "message"),
    [
        ([(0, 1), (1, 0)], "duplicate edges"),
        ([(0, 1), (2, 3)], "edge count"),
        ([(0, 1), (1, 2), (0, 2), (3, 4)], "cycle detected"),
    ],
)
def test_check_tree_names_the_defect(edges, message):
    assert check_tree([(5, 2), (2, 7)]) == {2, 5, 7}
    with pytest.raises(InvalidInstanceError, match=message):
        check_tree(edges)
