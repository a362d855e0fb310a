import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamiltonian_path_instance
from pathtsp import heldkarp
from pathtsp.errors import InvariantError
from pathtsp.exact import all_cut_capacities, exact_path_tsp
from pathtsp.heldkarp import hk_solve, hk_verify, separate
from pathtsp.instances import (
    EdgeVector,
    Instance,
    all_edges,
    generate_random_metric,
    metric_closure,
)
from pathtsp.prize import PCInstance, pc_lp_solve
from pathtsp.simplex import LinearProgram, simplex_solve

TOL = 1e-7


def test_separation_accepts_hamiltonian_path():
    inst, path_edges = hamiltonian_path_instance(6, 3)
    x = EdgeVector.from_edges(path_edges)
    assert separate(x, inst) is None


def test_separation_flags_zero_vector(unit_triangle):
    cut = separate(EdgeVector(), unit_triangle)
    assert cut is not None
    assert cut.capacity == 0.0


def test_separation_matches_enumeration_on_random_vectors():
    rng = np.random.default_rng(0)
    for trial in range(12):
        n = 6
        inst = generate_random_metric(n, trial)
        x = EdgeVector(
            {e: float(rng.uniform(0, 0.9)) for e in all_edges(n) if rng.random() < 0.8}
        )
        memb, caps = all_cut_capacities(x, n)
        separating = memb[:, inst.s] != memb[:, inst.t]
        required = np.where(separating, 1.0, 2.0)
        worst = float((required - caps).max())
        got = separate(x, inst, TOL)
        if worst <= TOL:
            assert got is None
        else:
            assert got is not None
            assert got.violation == pytest.approx(worst, abs=1e-9)


@pytest.mark.parametrize("n", [17, 18])
def test_verify_flow_branch_matches_enumeration_above_cap(n):
    """Above CUT_ENUM_CAP, hk_verify reports separate's single witness: it
    must be a most violated cut of the exhaustive scan, or absent when no
    cut is violated."""
    rng = np.random.default_rng(n)
    for trial, high in enumerate((0.15, 0.25, 0.9)):
        inst = generate_random_metric(n, trial)
        x = EdgeVector(
            {e: float(rng.uniform(0, high)) for e in all_edges(n) if rng.random() < 0.8}
        )
        memb, caps = all_cut_capacities(x, n)
        separating = memb[:, inst.s] != memb[:, inst.t]
        required = np.where(separating, 1.0, 2.0)
        worst = float((required - caps).max())
        report = hk_verify(x, inst, TOL)
        if worst <= TOL:
            assert report.cut_violations == ()
            continue
        ((side, cap, req),) = report.cut_violations
        assert req - cap == pytest.approx(worst, abs=1e-9)
        crossing = sum(w for (u, v), w in x.values.items() if (u in side) != (v in side))
        assert cap == pytest.approx(crossing, abs=1e-9)
        assert req == (1.0 if (inst.s in side) != (inst.t in side) else 2.0)


def test_hk_two_vertices():
    inst = Instance(cost=np.array([[0.0, 3.5], [3.5, 0.0]]), s=0, t=1)
    hk = hk_solve(inst)
    assert hk.value == 3.5
    assert hk.x.values == {(0, 1): 1.0}


def test_hk_unit_triangle_forced_solution(unit_triangle):
    hk = hk_solve(unit_triangle)
    assert hk.value == pytest.approx(2.0, abs=1e-9)
    assert hk.x.get(0, 2) == pytest.approx(1.0, abs=1e-9)
    assert hk.x.get(2, 1) == pytest.approx(1.0, abs=1e-9)
    assert hk.x.get(0, 1) == pytest.approx(0.0, abs=1e-9)


def _full_exponential_lp_value(inst):
    """One dense LP over the complete cut list; oracle for the row generation."""
    n = inst.n
    edges = all_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    rows, rhs = [], []
    for v in range(n):
        coeffs = [0.0] * len(edges)
        for u in range(n):
            if u != v:
                coeffs[index[(min(u, v), max(u, v))]] = 1.0
        rows.append(coeffs)
        rhs.append(1.0 if v in (inst.s, inst.t) else 2.0)
    for mask in range(1, 1 << (n - 1)):
        side = {v for v in range(n - 1) if mask >> v & 1}
        coeffs = [0.0] * len(edges)
        for i, (u, v) in enumerate(edges):
            if (u in side) != (v in side):
                coeffs[i] = 1.0
        separating = (inst.s in side) != (inst.t in side)
        rows.append(coeffs)
        rhs.append(1.0 if separating else 2.0)
    lp = LinearProgram(
        tuple(inst.cost[u, v] for u, v in edges),
        rows,
        rhs,
        n,
        tuple((0.0, 2.0) for _ in edges),
    )
    res = simplex_solve(lp)
    assert res.status == "optimal"
    return res.objective


def test_hk_five_cycle_matches_full_lp(five_cycle):
    inst = metric_closure(five_cycle)
    hk = hk_solve(inst)
    assert hk.value == pytest.approx(_full_exponential_lp_value(inst), abs=1e-7)


def test_hk_random_matches_full_lp():
    inst = generate_random_metric(6, 26)
    hk = hk_solve(inst)
    assert hk.value == pytest.approx(_full_exponential_lp_value(inst), abs=1e-7)


def test_hk_degree_equalities_and_verify():
    inst = generate_random_metric(9, 4)
    hk = hk_solve(inst)
    degree = np.zeros(inst.n)
    for (u, v), w in hk.x.values.items():
        degree[u] += w
        degree[v] += w
    for v in range(inst.n):
        want = 1.0 if v in (inst.s, inst.t) else 2.0
        assert degree[v] == pytest.approx(want, abs=TOL)
    assert hk_verify(hk.x, inst).ok


def test_hk_verify_accepts_hamiltonian_path():
    inst, path_edges = hamiltonian_path_instance(7, 2)
    assert hk_verify(EdgeVector.from_edges(path_edges), inst).ok


def test_hk_verify_scaled_point_reports_all_degrees():
    inst = generate_random_metric(6, 5)
    hk = hk_solve(inst)
    report = hk_verify(hk.x.scale(0.9), inst)
    assert {v for v, _, _ in report.degree_violations} == set(range(6))


def test_hk_value_scales_with_costs():
    inst = generate_random_metric(8, 6)
    doubled = Instance(cost=2.0 * inst.cost, s=inst.s, t=inst.t)
    a, b = hk_solve(inst), hk_solve(doubled)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-6)


def test_hk_lower_bounds_exact_optimum():
    for seed in range(8):
        inst = generate_random_metric(4 + seed, seed)
        assert hk_solve(inst).value <= exact_path_tsp(inst).optimum + 1e-7


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hk_graphical_mass_is_n_minus_one(seed):
    from conftest import random_connected_graph

    g = random_connected_graph(6, seed)
    inst = metric_closure(g)
    hk = hk_solve(inst)
    assert hk.x.total() == pytest.approx(inst.n - 1, abs=1e-6)
    assert hk.value >= inst.n - 1 - 1e-6


@pytest.mark.parametrize("solve", ["hk", "pc"])
def test_stale_cut_raises(monkeypatch, solve):
    """A probe that keeps reporting a cut the LP already has must not end the
    row generation as if the point were optimal."""
    def stale_probe(weights, source_group, sink_group):
        # capacity 0 on the source group's own star: always "violated", and
        # implied by the degree rows, so the LP optimum never changes
        return 0.0, frozenset(source_group)

    monkeypatch.setattr(heldkarp, "min_cut_merged", stale_probe)
    inst = generate_random_metric(6, 2)
    with pytest.raises(InvariantError, match="already in the LP"):
        if solve == "hk":
            hk_solve(inst)
        else:
            pc_lp_solve(PCInstance.from_internal(inst, [0.5] * 4))
