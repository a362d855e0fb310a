import math

import numpy as np
import pytest

from conftest import edmonds_karp, hamiltonian_path_instance
from pathtsp import narrowcuts
from pathtsp.decompose import decompose
from pathtsp.errors import InvalidInstanceError
from pathtsp.exact import all_cut_capacities, enumerate_cut_check
from pathtsp.heldkarp import HKSolution, hk_solve
from pathtsp.instances import EdgeVector, generate_random_metric
from pathtsp.narrowcuts import (
    ALPHA_BETA,
    GUARANTEE,
    VARIANT_TAU,
    VARIANTS,
    DominatorCertificate,
    build_certificate,
    certificate_cost_bound,
    compute_narrow_cuts,
    pairwise_forced_cuts,
    representative_vectors,
    solve_fractional_disjoint,
    verify_certificate,
)
from pathtsp.tjoin import ParitySet, min_tjoin, wrong_parity_set

FRACTIONAL_SEEDS = [(26, 12), (44, 12), (59, 9), (105, 10)]


def _path_hk(n, seed):
    inst, path_edges = hamiltonian_path_instance(n, seed)
    x = EdgeVector.from_edges(path_edges)
    value = x.dot_costs(inst)
    return inst, HKSolution(x, value, 0, n, inst.s, inst.t), path_edges


def test_variant_tables_match_formula():
    for variant, (alpha, beta) in ALPHA_BETA.items():
        formula = (1.0 - 2.0 * alpha) / beta - 1.0
        assert VARIANT_TAU[variant] == pytest.approx(formula, abs=1e-12)
    assert GUARANTEE["golden"] == pytest.approx((1 + math.sqrt(5)) / 2)
    assert GUARANTEE["iint"] == pytest.approx((9 - math.sqrt(33)) / 2)
    # the qi chain 1 + alpha + beta + tau * A stays below its published cap
    a, b = ALPHA_BETA["qi"]
    tau = VARIANT_TAU["qi"]
    A = (1 - (2 * a + b)) / (1 - tau / 2)
    assert 1 + a + b + tau * A < GUARANTEE["qi"]


def test_hamiltonian_path_layers_are_singletons():
    n = 6
    inst, hk, path_edges = _path_hk(n, 4)
    for tau in (0.1, 0.5, 1.0):
        st = compute_narrow_cuts(hk, tau)
        assert st.ell == n
        assert st.layers == tuple((v,) for v in range(n))
        assert all(c == pytest.approx(1.0) for c in st.prefix_caps)


def test_unit_triangle_layers(unit_triangle):
    hk = hk_solve(unit_triangle)
    st = compute_narrow_cuts(hk, 0.5)
    assert st.layers == ((0,), (2,), (1,))
    assert st.prefix_caps == (1.0, 1.0)


def test_tau_out_of_range_rejected():
    _, hk, _ = _path_hk(5, 0)
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidInstanceError):
            compute_narrow_cuts(hk, bad)


@pytest.mark.parametrize("seed,n", FRACTIONAL_SEEDS)
def test_structure_matches_enumeration(seed, n):
    inst = generate_random_metric(n, seed)
    hk = hk_solve(inst)
    pair_cuts = pairwise_forced_cuts(hk)
    for tau in (1.0 / 7.0, 0.2, 1.0 - 0.12297):
        st = compute_narrow_cuts(hk, tau, pair_cuts)
        enum = enumerate_cut_check(hk.x, inst, ("narrow", tau))
        assert st.prefixes() == [e[0] for e in enum]
        # non-crossing: enumerated narrow cuts are nested
        sets = [e[0] for e in enum]
        for a in sets:
            for b in sets:
                assert a <= b or b <= a


def test_representatives_on_path_are_unit_masses():
    n = 5
    _, hk, path_edges = _path_hk(n, 7)
    st = compute_narrow_cuts(hk, 0.3)
    vecs = representative_vectors(st, hk)
    assert [v.values for v in vecs] == [{e: 1.0} for e in path_edges]


def test_representatives_disjoint_and_below_x(unit_triangle):
    for seed, n in FRACTIONAL_SEEDS:
        inst = generate_random_metric(n, seed)
        hk = hk_solve(inst)
        st = compute_narrow_cuts(hk, VARIANT_TAU["golden"])
        vecs = representative_vectors(st, hk)
        seen = set()
        total = EdgeVector()
        for vec in vecs:
            assert not (set(vec.values) & seen)
            seen |= set(vec.values)
            total = total.add(vec)
        for e, w in total.values.items():
            assert w <= hk.x.get(*e) + 1e-12
        # representative mass lower bound per layer
        for cap, edges in zip(st.prefix_caps, st.representatives):
            assert hk.x.mass(edges) > 0.5 * (1 - st.tau + cap) - 1e-9


def test_flow_on_path_is_tight():
    n = 6
    _, hk, path_edges = _path_hk(n, 2)
    st = compute_narrow_cuts(hk, 0.4)
    fa = solve_fractional_disjoint(st, hk)
    assert fa.value == pytest.approx(n - 1)
    assert [v.values for v in fa.vectors] == [{e: 1.0} for e in path_edges]


def test_flow_unit_triangle(unit_triangle):
    hk = hk_solve(unit_triangle)
    st = compute_narrow_cuts(hk, 0.5)
    fa = solve_fractional_disjoint(st, hk)
    assert fa.value == pytest.approx(2.0)


@pytest.mark.parametrize("seed,n", FRACTIONAL_SEEDS[:2])
def test_flow_value_matches_second_algorithm(seed, n):
    """Re-solve the auxiliary network with BFS augmenting paths."""
    inst = generate_random_metric(n, seed)
    hk = hk_solve(inst)
    st = compute_narrow_cuts(hk, VARIANT_TAU["golden"])
    fa = solve_fractional_disjoint(st, hk)
    prefixes = st.prefixes()
    m = len(prefixes)
    layer_of = {v: i for i, layer in enumerate(st.layers) for v in layer}
    edges = sorted(hk.x.values)
    crossing = {}
    for e in edges:
        lu, lv = sorted((layer_of[e[0]], layer_of[e[1]]))
        cuts = [i for i in range(m) if lu <= i < lv]
        if cuts:
            crossing[e] = cuts
    used = sorted(crossing)
    size = 2 + m + len(used)
    cap = np.zeros((size, size))
    for i in range(m):
        cap[0, 1 + i] = 1.0
    for j, e in enumerate(used):
        cap[1 + m + j, size - 1] = hk.x.values[e]
        for i in crossing[e]:
            cap[1 + i, 1 + m + j] = 1e9
    assert fa.value == pytest.approx(edmonds_karp(cap, 0, size - 1), abs=1e-7)
    total = EdgeVector()
    for vec in fa.vectors:
        assert vec.total() >= 1.0 - 1e-7
        total = total.add(vec)
    for e, w in total.values.items():
        assert w <= hk.x.get(*e) + 1e-9


def test_simple53_certificate_is_plain_combination():
    inst = generate_random_metric(7, 3)
    hk = hk_solve(inst)
    combo = decompose(hk)
    tree = combo.trees[0]
    T = wrong_parity_set(tree, hk.s, hk.t)
    cert = build_certificate(hk, tree, T, "simple53")
    expected = EdgeVector.from_edges(tree, 1.0 / 3.0).add(hk.x, 1.0 / 3.0)
    for e in set(expected.values) | set(cert.y.values):
        assert cert.y.get(*e) == pytest.approx(expected.get(*e), abs=1e-12)


def test_golden_certificate_without_odd_cuts_has_no_corrections():
    n = 6
    inst, hk, path_edges = _path_hk(n, 8)
    tree = frozenset(path_edges)
    T = wrong_parity_set(tree, hk.s, hk.t)
    assert len(T) == 0
    cert = build_certificate(hk, tree, T, "golden")
    alpha, beta = ALPHA_BETA["golden"]
    expected = EdgeVector.from_edges(tree, alpha).add(hk.x, beta)
    for e in set(expected.values) | set(cert.y.values):
        assert cert.y.get(*e) == pytest.approx(expected.get(*e), abs=1e-12)
    report = verify_certificate(cert, inst)
    assert report.feasible and report.worst_value == math.inf
    # cost identity: no corrections means (alpha + beta) * c(x*) exactly
    assert report.cost == pytest.approx((alpha + beta) * hk.value, rel=1e-9)


def test_parity_mismatch_rejected():
    inst = generate_random_metric(6, 3)
    hk = hk_solve(inst)
    combo = decompose(hk)
    tree = combo.trees[0]
    with pytest.raises(InvalidInstanceError):
        build_certificate(hk, tree, ParitySet(frozenset({0, 1})), "golden")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed,n", FRACTIONAL_SEEDS)
def test_certificates_feasible_by_enumeration(variant, seed, n):
    inst = generate_random_metric(n, seed)
    hk = hk_solve(inst)
    combo = decompose(hk)
    tau = VARIANT_TAU[variant]
    st = compute_narrow_cuts(hk, tau) if tau > 0 else None
    flows = solve_fractional_disjoint(st, hk) if variant == "golden" else None
    for tree in combo.trees:
        T = wrong_parity_set(tree, hk.s, hk.t)
        cert = build_certificate(hk, tree, T, variant, st, flows)
        report = verify_certificate(cert, inst)
        assert report.feasible, (variant, report.worst_value)
        # dominator upper-bounds the minimum T-join
        assert min_tjoin(inst, T).cost <= report.cost + 1e-9


def test_verify_empty_parity_is_vacuous(unit_triangle):
    hk = hk_solve(unit_triangle)
    cert = DominatorCertificate(
        hk.x, "golden", 0.1, 0.2, 0.3, ParitySet(frozenset())
    )
    report = verify_certificate(cert, unit_triangle)
    assert report.feasible and report.worst_value == math.inf
    assert report.worst_cut is None


def test_verify_x_star_itself_is_dominator():
    inst = generate_random_metric(8, 26)
    hk = hk_solve(inst)
    combo = decompose(hk)
    T = wrong_parity_set(combo.trees[0], hk.s, hk.t)
    cert = DominatorCertificate(hk.x, "golden", 0.0, 1.0, 0.0, T)
    assert verify_certificate(cert, inst).feasible


def test_verify_scaled_point_fails_with_witness():
    n = 6
    inst, hk, path_edges = _path_hk(n, 5)
    # T contains s and its path successor: the cut {s} has x* capacity 1
    T = ParitySet(frozenset({0, 1}))
    cert = DominatorCertificate(hk.x.scale(0.4), "golden", 0.0, 0.4, 0.0, T)
    report = verify_certificate(cert, inst)
    assert not report.feasible
    assert report.worst_value == pytest.approx(0.4, abs=1e-9)


def test_verify_gomory_hu_route_agrees_with_enumeration(monkeypatch):
    inst = generate_random_metric(9, 59)
    hk = hk_solve(inst)
    combo = decompose(hk)
    tree = combo.trees[0]
    T = wrong_parity_set(tree, hk.s, hk.t)
    if len(T) == 0:
        T = ParitySet(frozenset({0, 2}))
    cert = DominatorCertificate(hk.x.scale(0.7), "golden", 0.0, 0.7, 0.0, T)
    by_enum = verify_certificate(cert, inst)
    monkeypatch.setattr(narrowcuts, "CUT_ENUM_CAP", 4)
    by_tree = verify_certificate(cert, inst)
    assert by_tree.worst_value == pytest.approx(by_enum.worst_value, abs=1e-9)
    assert by_tree.feasible == by_enum.feasible


@pytest.mark.parametrize("n, seed", [(17, 2), (18, 2)])
def test_verify_gomory_hu_branch_matches_enumeration_above_cap(n, seed):
    """Above CUT_ENUM_CAP, verify_certificate reads the minimum odd cut off a
    Gomory-Hu tree; it must equal the exhaustive minimum over odd cuts."""
    inst = generate_random_metric(n, seed)
    hk = hk_solve(inst)
    combo = decompose(hk)
    structure = compute_narrow_cuts(hk, VARIANT_TAU["golden"])
    flows = solve_fractional_disjoint(structure, hk)
    checked = 0
    for tree in combo.trees:
        T = wrong_parity_set(tree, hk.s, hk.t)
        if len(T) == 0:
            continue
        cert = build_certificate(hk, tree, T, "golden", structure, flows)
        report = verify_certificate(cert, inst)
        tset = sorted(T.vertices)
        memb, caps = all_cut_capacities(cert.y, n)
        least = float(caps[memb[:, tset].sum(axis=1) % 2 == 1].min())
        assert report.worst_value == pytest.approx(least, abs=1e-9)
        assert report.feasible == (least >= 1.0 - narrowcuts.FEAS_TOL)
        cut = report.worst_cut
        assert len(cut & T.vertices) % 2 == 1
        crossing = sum(w for (u, v), w in cert.y.values.items() if (u in cut) != (v in cut))
        assert crossing == pytest.approx(least, abs=1e-9)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_cost_bounds_hold(variant):
    for seed, n in FRACTIONAL_SEEDS:
        inst = generate_random_metric(n, seed)
        hk = hk_solve(inst)
        combo = decompose(hk)
        rep = certificate_cost_bound(inst, hk, combo, variant)
        assert rep.holds, rep
        assert rep.weighted_total <= GUARANTEE[variant] * hk.value * (1 + 1e-6)


def test_parity_probability_bound():
    """Over the decomposition, odd-cut mass is at most capacity - 1."""
    for seed, n in FRACTIONAL_SEEDS:
        inst = generate_random_metric(n, seed)
        hk = hk_solve(inst)
        combo = decompose(hk)
        st = compute_narrow_cuts(hk, VARIANT_TAU["golden"])
        parity_sets = [
            wrong_parity_set(tree, hk.s, hk.t).vertices for tree in combo.trees
        ]
        for prefix, cap in zip(st.prefixes(), st.prefix_caps):
            odd_mass = sum(
                lam
                for lam, T in zip(combo.lambdas, parity_sets)
                if len(prefix & T) % 2 == 1
            )
            assert odd_mass <= cap - 1.0 + 1e-6
