import math

import numpy as np
import pytest

from conftest import (
    G12,
    G12_LAYERS,
    edmonds_karp,
    enumerate_cut_check,
    forced_cuts_eager,
    hamiltonian_path_instance,
    narrow_layers_by_pairs,
)
from pathtsp import maxflow, narrowcuts
from pathtsp.decompose import decompose
from pathtsp.errors import InvalidInstanceError, InvariantError
from pathtsp.exact import all_cut_capacities
from pathtsp.heldkarp import HKSolution, hk_solve
from pathtsp.instances import EdgeVector, generate_random_metric, metric_closure
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


def _hand_pair_cuts(n, narrow):
    """Forced-cut values over the internals 1..n-2: 0.5 (narrow at any tau)
    for the ordered pairs in `narrow`, 2.0 (never narrow) elsewhere."""
    internals = range(1, n - 1)
    return {
        (u, v): 0.5 if (u, v) in narrow else 2.0
        for u in internals
        for v in internals
        if u != v
    }


def test_tied_vertices_share_a_layer():
    """Random metric (12, 26) has a layer of four and a layer of two at the
    golden tau: within a layer neither forced cut is narrow, across
    consecutive layers the forward one is."""
    hk = hk_solve(generate_random_metric(12, 26))
    tau = VARIANT_TAU["golden"]
    eager = forced_cuts_eager(hk)
    st = compute_narrow_cuts(hk, tau)
    assert st.layers == ((0,), (3, 4, 5, 7), (2, 6), (11,), (8,), (9,), (10,), (1,))
    assert (st.layers, st.prefix_caps) == narrow_layers_by_pairs(hk, tau, eager)
    for i, layer in enumerate(st.layers[1:-1], start=1):
        for u in layer:
            assert all(eager[(u, v)] >= 1 + tau for v in layer if v != u)
            for later in st.layers[i + 1 : -1]:
                assert all(eager[(u, v)] < 1 + tau <= eager[(v, u)] for v in later)


@pytest.mark.parametrize(
    "narrow",
    [
        {(1, 3), (2, 3)},  # ties 1 and 2, which the path puts in two layers
        {(1, 2)},  # not even a strict weak order
        {(1, 2), (2, 3), (1, 3), (3, 2)},  # a backward narrow cut
    ],
    ids=["tie", "not_weak_order", "backward"],
)
def test_pair_cuts_that_disagree_with_the_layering_raise(narrow):
    """The path 0-1-2-3-4 has singleton layers; a hand forced-cut mapping
    that says otherwise on consecutive vertices is refused."""
    _, hk, _ = _path_hk(5, 0)
    with pytest.raises(InvariantError, match="disagree with the Gomory-Hu layers"):
        compute_narrow_cuts(hk, 0.5, _hand_pair_cuts(5, narrow))


def test_narrow_cut_leaving_s_and_t_together_raises():
    """x* = the path 0-1-4-5 plus the pendant 1 -0.3- 2 -1- 3 -0.3- 4: the
    set {2, 3} costs 0.6 < 1 + tau but separates nothing, so this x* is not
    Held-Karp feasible and its Gomory-Hu tree has a narrow edge off the
    s-t path."""
    n = 6
    x = EdgeVector({(0, 1): 1.0, (1, 4): 1.0, (4, 5): 1.0, (1, 2): 0.3, (2, 3): 1.0, (3, 4): 0.3})
    assert x.cut({2, 3}) == pytest.approx(0.6)
    hk = HKSolution(x, 0.0, 0, n, 0, n - 1)
    with pytest.raises(InvariantError, match="leaves s and t on one side"):
        compute_narrow_cuts(hk, 0.5)


def test_endpoint_sharing_a_layer_raises():
    """x*(delta(s)) = 2 on the path 0=1-2-3-4: no narrow cut separates s
    from its neighbour, so s cannot form the first layer."""
    x = EdgeVector({(0, 1): 2.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0})
    hk = HKSolution(x, 0.0, 0, 5, 0, 4)
    with pytest.raises(InvariantError, match="endpoint shares"):
        compute_narrow_cuts(hk, 0.5)


def test_tau_one_leaves_tight_nonseparating_cuts_wide():
    """A Gomory-Hu edge of G12's x* reads 2 - 4e-16 off the s-t path; at
    tau = 1 it is a tight non-separating cut, not a narrow one, so the
    layers equal those at tau = 0.999."""
    hk = hk_solve(metric_closure(G12))
    at_one, below = compute_narrow_cuts(hk, 1.0), compute_narrow_cuts(hk, 0.999)
    assert at_one.layers == below.layers == G12_LAYERS
    assert at_one.prefix_caps == below.prefix_caps


NARROW_TAUS = (0.05, 1.0 / 7.0, 0.3, 0.5, 3.0 - math.sqrt(5.0), 1.0 - 0.12297, 1.0)


@pytest.mark.parametrize("n", [6, 9, 12, 17])
@pytest.mark.parametrize("seed", range(10))
def test_layers_match_the_all_pairs_rule(n, seed):
    """Gomory-Hu layers and prefix capacities equal the definition's, with
    the lazy mapping shared across tau and a fresh one by default; every
    forced cut equals the eager probe's."""
    hk = hk_solve(generate_random_metric(n, seed))
    eager = forced_cuts_eager(hk)
    lazy = pairwise_forced_cuts(hk)
    for tau in NARROW_TAUS:
        st = compute_narrow_cuts(hk, tau, lazy)
        assert (st.layers, st.prefix_caps) == narrow_layers_by_pairs(hk, tau, eager)
    assert compute_narrow_cuts(hk, NARROW_TAUS[0]) == compute_narrow_cuts(hk, NARROW_TAUS[0], eager)
    assert list(lazy) == list(eager)
    assert dict(lazy) == eager


def test_forced_cuts_are_probed_on_first_access(monkeypatch):
    hk = hk_solve(generate_random_metric(9, 2))
    calls = []
    real = narrowcuts.min_cut_merged

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(narrowcuts, "min_cut_merged", record)
    lazy = pairwise_forced_cuts(hk)
    assert len(lazy) == 7 * 6 and (2, 3) in lazy and (0, 3) not in lazy
    assert calls == []
    first = lazy[(2, 3)]
    assert lazy[(2, 3)] == first and len(calls) == 1
    with pytest.raises(KeyError):
        lazy[(3, 3)]
    assert len(calls) == 1


@pytest.mark.parametrize("tau", [1.0 / 7.0, VARIANT_TAU["golden"]])
def test_narrow_cuts_run_n_minus_1_plus_2_n_minus_3_flows(monkeypatch, tau):
    """One Gomory-Hu tree (n - 1 flows) and the two forced cuts of each
    consecutive internal pair, where the all-pairs rule ran (n-2)(n-3)."""
    n = 17
    hk = hk_solve(generate_random_metric(n, 2))
    calls = []
    real = maxflow.push_relabel

    def record(cap, s, t):
        calls.append(cap.shape[0])
        return real(cap, s, t)

    monkeypatch.setattr(maxflow, "push_relabel", record)
    compute_narrow_cuts(hk, tau)
    assert len(calls) <= (n - 1) + 2 * (n - 3)


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


@pytest.mark.parametrize("n, seed", [(9, 59), (12, 3), (16, 2), (17, 2), (18, 2)])
def test_verify_gomory_hu_branch_matches_enumeration_above_cap(n, seed):
    """verify_certificate reads the minimum odd cut off a Gomory-Hu tree at
    every n; it must equal the exhaustive minimum over odd cuts, on every
    golden certificate and on x* scaled by 0.7, under the first tree's T
    and under T = {s, t}, whose s-t cuts fall to 0.7."""
    inst = generate_random_metric(n, seed)
    hk = hk_solve(inst)
    combo = decompose(hk)
    structure = compute_narrow_cuts(hk, VARIANT_TAU["golden"])
    flows = solve_fractional_disjoint(structure, hk)
    certs = []
    for tree in combo.trees:
        T = wrong_parity_set(tree, hk.s, hk.t)
        if len(T) > 0:
            certs.append(build_certificate(hk, tree, T, "golden", structure, flows))
    tree_T = wrong_parity_set(combo.trees[0], hk.s, hk.t)
    for T in (tree_T or ParitySet(frozenset({0, 2})), ParitySet(frozenset({hk.s, hk.t}))):
        certs.append(DominatorCertificate(hk.x.scale(0.7), "golden", 0.0, 0.7, 0.0, T))
    for cert in certs:
        report = verify_certificate(cert, inst)
        tset = sorted(cert.parity_set.vertices)
        memb, caps = all_cut_capacities(cert.y, n)
        least = float(caps[memb[:, tset].sum(axis=1) % 2 == 1].min())
        assert report.worst_value == pytest.approx(least, abs=1e-9)
        assert report.feasible == (least >= 1.0 - narrowcuts.FEAS_TOL)
        cut = report.worst_cut
        assert len(cut & cert.parity_set.vertices) % 2 == 1
        crossing = sum(w for (u, v), w in cert.y.values.items() if (u in cut) != (v in cut))
        assert crossing == pytest.approx(least, abs=1e-9)
    assert not report.feasible  # the last certificate, under T = {s, t}


def test_verify_refuses_negative_entries():
    """Gomory-Hu flows read a negative y entry as 0 while cut sums count it,
    so the minimum odd cut would be misread."""
    inst = generate_random_metric(6, 1)
    y = EdgeVector({(0, 1): 1.0, (1, 2): -0.5, (2, 5): 1.0})
    cert = DominatorCertificate(y, "golden", 0.0, 0.0, 0.0, ParitySet(frozenset({0, 5})))
    with pytest.raises(InvalidInstanceError, match="negative"):
        verify_certificate(cert, inst)


@pytest.mark.parametrize("n", [6, 17])
def test_verify_disconnected_certificate_fails_at_zero(n):
    """A y whose support has a T-odd component, and y = 0, both have a T-odd
    cut of capacity 0."""
    inst = generate_random_metric(n, 1)
    T = ParitySet(frozenset({0, 1, 2, n - 1}))
    # two paths, over 0..2 and over 3..n-1; the first holds three T vertices
    split = EdgeVector({(v, v + 1): 1.0 for v in range(n - 1) if v != 2})
    for y in (split, EdgeVector()):
        report = verify_certificate(DominatorCertificate(y, "golden", 0.0, 0.0, 0.0, T), inst)
        assert not report.feasible
        assert report.worst_value == 0.0
        assert len(report.worst_cut & T.vertices) % 2 == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_cost_bounds_hold(variant):
    for seed, n in FRACTIONAL_SEEDS:
        inst = generate_random_metric(n, seed)
        hk = hk_solve(inst)
        combo = decompose(hk)
        rep = certificate_cost_bound(inst, hk, combo, variant)
        assert rep.holds, rep
        assert rep.weighted_total <= GUARANTEE[variant] * hk.value * (1 + 1e-6)


def test_cost_bound_refuses_a_combination_cut_to_one_lambda():
    """(12, 2) decomposes into two trees. Zipped with one lambda they would
    report holds=True on half the weighted total (2.17 against 4.06)."""
    inst = generate_random_metric(12, 2)
    hk = hk_solve(inst)
    combo = decompose(hk)
    assert len(combo.trees) == 2
    with pytest.raises(ValueError, match="2 trees but 1 lambdas"):
        cut = type(combo)(combo.trees, combo.lambdas[:1], combo.residual)
        certificate_cost_bound(inst, hk, cut, "golden")


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
