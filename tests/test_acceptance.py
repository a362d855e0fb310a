"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The random-metric suite (200 instances, n in [4,12]) is built once and its
pipeline artifacts are shared across criteria; the prize-collecting and
graphical suites are smaller and independent. Bounds are pinned to the
published constants with 1e-6 relative slack.
"""

import math
import time

import numpy as np
import pytest

from conftest import enumerate_cut_check, random_connected_graph
from pathtsp.decompose import decompose
from pathtsp.exact import brute_force_matching, exact_path_tsp, exact_pc_path
from pathtsp.graphical import (
    GAP_CONSTANTS,
    RATIO_CONSTANTS,
    build_layer_traversal,
    ratio_expression,
)
from pathtsp.heldkarp import hk_solve
from pathtsp.instances import generate_random_metric, metric_closure
from pathtsp.narrowcuts import (
    VARIANT_TAU,
    build_certificate,
    compute_narrow_cuts,
    pairwise_forced_cuts,
    solve_fractional_disjoint,
    verify_certificate,
)
from pathtsp.prize import PCInstance, pc_solve
from pathtsp.solver import baseline_bounds_check, solve_bom, solve_hoogeveen
from pathtsp.tjoin import min_tjoin, wrong_parity_set

GOLDEN_BOUND = 1.6180340
RATIO_CAP = 1.6180341
SUITE_SIZE = 200
PC_SUITE_SIZE = 100
GRAPH_SUITE_SIZE = 100
NARROW_TAUS = (1.0 / 7.0, 0.2, 1.0 - 0.12297)
COST_CHAIN = {"simple53": 5.0 / 3.0, "qi": 1.6577, "iint": (9.0 - math.sqrt(33)) / 2.0}


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


class _Bundle:
    """Pipeline artifacts for one suite instance, computed lazily."""

    def __init__(self, inst):
        self.inst = inst
        self.hk = None
        self.combo = None
        self.solution = None
        self._pair_cuts = None
        self._structures = {}
        self._flows = {}
        self._parities = None

    def run_pipeline(self):
        self.hk = hk_solve(self.inst)
        self.combo = decompose(self.hk)
        self.solution = solve_bom(self.inst, hk=self.hk, combo=self.combo)

    @property
    def pair_cuts(self):
        if self._pair_cuts is None:
            self._pair_cuts = pairwise_forced_cuts(self.hk)
        return self._pair_cuts

    def structure(self, tau):
        if tau not in self._structures:
            self._structures[tau] = compute_narrow_cuts(self.hk, tau, self.pair_cuts)
        return self._structures[tau]

    def flows(self, tau):
        if tau not in self._flows:
            self._flows[tau] = solve_fractional_disjoint(self.structure(tau), self.hk)
        return self._flows[tau]

    @property
    def parities(self):
        if self._parities is None:
            self._parities = [
                wrong_parity_set(tree, self.hk.s, self.hk.t)
                for tree in self.combo.trees
            ]
        return self._parities


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(2024)
    bundles = []
    for i in range(SUITE_SIZE):
        n = int(rng.integers(4, 13))
        bundles.append(_Bundle(generate_random_metric(n, i)))
    start = time.monotonic()
    for b in bundles:
        b.run_pipeline()
    elapsed = time.monotonic() - start
    return {"bundles": bundles, "pipeline_seconds": elapsed}


def test_criterion_1_golden_ratio_guarantee(suite):
    worst = 0.0
    for b in suite["bundles"]:
        bound = GOLDEN_BOUND * b.hk.value * (1 + 1e-6)
        avg = b.solution.weighted_average
        assert avg <= bound, (b.inst.n, avg / b.hk.value)
        assert b.solution.cost <= bound
        worst = max(worst, avg / b.hk.value)
    elapsed = suite["pipeline_seconds"]
    ok = elapsed < 60.0
    _report(
        1,
        "golden-ratio guarantee",
        ok,
        f"{SUITE_SIZE} instances in {elapsed:.1f}s, worst avg ratio {worst:.7f}",
    )


def test_criterion_2_certificate_feasibility(suite):
    checked = 0
    for b in suite["bundles"]:
        for variant in ("simple53", "qi", "iint", "golden"):
            tau = VARIANT_TAU[variant]
            structure = b.structure(tau) if tau > 0 else None
            flows = b.flows(tau) if variant == "golden" else None
            for tree, T in zip(b.combo.trees, b.parities):
                cert = build_certificate(b.hk, tree, T, variant, structure, flows)
                report = verify_certificate(cert, b.inst)
                assert report.feasible, (variant, report.worst_value)
                assert report.worst_value >= 1.0 - 1e-7
                checked += 1
    _report(2, "certificate feasibility", True, f"{checked} certificates verified")


def test_criterion_3_cost_chain_bounds(suite):
    margins = {v: math.inf for v in COST_CHAIN}
    for b in suite["bundles"]:
        for variant, guarantee in COST_CHAIN.items():
            tau = VARIANT_TAU[variant]
            structure = b.structure(tau) if tau > 0 else None
            weighted = 0.0
            for tree, T, lam in zip(b.combo.trees, b.parities, b.combo.lambdas):
                cert = build_certificate(b.hk, tree, T, variant, structure)
                tree_cost = sum(b.inst.cost[u, v] for u, v in tree)
                weighted += lam * (tree_cost + cert.y.dot_costs(b.inst))
            bound = guarantee * b.hk.value * (1 + 1e-6)
            assert weighted <= bound, (variant, weighted / b.hk.value)
            margins[variant] = min(margins[variant], bound - weighted)
    detail = ", ".join(f"{v} min margin {m:.2e}" for v, m in margins.items())
    _report(3, "cost-chain bounds", True, detail)


def test_criterion_4_exact_oracle_sanity(suite):
    worst_ratio = 0.0
    for b in suite["bundles"]:
        opt = exact_path_tsp(b.inst).optimum
        assert b.solution.cost >= opt - 1e-9
        assert b.hk.value <= opt + 1e-7
        ratio = b.solution.cost / opt
        assert ratio <= RATIO_CAP
        worst_ratio = max(worst_ratio, ratio)
    _report(4, "exact-oracle sanity", True, f"worst output/OPT {worst_ratio:.7f}")


def test_criterion_5_decomposition_quality(suite):
    worst_residual = 0.0
    worst_marginal = 0.0
    for b in suite["bundles"]:
        combo = b.combo
        assert combo.residual <= 1e-6
        assert abs(sum(combo.lambdas) - 1.0) <= 1e-9
        support = b.hk.x.support(1e-9)
        assert len(combo.trees) <= len(support) + 1
        for e in support:
            marginal = sum(
                lam for tree, lam in zip(combo.trees, combo.lambdas) if e in tree
            )
            err = abs(marginal - b.hk.x.get(*e))
            worst_marginal = max(worst_marginal, err)
            assert err <= 1e-6
        worst_residual = max(worst_residual, combo.residual)
    _report(
        5,
        "decomposition quality",
        True,
        f"max residual {worst_residual:.2e}, max marginal error {worst_marginal:.2e}",
    )


def test_criterion_6_narrow_cut_structure(suite):
    structures = 0
    for b in suite["bundles"]:
        for tau in NARROW_TAUS:
            st = b.structure(tau)
            enum = enumerate_cut_check(b.hk.x, b.inst, ("narrow", tau))
            assert st.prefixes() == [e[0] for e in enum], (b.inst.n, tau)
            for cap, edges in zip(st.prefix_caps, st.representatives):
                assert b.hk.x.mass(edges) > 0.5 * (1 - tau + cap) - 1e-9
            flow = b.flows(tau)
            assert abs(flow.value - (st.ell - 1)) <= 1e-7
            structures += 1
    _report(6, "narrow-cut structure", True, f"{structures} structures matched")


def test_criterion_7_parity_probability_invariant(suite):
    taus = set(NARROW_TAUS) | {VARIANT_TAU["golden"], VARIANT_TAU["iint"]}
    checked = 0
    for b in suite["bundles"]:
        parity_sets = [T.vertices for T in b.parities]
        for tau in taus:
            st = b.structure(tau)
            for prefix, cap in zip(st.prefixes(), st.prefix_caps):
                odd_mass = sum(
                    lam
                    for lam, T in zip(b.combo.lambdas, parity_sets)
                    if len(prefix & T) % 2 == 1
                )
                assert odd_mass <= cap - 1.0 + 1e-6, (b.inst.n, tau, odd_mass, cap)
                checked += 1
    _report(7, "parity-probability invariant", True, f"{checked} narrow cuts checked")


def test_criterion_8_baseline_bounds(suite):
    for b in suite["bundles"]:
        rep = baseline_bounds_check(b.inst, b.hk)
        assert rep.all_hold, rep
        hoo = solve_hoogeveen(b.inst, b.hk)
        assert hoo.cost <= (5.0 / 3.0) * b.hk.value * (1 + 1e-6)
    _report(8, "baseline tree and join bounds", True, f"{SUITE_SIZE} instances")


def test_criterion_9_prize_collecting():
    rng = np.random.default_rng(777)
    start = time.monotonic()
    for i in range(PC_SUITE_SIZE):
        n = int(rng.integers(4, 11))
        inst = generate_random_metric(n, 10_000 + i)
        prizes = np.zeros(n)
        for v in inst.internal:
            prizes[v] = float(rng.uniform(0.0, 1.0))
        pc = PCInstance(inst, prizes)
        res = pc_solve(pc)
        lp = res.lp_value
        assert res.expectation <= 1.9535 * lp * (1 + 1e-6), (i, res.expectation / lp)
        assert res.objective <= res.expectation + 1e-9
        assert res.objective >= exact_pc_path(pc).optimum - 1e-9
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    _report(
        9,
        "prize-collecting combination",
        ok,
        f"{PC_SUITE_SIZE} instances in {elapsed:.1f}s",
    )


def test_criterion_10_graphical():
    theta = RATIO_CONSTANTS[0]
    rng = np.random.default_rng(31337)
    rho, _ = ratio_expression(*RATIO_CONSTANTS)
    gap, _ = ratio_expression(*GAP_CONSTANTS, n=7)
    assert rho < 1.5780 and gap < 1.6137
    for i in range(GRAPH_SUITE_SIZE):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, 20_000 + i, density=float(rng.uniform(0.2, 0.6)))
        inst = metric_closure(g)
        hk = hk_solve(inst)
        lt = build_layer_traversal(g, hk, theta)
        assert lt.augmented_cost == 2 * (n - 1) - lt.plt_cost + 2 * lt.eta_cost
        assert theta * lt.eta_cost <= hk.value - (n - 1) + 1e-6
    _report(
        10,
        "graphical traversal and constants",
        True,
        f"{GRAPH_SUITE_SIZE} graphs, rho {rho:.5f}, gap {gap:.5f}",
    )


def test_criterion_11_tjoin_optimality(suite):
    checked = 0
    for b in suite["bundles"]:
        for T in b.parities:
            if not (0 < len(T) <= 8):
                continue
            join = min_tjoin(b.inst, T)
            _, brute = brute_force_matching(sorted(T.vertices), b.inst.c)
            assert join.cost == pytest.approx(brute, abs=1e-9)
            checked += 1
    _report(11, "T-join optimality", True, f"{checked} joins vs exhaustive pairing")
