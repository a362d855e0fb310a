import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edmonds_karp, push_relabel_dense, source_side_dense
from pathtsp import maxflow, narrowcuts
from pathtsp.heldkarp import hk_solve
from pathtsp.instances import generate_random_metric
from pathtsp.maxflow import (
    cut_value,
    gomory_hu_splits,
    gomory_hu_tree,
    min_cut_merged,
    push_relabel,
    source_side,
)


def _random_caps(n, seed, density=0.6):
    rng = np.random.default_rng(seed)
    cap = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                cap[u, v] = rng.uniform(0.0, 3.0)
    return cap


def test_single_edge():
    cap = np.zeros((2, 2))
    cap[0, 1] = 2.5
    value, flow = push_relabel(cap, 0, 1)
    assert value == pytest.approx(2.5)
    assert flow[0, 1] == pytest.approx(2.5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 9))
def test_push_relabel_matches_edmonds_karp(seed, n):
    cap = _random_caps(n, seed)
    value, flow = push_relabel(cap, 0, n - 1)
    assert value == pytest.approx(edmonds_karp(cap, 0, n - 1), abs=1e-9)
    # conservation at internal nodes
    for v in range(1, n - 1):
        assert float(flow[:, v].sum()) == pytest.approx(0.0, abs=1e-9)
    # capacity respected
    assert (flow <= cap + 1e-12).all()


def test_min_cut_value_equals_flow():
    for seed in range(10):
        cap = _random_caps(7, seed)
        sym = cap + cap.T  # undirected-style capacities
        value, flow = push_relabel(sym, 0, 6)
        cutv, side = min_cut_merged(sym, [0], [6])
        assert 0 in side and 6 not in side
        assert cutv == pytest.approx(value, abs=1e-9)


def test_min_cut_merged_matches_brute_force():
    rng = np.random.default_rng(3)
    n = 7
    w = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            w[u, v] = w[v, u] = rng.uniform(0.0, 1.0)
    cap, side = min_cut_merged(w, [0, 2], [1, 5])
    best = None
    for mask in range(1 << n):
        group = {v for v in range(n) if mask >> v & 1}
        if not {0, 2} <= group or group & {1, 5}:
            continue
        best = min(best, cut_value(w, group)) if best is not None else cut_value(w, group)
    assert cap == pytest.approx(best, abs=1e-9)
    assert {0, 2} <= side and not side & {1, 5}


@pytest.mark.parametrize("seed", range(12))
def test_min_cut_merged_returns_smallest_min_source_side(seed):
    """The side is the intersection of all minimum cuts (the vertices the
    residual graph of a maximum flow reaches), on integer weights with many
    tied minimum cuts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    w = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
    w += w.T
    verts = rng.permutation(n)
    src = sorted(verts[: 1 + seed % 2].tolist())
    snk = sorted(verts[1 + seed % 2 : 2 + seed % 2 + seed // 2 % 2].tolist())
    cap, side = min_cut_merged(w, src, snk)
    rest = [v for v in range(n) if v not in src and v not in snk]
    sides = [
        frozenset(src) | {rest[j] for j in range(len(rest)) if mask >> j & 1}
        for mask in range(1 << len(rest))
    ]
    values = [cut_value(w, group) for group in sides]
    best = min(values)
    smallest = frozenset.intersection(*(g for g, v in zip(sides, values) if v == best))
    assert cap == best
    assert side == smallest
    assert all(type(v) is int for v in side)


def test_gomory_hu_tree_encodes_all_pairwise_cuts():
    rng = np.random.default_rng(9)
    n = 6
    w = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            w[u, v] = w[v, u] = rng.uniform(0.1, 2.0)
    parent, value = gomory_hu_tree(w)
    # tree edge (v, parent) value equals the direct min cut, and the split
    # realizes it
    for v, side in gomory_hu_splits(parent):
        direct = edmonds_karp(w, v, parent[v])
        assert value[v] == pytest.approx(direct, abs=1e-9)
        assert cut_value(w, side) == pytest.approx(value[v], abs=1e-9)
    # pairwise min cut = min edge value on the tree path
    children = parent
    for a in range(n):
        for b in range(a + 1, n):
            direct = edmonds_karp(w, a, b)
            # walk up from both ends to find the path minimum
            def ancestors(v):
                out = [v]
                while parent[out[-1]] >= 0:
                    out.append(parent[out[-1]])
                return out
            pa, pb = ancestors(a), ancestors(b)
            common = next(v for v in pa if v in set(pb))
            path_vals = [value[v] for v in pa[: pa.index(common)]]
            path_vals += [value[v] for v in pb[: pb.index(common)]]
            assert min(path_vals) == pytest.approx(direct, abs=1e-9)


def test_gomory_hu_splits_realize_their_values_on_sparse_graphs():
    """Every tree edge's split is a cut whose capacity is the edge's value;
    sparse graphs have the many tied and zero cuts that test the reattachment
    of earlier vertices."""
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(5, 12))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.3), 1)
        w = w + w.T
        parent, value = gomory_hu_tree(w)
        for v, side in gomory_hu_splits(parent):
            assert cut_value(w, side) == pytest.approx(value[v], abs=1e-9)
            assert value[v] == pytest.approx(edmonds_karp(w, v, parent[v]), abs=1e-9)


# Exact replay of the dense reference -----------------------------------------


def _assert_replays(cap, s, t):
    """Same value, bit for bit the same flow matrix (signed zeros included)
    and the same residual source side as the dense reference."""
    value, flow = push_relabel(cap, s, t)
    ref_value, ref_flow = push_relabel_dense(cap, s, t)
    assert value == ref_value and np.signbit(value) == np.signbit(ref_value)
    assert type(flow) is np.ndarray and flow.dtype == ref_flow.dtype
    assert np.array_equal(flow, ref_flow)
    assert np.array_equal(np.signbit(flow), np.signbit(ref_flow))
    assert source_side(cap, flow, s) == source_side_dense(cap, ref_flow, s)


def _endpoints(rng, n):
    s, t = rng.choice(n, 2, replace=False)
    return int(s), int(t)


@pytest.mark.parametrize("seed", range(40))
def test_replay_integer_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    w = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
    _assert_replays(w + w.T, *_endpoints(rng, n))


@pytest.mark.parametrize("seed", range(40))
def test_replay_sparse_fractional(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.2), 1)
    _assert_replays(w + w.T, *_endpoints(rng, n))


@pytest.mark.parametrize("k", range(-8, 9))
def test_replay_scaled(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(5):
        n = int(rng.integers(3, 12))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        _assert_replays((w + w.T) * 10.0**k, *_endpoints(rng, n))


@pytest.mark.parametrize("seed", range(40))
def test_replay_asymmetric(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    cap = _random_caps(n, seed, density=0.4)
    _assert_replays(cap, *_endpoints(rng, n))


@pytest.mark.parametrize("n, seed", [(16, 1), (17, 2)])
def test_replay_fractional_disjoint_network(monkeypatch, n, seed):
    """The auxiliary network of solve_fractional_disjoint, whose per-arc flows
    become the narrow-cut mass vectors."""
    calls = []

    def record(cap, s, t):
        calls.append((cap.copy(), s, t))
        return push_relabel(cap, s, t)

    hk = hk_solve(generate_random_metric(n, seed))
    _, _, tau = narrowcuts.variant_parameters("golden")
    structure = narrowcuts.compute_narrow_cuts(hk, tau, narrowcuts.pairwise_forced_cuts(hk))
    monkeypatch.setattr(narrowcuts, "push_relabel", record)
    narrowcuts.solve_fractional_disjoint(structure, hk)
    assert len(calls) == 1
    _assert_replays(*calls[0])


@pytest.mark.parametrize("seed", [3, 4])
def test_replay_held_karp_and_pair_probes(monkeypatch, seed):
    """Every flow that hk_solve and pairwise_forced_cuts ask for."""
    calls = []

    def record(cap, s, t):
        calls.append((cap.copy(), s, t))
        return push_relabel(cap, s, t)

    monkeypatch.setattr(maxflow, "push_relabel", record)
    dict(narrowcuts.pairwise_forced_cuts(hk_solve(generate_random_metric(12, seed))))
    assert len(calls) > 90  # the 10 * 9 pair probes and the separation rounds
    for call in calls:
        _assert_replays(*call)
