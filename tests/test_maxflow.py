import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edmonds_karp
from pathtsp.maxflow import (
    cut_value,
    gomory_hu_splits,
    gomory_hu_tree,
    min_cut,
    min_cut_merged,
    push_relabel,
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
        cutv, side = min_cut(sym, 0, 6)
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
        direct, _ = min_cut(w, v, parent[v])
        assert value[v] == pytest.approx(direct, abs=1e-9)
        assert cut_value(w, side) == pytest.approx(value[v], abs=1e-9)
    # pairwise min cut = min edge value on the tree path
    children = parent
    for a in range(n):
        for b in range(a + 1, n):
            direct, _ = min_cut(w, a, b)
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
            assert value[v] == pytest.approx(min_cut(w, v, parent[v])[0], abs=1e-9)
