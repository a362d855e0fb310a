"""Unit-weight graphical metrics: the layer-traversal path and the
three-candidate combination, plus the published constant tables.

The layer traversal walks the (1-theta)-narrow-cut layers front to back:
cheapest connector edge between consecutive layers, cheapest intra-layer
path under the excess cost eta(e) = c(e) - 1, then doubles unit edges onto
isolated vertices until the multigraph spans, and shortcuts an Eulerian
walk. Its cost obeys an exact integer accounting identity,
c(G'_E) = 2(n-1) - c(P_LT) + 2*eta(P_LT).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInstanceError, InvariantError
from .exact import exact_path_tsp
from .heldkarp import HKSolution, hk_solve
from .instances import GraphicalInstance, Instance, metric_closure
from .maxflow import gomory_hu_tree
from .narrowcuts import NarrowCutStructure, compute_narrow_cuts
from .solver import solve_bom
from .tjoin import eulerian_path, shortcut

# Published parameter triples (theta, sigma, kappa)
RATIO_CONSTANTS = (0.12297, 7.2774e-3, 0.54045)  # approximation, rho < 1.5780
GAP_CONSTANTS = (0.37304, 8.5757e-2, 0.84614)  # integrality gap, < 1.6137


def ratio_expression(
    theta: float, sigma: float, kappa: float, n: int | None = None
) -> tuple[float, tuple[float, float, float]]:
    """The three-case performance bound and its maximum.

    With n given, the first case keeps its additive 7/(12(n-1)(1+sigma))
    term (used by the small-n integrality-gap evaluation); without it the
    pure asymptotic ratio is returned.
    """
    first = 5.0 / 6.0 + 3.0 / (4.0 * (1.0 + sigma))
    if n is not None:
        first += 7.0 / (12.0 * (n - 1) * (1.0 + sigma))
    second = 2.0 - kappa + 2.0 * sigma / theta
    third = (3.0 + 2.0 * theta) / (2.0 + theta) + (1.0 - theta) ** 2 * kappa / (
        4.0 * (2.0 + theta)
    )
    parts = (first, second, third)
    return max(parts), parts


@dataclass(frozen=True)
class LayerTraversal:
    structure: NarrowCutStructure
    portals: tuple[tuple[int, int], ...]  # (q_i, p_i) per layer
    intra_paths: tuple[tuple[int, ...], ...]  # P_i per layer (middle layers)
    plt: tuple[int, ...]  # concatenated s-t path, vertex sequence
    plt_cost: float
    eta_cost: float  # sum of c(e) - 1 over P_LT
    doubled: tuple[tuple[int, int], ...]  # unit edges added twice
    augmented_cost: float  # c(G'_E)
    hc_order: tuple[int, ...]
    hc_cost: float


def _eta_shortest_path(
    inst: Instance, members: Sequence[int], src: int, dst: int
) -> list[int]:
    """Cheapest src-dst path inside the induced complete subgraph under
    eta(e) = c(e) - 1 (Dijkstra; eta is nonnegative on a graphical metric)."""
    if src == dst:
        return [src]
    dist = {v: math.inf for v in members}
    prev: dict[int, int | None] = {v: None for v in members}
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for v in members:
            if v == u or v in done:
                continue
            nd = d + inst.cost[u, v] - 1.0
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    path = [dst]
    while path[-1] != src:
        back = prev[path[-1]]
        if back is None:
            raise InvariantError("intra-layer path reconstruction failed")
        path.append(back)
    path.reverse()
    return path


def build_layer_traversal(
    g: GraphicalInstance,
    xstar: HKSolution,
    theta: float,
    structure: NarrowCutStructure | None = None,
) -> LayerTraversal:
    """Construct the layer-traversal Hamiltonian path candidate."""
    if not (0.0 < theta < 1.0):
        raise InvalidInstanceError(f"theta must be in (0, 1), got {theta}")
    if g.n < 3:
        raise InvalidInstanceError(
            "layer traversal needs n >= 3; route two-vertex instances "
            "to the direct edge"
        )
    inst = metric_closure(g)
    if structure is None:
        structure = compute_narrow_cuts(xstar, 1.0 - theta)
    layers = structure.layers
    ell = structure.ell

    portals: list[tuple[int, int]] = []
    connectors: list[tuple[int, int]] = []
    # cheapest edge between consecutive layers; ties by canonical pair order
    for i in range(ell - 1):
        best = None
        for u in layers[i]:
            for v in layers[i + 1]:
                key = (float(inst.cost[u, v]), min(u, v), max(u, v))
                if best is None or key < best[0]:
                    best = (key, (u, v))
        connectors.append(best[1])
    # q_i = entry portal, p_i = exit portal of layer i
    entries = {0: g.s}
    exits = {}
    for i, (u, v) in enumerate(connectors):
        exits[i] = u
        entries[i + 1] = v
    exits[ell - 1] = g.t

    plt: list[int] = [g.s]
    intra: list[tuple[int, ...]] = []
    for i in range(ell):
        q, pexit = entries[i], exits[i]
        if i == 0 or i == ell - 1:
            portals.append((q, pexit))
            continue
        path = _eta_shortest_path(inst, layers[i], q, pexit)
        intra.append(tuple(path))
        portals.append((q, pexit))
        plt.extend(path)
    plt.append(g.t)
    # squeeze singleton duplicates introduced by trivial intra paths
    seq = [plt[0]]
    for v in plt[1:]:
        if v != seq[-1]:
            seq.append(v)
    plt_edges = list(zip(seq, seq[1:]))
    plt_cost = float(sum(inst.cost[u, v] for u, v in plt_edges))
    eta_cost = plt_cost - len(plt_edges)

    # double unit edges onto isolated vertices until the multigraph spans
    adj0 = g.adjacency()
    in_multigraph = set(seq)
    multigraph: list[tuple[int, int]] = list(plt_edges)
    doubled: list[tuple[int, int]] = []
    while len(in_multigraph) < g.n:
        pick = None
        for u in range(g.n):
            if u in in_multigraph:
                continue
            for v in adj0[u]:
                if v in in_multigraph:
                    pick = (u, v)
                    break
            if pick:
                break
        if pick is None:
            raise InvariantError("isolated vertex has no covered unit neighbor")
        u, v = pick
        multigraph.append((u, v))
        multigraph.append((u, v))
        doubled.append((u, v))
        in_multigraph.add(u)
    augmented_cost = float(
        sum(inst.cost[u, v] for u, v in multigraph)
    )
    walk = eulerian_path(multigraph, g.s, g.t)
    order, hc_cost = shortcut(walk, inst)
    return LayerTraversal(
        structure=structure,
        portals=tuple(portals),
        intra_paths=tuple(intra),
        plt=tuple(seq),
        plt_cost=plt_cost,
        eta_cost=float(eta_cost),
        doubled=tuple(doubled),
        augmented_cost=augmented_cost,
        hc_order=tuple(order),
        hc_cost=float(hc_cost),
    )


@dataclass(frozen=True)
class LayerConnectivityReport:
    first_gap: float  # x*(E(L_1, L_2))
    last_gap: float  # x*(E(L_{ell-1}, L_ell))
    consecutive: tuple[float, ...]  # x*(E(L_i, L_{i+1})) for all i
    connectivity: tuple[float, ...]  # min internal cut per layer; inf if singleton
    threshold: float
    all_hold: bool


def check_layer_connectivity(
    xstar: HKSolution, structure: NarrowCutStructure, theta: float
) -> LayerConnectivityReport:
    """Verify the layer-connectivity bounds at tau = 1 - theta, exactly:
    consecutive layers exchange more than theta of x* mass, and every layer
    is theta-edge-connected under x* (its global min cut, the lightest edge
    of its Gomory-Hu tree, exceeds theta).

    Together these imply that every bipartition of a contiguous run of
    layers is crossed by more than theta: a bipartition either splits some
    layer, and then costs at least that layer's connectivity, or keeps every
    layer whole and separates two adjacent layers, and then costs at least
    their consecutive gap.
    """
    if abs(structure.tau - (1.0 - theta)) > 1e-12:
        raise InvalidInstanceError("structure was not built at tau = 1 - theta")
    weights = xstar.x.to_matrix(xstar.n)
    layers = [list(layer) for layer in structure.layers]
    consecutive = tuple(
        float(weights[np.ix_(a, b)].sum()) for a, b in zip(layers, layers[1:])
    )
    connectivity = tuple(
        min(gomory_hu_tree(weights[np.ix_(layer, layer)])[1][1:])
        if len(layer) > 1
        else math.inf
        for layer in layers
    )
    eps = 1e-9
    all_hold = all(c > theta - eps for c in consecutive + connectivity)
    return LayerConnectivityReport(
        first_gap=consecutive[0],
        last_gap=consecutive[-1],
        consecutive=consecutive,
        connectivity=connectivity,
        threshold=theta,
        all_hold=all_hold,
    )


@dataclass(frozen=True)
class GraphicalResult:
    order: tuple[int, ...]
    cost: float
    method: str  # which candidate won, or "exact-small"
    candidates: dict
    bounds: dict

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "cost": self.cost,
            "method": self.method,
            "candidates": self.candidates,
            "bounds": self.bounds,
        }


def solve_graphical(
    g: GraphicalInstance,
    theta: float = RATIO_CONSTANTS[0],
    sigma: float = RATIO_CONSTANTS[1],
    kappa: float = RATIO_CONSTANTS[2],
    a0: Callable[[GraphicalInstance], tuple[Sequence[int], float]] | None = None,
) -> GraphicalResult:
    """Best of the layer traversal, the golden-ratio pipeline, and an
    optional external oracle; tiny instances go straight to the exact DP."""
    inst = metric_closure(g)
    rho, parts = ratio_expression(theta, sigma, kappa)
    bounds = {
        "theta": theta,
        "sigma": sigma,
        "kappa": kappa,
        "rho": rho,
        "cases": list(parts),
    }
    if g.n <= 6:
        res = exact_path_tsp(inst)
        return GraphicalResult(
            tuple(res.witness), res.optimum, "exact-small", {}, bounds
        )
    hk = hk_solve(inst)
    hb = solve_bom(inst, hk=hk)
    lt = build_layer_traversal(g, hk, theta)
    candidates = {"hb": hb.cost, "hc": lt.hc_cost}
    options: list[tuple[float, tuple[int, ...], str]] = [
        (hb.cost, tuple(hb.order), "hb"),
        (lt.hc_cost, lt.hc_order, "hc"),
    ]
    if a0 is not None:
        ha_order, ha_cost = a0(g)
        candidates["ha"] = ha_cost
        options.append((ha_cost, tuple(ha_order), "ha"))
    else:
        candidates["ha"] = None
    cost, order, method = min(options, key=lambda o: (o[0], o[2]))
    lp_large = hk.value >= (1.0 + sigma) * (g.n - 1)
    plt_long = lt.plt_cost >= kappa * (g.n - 1)
    bounds["lp_large"] = bool(lp_large)
    bounds["plt_long"] = bool(plt_long)
    bounds["certifying_case"] = (
        "first(oracle)" if lp_large else ("second(traversal)" if plt_long else "third(pipeline)")
    )
    bounds["oracle_present"] = a0 is not None
    return GraphicalResult(order, cost, method, candidates, bounds)
