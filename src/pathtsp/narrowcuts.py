"""Narrow-cut layer structure and fractional T-join dominator certificates.

An s-t cut is tau-narrow when its capacity under the Held-Karp point x*
stays below 1 + tau. Every cut below 2 of a feasible x* separates s from t,
and narrow cuts never cross, so two vertices lie in different layers exactly
when their minimum cut is narrow. The layers are read off one Gomory-Hu tree
of x* (n - 1 flows): drop its narrow edges, all on the tree's s-t path, and
take the components in path order. The definition -- internal u strictly
precedes internal v iff the cheapest cut with {s,u} on one side and {v,t} on
the other is narrow -- is then checked on consecutive vertices, 2(n - 3)
forced-cut probes. Each narrow cut gets
representative edges (the ones leaving its layer forward), and an auxiliary
flow network turns these into fractionally disjoint unit-mass vectors.

Certificates combine alpha * tree + beta * x* with per-cut corrections on
the representatives; four parameter variants are provided, from the plain
5/3 combination to the golden-ratio one.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError, InvariantError
from .heldkarp import HK_TOL, HKSolution
from .instances import EdgeVector, Instance
from .maxflow import cut_value, gomory_hu_tree, min_cut_merged, odd_splits, push_relabel
from .tjoin import ParitySet, wrong_parity_set

FEAS_TOL = 1e-7

VARIANTS = ("simple53", "qi", "iint", "golden")

_SQRT33 = math.sqrt(33.0)
_SQRT5 = math.sqrt(5.0)

ALPHA_BETA: dict[str, tuple[float, float]] = {
    "simple53": (1.0 / 3.0, 1.0 / 3.0),
    "qi": (0.30, 0.35),
    "iint": (1.0 / _SQRT33, 0.5 - 1.0 / (2.0 * _SQRT33)),
    "golden": (1.0 - 2.0 / _SQRT5, 1.0 / _SQRT5),
}

# (1 - 2*alpha) / beta - 1, simplified analytically per variant
VARIANT_TAU: dict[str, float] = {
    "simple53": 0.0,
    "qi": 1.0 / 7.0,
    "iint": (15.0 - _SQRT33) / 16.0,
    "golden": 3.0 - _SQRT5,
}

GUARANTEE: dict[str, float] = {
    "simple53": 5.0 / 3.0,
    "qi": 1.6577,
    "iint": (9.0 - _SQRT33) / 2.0,
    "golden": (1.0 + _SQRT5) / 2.0,
}


@dataclass(frozen=True)
class NarrowCutStructure:
    tau: float
    layers: tuple[tuple[int, ...], ...]
    prefix_caps: tuple[float, ...]  # x*(delta(U_i)) for i = 1..ell-1
    representatives: tuple[tuple[tuple[int, int], ...], ...]  # F_i on support(x*)

    @property
    def ell(self) -> int:
        return len(self.layers)

    @property
    def has_internal_structure(self) -> bool:
        """False only in the degenerate two-layer (n = 2) case."""
        return self.ell > 2

    def prefixes(self) -> list[frozenset[int]]:
        out = []
        acc: set[int] = set()
        for layer in self.layers[:-1]:
            acc.update(layer)
            out.append(frozenset(acc))
        return out

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "layers": [list(layer) for layer in self.layers],
            "prefix_capacities": list(self.prefix_caps),
            "representatives": [
                sorted([u, v] for u, v in edges) for edges in self.representatives
            ],
            "internal_structure": self.has_internal_structure,
        }


@dataclass(frozen=True)
class FlowAssignment:
    vectors: tuple[EdgeVector, ...]  # one per narrow cut, unit mass each
    value: float


@dataclass(frozen=True)
class DominatorCertificate:
    y: EdgeVector
    variant: str
    alpha: float
    beta: float
    tau: float
    parity_set: ParitySet


@dataclass(frozen=True)
class CertificateReport:
    feasible: bool
    worst_cut: frozenset[int] | None
    worst_value: float
    cost: float


class _ForcedCuts(Mapping):
    """Read-only forced-cut values of one Held-Karp point, each computed on
    first access and kept."""

    def __init__(self, xstar: HKSolution):
        self._weights = xstar.x.to_matrix(xstar.n)
        self._s, self._t = xstar.s, xstar.t
        internals = [v for v in range(xstar.n) if v not in (xstar.s, xstar.t)]
        self._pairs = dict.fromkeys((u, v) for u in internals for v in internals if u != v)
        self._values: dict[tuple[int, int], float] = {}

    def __getitem__(self, pair: tuple[int, int]) -> float:
        if pair not in self._pairs:
            raise KeyError(pair)
        if pair not in self._values:
            u, v = pair
            cap, _ = min_cut_merged(self._weights, [self._s, u], [v, self._t])
            self._values[pair] = cap
        return self._values[pair]

    def __contains__(self, pair) -> bool:
        return pair in self._pairs

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


def pairwise_forced_cuts(xstar: HKSolution) -> Mapping[tuple[int, int], float]:
    """Min-cut value separating {s,u} from {v,t} for every ordered internal
    pair (u, v), as a mapping that runs a pair's flow on first access and
    keeps the value; share it across tau thresholds to probe each pair once."""
    return _ForcedCuts(xstar)


def compute_narrow_cuts(
    xstar: HKSolution,
    tau: float,
    pair_cuts: Mapping[tuple[int, int], float] | None = None,
) -> NarrowCutStructure:
    """Layered structure of all tau-narrow cuts of a Held-Karp point.

    The layers are the components of the Gomory-Hu tree of x* once its edges
    below min(1 + tau, 2 - HK_TOL) are removed, in s-t order: the LP holds
    non-separating cuts to 2 - HK_TOL only, so those are never narrow.
    `pair_cuts` (by default a fresh `pairwise_forced_cuts(xstar)`) is read
    for consecutive internal vertices only: the forced cut (a, b) must be
    narrow exactly when a and b lie in different layers, and (b, a) never. A
    narrow tree edge off the s-t path, or any disagreement, raises
    InvariantError.
    """
    if not (0.0 < tau <= 1.0):
        raise InvalidInstanceError(f"tau must be in (0, 1], got {tau}")
    n, s, t = xstar.n, xstar.s, xstar.t
    if pair_cuts is None:
        pair_cuts = pairwise_forced_cuts(xstar)
    threshold = min(1.0 + tau, 2.0 - HK_TOL)
    weights = xstar.x.to_matrix(n)
    layers = _tree_layers(weights, s, t, threshold)

    layer_of = {v: i for i, layer in enumerate(layers) for v in layer}
    internal_order = [v for layer in layers[1:-1] for v in layer]
    for a, b in zip(internal_order, internal_order[1:]):
        split = layer_of[a] != layer_of[b]
        if (pair_cuts[(a, b)] < threshold) != split or pair_cuts[(b, a)] < threshold:
            raise InvariantError(
                f"forced cuts between {a} and {b} disagree with the Gomory-Hu "
                "layers; x* is numerically infeasible"
            )

    prefix_caps = []
    acc: list[int] = []
    for layer in layers[:-1]:
        acc.extend(layer)
        cap = cut_value(weights, acc)
        if cap >= threshold:
            raise InvariantError(
                f"derived prefix {sorted(acc)} has capacity {cap} >= {threshold}"
            )
        prefix_caps.append(cap)

    reps: list[tuple[tuple[int, int], ...]] = []
    for i in range(len(layers) - 1):
        edges = tuple(
            sorted(
                e
                for e in xstar.x.values
                if min(layer_of[e[0]], layer_of[e[1]]) == i
                and max(layer_of[e[0]], layer_of[e[1]]) > i
                and xstar.x.values[e] > 0.0
            )
        )
        reps.append(edges)

    structure = NarrowCutStructure(
        tau=tau,
        layers=tuple(layers),
        prefix_caps=tuple(prefix_caps),
        representatives=tuple(reps),
    )
    _check_representative_mass(structure, xstar)
    return structure


def _tree_layers(
    weights: np.ndarray, s: int, t: int, threshold: float
) -> list[tuple[int, ...]]:
    """Components of the Gomory-Hu tree of `weights` less its edges below
    `threshold`, in s-t order, members sorted; s and t must end up alone."""
    parent, value = gomory_hu_tree(weights)
    # tree edge (v, parent[v]) is named by v; s-t path through the lowest
    # common ancestor
    up_s, up_t = _ancestors(parent, s), _ancestors(parent, t)
    meet = next(v for v in up_s if v in up_t)
    below_s, below_t = up_s[: up_s.index(meet)], up_t[: up_t.index(meet)]
    narrow = {v for v in range(len(parent)) if parent[v] >= 0 and value[v] < threshold}
    off_path = narrow - set(below_s) - set(below_t)
    if off_path:
        v = min(off_path)
        raise InvariantError(
            f"Gomory-Hu edge {v}-{parent[v]} has cut value {value[v]} < {threshold} "
            "but leaves s and t on one side; x* is numerically infeasible"
        )

    def top(v: int) -> int:
        while parent[v] >= 0 and v not in narrow:
            v = parent[v]
        return v

    members: dict[int, list[int]] = {}
    for v in range(len(parent)):
        members.setdefault(top(v), []).append(v)
    path = below_s + [meet] + below_t[::-1]
    layers = [tuple(members[c]) for c in dict.fromkeys(top(v) for v in path)]
    if layers[0] != (s,) or layers[-1] != (t,):
        raise InvariantError("an endpoint shares its narrow-cut layer; x* is infeasible")
    return layers


def _ancestors(parent: list[int], v: int) -> list[int]:
    """v and its ancestors in a parent-pointer tree, v first."""
    chain = [v]
    while parent[chain[-1]] >= 0:
        chain.append(parent[chain[-1]])
    return chain


def _check_representative_mass(structure: NarrowCutStructure, xstar: HKSolution):
    """Every F_i must carry more than (1 - tau + cap_i)/2 of x* mass."""
    for i, (cap, edges) in enumerate(
        zip(structure.prefix_caps, structure.representatives)
    ):
        mass = xstar.x.mass(edges)
        bound = 0.5 * (1.0 - structure.tau + cap)
        if mass <= bound - 1e-9:
            raise InvariantError(
                f"representative mass {mass} of layer {i + 1} is below {bound}"
            )


def representative_vectors(
    structure: NarrowCutStructure, xstar: HKSolution
) -> list[EdgeVector]:
    """x* restricted to each representative edge set F_i."""
    return [
        EdgeVector({e: xstar.x.values[e] for e in edges})
        for edges in structure.representatives
    ]


def solve_fractional_disjoint(
    structure: NarrowCutStructure, xstar: HKSolution
) -> FlowAssignment:
    """Unit-mass vectors per narrow cut, summing below x* componentwise.

    Built from a max flow on the auxiliary network source -> cut nodes
    (capacity 1) -> edge nodes (infinite) -> sink (capacity x*_e); the flow
    must be exactly ell - 1, anything less means x* is infeasible upstream.
    """
    prefixes = structure.prefixes()
    m = len(prefixes)
    layer_of = {v: i for i, layer in enumerate(structure.layers) for v in layer}
    support = sorted(xstar.x.values)
    crossing: list[list[int]] = []
    used_edges: list[tuple[int, int]] = []
    for e in support:
        lu, lv = sorted((layer_of[e[0]], layer_of[e[1]]))
        cuts = [i for i in range(m) if lu <= i < lv]
        if cuts:
            used_edges.append(e)
            crossing.append(cuts)
    k = len(used_edges)
    size = 2 + m + k
    source, sink = 0, size - 1
    cap = np.zeros((size, size))
    inf_cap = m + xstar.x.total() + 1.0
    for i in range(m):
        cap[source, 1 + i] = 1.0
    for j, e in enumerate(used_edges):
        cap[1 + m + j, sink] = xstar.x.values[e]
        for i in crossing[j]:
            cap[1 + i, 1 + m + j] = inf_cap
    value, flow = push_relabel(cap, source, sink)
    if value < m - 1e-6:
        raise InvariantError(
            f"narrow-cut flow value {value} below ell-1 = {m}; "
            "Held-Karp point is infeasible"
        )
    vectors = []
    for i in range(m):
        vals = {}
        for j in range(k):
            f = flow[1 + i, 1 + m + j]
            if f > 1e-12:
                vals[used_edges[j]] = float(f)
        vectors.append(EdgeVector(vals))
    assignment = FlowAssignment(tuple(vectors), float(value))
    _check_flow_assignment(assignment, structure, xstar)
    return assignment


def _check_flow_assignment(assignment, structure, xstar):
    total = EdgeVector()
    for i, vec in enumerate(assignment.vectors):
        if vec.total() < 1.0 - FEAS_TOL:
            raise InvariantError(f"cut {i + 1} received mass {vec.total()} < 1")
        total = total.add(vec)
    for e, w in total.values.items():
        if w > xstar.x.values.get(e, 0.0) + 1e-9:
            raise InvariantError(f"flow mass on {e} exceeds x* ({w})")


def variant_parameters(variant: str) -> tuple[float, float, float]:
    """(alpha, beta, tau) for a certificate variant."""
    if variant not in ALPHA_BETA:
        raise InvalidInstanceError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}"
        )
    alpha, beta = ALPHA_BETA[variant]
    return alpha, beta, VARIANT_TAU[variant]


def build_certificate(
    xstar: HKSolution,
    tree,
    T: ParitySet,
    variant: str,
    structure: NarrowCutStructure | None = None,
    flows: FlowAssignment | None = None,
) -> DominatorCertificate:
    """Assemble the variant's fractional T-join dominator for one tree.

    Corrections are added only on narrow cuts whose intersection with T is
    odd; their per-cut coefficients are provably positive (asserted).
    """
    alpha, beta, tau = variant_parameters(variant)
    expected = wrong_parity_set(tree, xstar.s, xstar.t)
    if expected.vertices != frozenset(T.vertices):
        raise InvalidInstanceError(
            "parity set does not match the tree's wrong-parity set"
        )
    y = EdgeVector.from_edges(tree, alpha).add(xstar.x, beta)
    if tau > 0.0:
        if structure is None:
            structure = compute_narrow_cuts(xstar, tau)
        elif abs(structure.tau - tau) > 1e-12:
            raise InvalidInstanceError(
                f"structure built for tau={structure.tau}, variant needs {tau}"
            )
        if variant == "golden":
            if flows is None:
                flows = solve_fractional_disjoint(structure, xstar)
            correction_vectors = list(flows.vectors)
        else:
            correction_vectors = representative_vectors(structure, xstar)
        tset = frozenset(T.vertices)
        for i, (prefix, cap) in enumerate(
            zip(structure.prefixes(), structure.prefix_caps)
        ):
            if len(prefix & tset) % 2 == 0:
                continue
            if variant == "qi":
                coeff = (1.0 - (2.0 * alpha + beta)) / (1.0 - tau / 2.0)
            elif variant == "iint":
                b_i = 0.5 * (1.0 - tau + cap)
                coeff = (1.0 - (2.0 * alpha + beta * cap)) / b_i
            else:  # golden
                coeff = 1.0 - (2.0 * alpha + beta * cap)
            if coeff < -1e-9:
                raise InvariantError(
                    f"negative correction coefficient {coeff} on a narrow cut"
                )
            y = y.add(correction_vectors[i], max(coeff, 0.0))
    return DominatorCertificate(y, variant, alpha, beta, tau, T)


def verify_certificate(cert: DominatorCertificate, inst: Instance) -> CertificateReport:
    """Check y(delta(S)) >= 1 - FEAS_TOL on every S with |S cap T| odd.

    The minimum odd cut is the cheapest odd split of a Gomory-Hu tree under
    capacities y (Padberg-Rao); that split is the reported worst cut. The
    rule needs y >= 0, so an entry below -FEAS_TOL raises
    InvalidInstanceError.
    """
    if any(w < -FEAS_TOL for w in cert.y.values.values()):
        raise InvalidInstanceError("certificate y has a negative entry")
    tset = cert.parity_set.vertices
    cost = cert.y.dot_costs(inst)
    if not tset:
        return CertificateReport(True, None, math.inf, cost)
    splits = odd_splits(cert.y.to_matrix(inst.n), tset)
    if not splits:
        raise InvariantError("no odd split found despite nonempty T")
    worst, cut = min(splits, key=lambda split: split[0])  # the first cheapest
    return CertificateReport(worst >= 1.0 - FEAS_TOL, cut, worst, cost)


def tree_certificates(
    xstar: HKSolution,
    combo,
    variant: str,
    pair_cuts: Mapping[tuple[int, int], float] | None = None,
) -> list[DominatorCertificate]:
    """The variant's certificate for every tree of the decomposition, in
    tree order, sharing one narrow-cut structure and one flow assignment."""
    _, _, tau = variant_parameters(variant)
    structure = compute_narrow_cuts(xstar, tau, pair_cuts) if tau > 0.0 else None
    flows = solve_fractional_disjoint(structure, xstar) if variant == "golden" else None
    return [
        build_certificate(
            xstar, tree, wrong_parity_set(tree, xstar.s, xstar.t), variant, structure, flows
        )
        for tree in combo.trees
    ]


@dataclass(frozen=True)
class CostBoundReport:
    variant: str
    guarantee: float
    lp_value: float
    weighted_total: float  # sum lambda_i (c(T_i) + c(y_i))
    bound_value: float
    holds: bool
    per_tree: tuple[tuple[float, float], ...]  # (tree cost, certificate cost)


def certificate_cost_bound(
    inst: Instance,
    xstar: HKSolution,
    combo,
    variant: str,
    pair_cuts: Mapping[tuple[int, int], float] | None = None,
) -> CostBoundReport:
    """Aggregate tree + certificate cost across the decomposition and
    compare with the variant's published guarantee."""
    certs = tree_certificates(xstar, combo, variant, pair_cuts)
    per_tree = []
    weighted = 0.0
    for tree, lam, cert in zip(combo.trees, combo.lambdas, certs):
        tree_cost = float(sum(inst.cost[u, v] for u, v in tree))
        cert_cost = cert.y.dot_costs(inst)
        per_tree.append((tree_cost, cert_cost))
        weighted += lam * (tree_cost + cert_cost)
    bound = GUARANTEE[variant] * xstar.value
    return CostBoundReport(
        variant=variant,
        guarantee=GUARANTEE[variant],
        lp_value=xstar.value,
        weighted_total=weighted,
        bound_value=bound,
        holds=weighted <= bound * (1.0 + 1e-6),
        per_tree=tuple(per_tree),
    )


def certificate_to_dict(cert: DominatorCertificate, report: CertificateReport) -> dict:
    return {
        "variant": cert.variant,
        "alpha": cert.alpha,
        "beta": cert.beta,
        "tau": cert.tau,
        "y": cert.y.to_pairs(),
        "feasible": report.feasible,
        "worst_cut": sorted(report.worst_cut) if report.worst_cut is not None else None,
        "worst_value": None if math.isinf(report.worst_value) else report.worst_value,
        "cost": report.cost,
    }
