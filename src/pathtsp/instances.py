"""Instance model, metric validation, graphical closure, generators and file I/O.

Vertices are 0-based indices; edges are canonicalized as (min, max) pairs.
Costs live in a dense symmetric float matrix. Graphical instances keep their
edge list and are converted to a metric instance through `metric_closure`
(breadth-first search per vertex, so closure costs are exact integers).
"""

from __future__ import annotations

import json
import numbers
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidInstanceError, NotConnectedError, ParseError

TRIANGLE_TOL = 1e-9


def is_number(value) -> bool:
    """True for real numbers, including numpy scalars, but not for bools."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered edge key."""
    if u == v:
        raise ValueError(f"self-loop ({u},{v}) is not an edge")
    return (u, v) if u < v else (v, u)


def all_edges(n: int) -> list[tuple[int, int]]:
    """Edges of the complete graph on {0..n-1} in canonical order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@dataclass(frozen=True)
class Instance:
    """Complete symmetric metric with distinguished endpoints s and t."""

    cost: np.ndarray
    s: int
    t: int

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InvalidInstanceError(f"cost matrix must be square, got {c.shape}")
        if c.shape[0] < 2:
            raise InvalidInstanceError("instance needs at least 2 vertices")
        if not (0 <= self.s < c.shape[0] and 0 <= self.t < c.shape[0]):
            raise InvalidInstanceError("endpoint index out of range")
        if self.s == self.t:
            raise InvalidInstanceError("endpoints s and t must differ")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "cost", c)

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    @property
    def internal(self) -> list[int]:
        return [v for v in range(self.n) if v not in (self.s, self.t)]

    def c(self, u: int, v: int) -> float:
        return float(self.cost[u, v])

    def path_cost(self, order: Iterable[int]) -> float:
        seq = list(order)
        return float(sum(self.cost[a, b] for a, b in zip(seq, seq[1:])))


@dataclass(frozen=True)
class GraphicalInstance:
    """Connected unit-weight graph defining a shortest-path metric."""

    n: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInstanceError("instance needs at least 2 vertices")
        if not (0 <= self.s < self.n and 0 <= self.t < self.n):
            raise InvalidInstanceError("endpoint index out of range")
        if self.s == self.t:
            raise InvalidInstanceError("endpoints s and t must differ")
        canon = []
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInstanceError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InvalidInstanceError(f"self-loop at {u}")
            e = edge_key(u, v)
            if e in seen:
                raise InvalidInstanceError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


class EdgeVector:
    """Sparse nonnegative vector indexed by canonical edges.

    Immutable by convention; every operation returns a new vector.
    """

    __slots__ = ("values",)

    def __init__(self, values: Mapping[tuple[int, int], float] | None = None):
        vals = {}
        if values:
            for (u, v), w in values.items():
                vals[edge_key(u, v)] = float(w)
        self.values: dict[tuple[int, int], float] = vals

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], value: float = 1.0) -> "EdgeVector":
        return cls({edge_key(u, v): value for u, v in edges})

    def get(self, u: int, v: int) -> float:
        return self.values.get(edge_key(u, v), 0.0)

    def support(self, eps: float = 0.0) -> list[tuple[int, int]]:
        return sorted(e for e, w in self.values.items() if w > eps)

    def total(self) -> float:
        return float(sum(self.values.values()))

    def mass(self, edges: Iterable[tuple[int, int]]) -> float:
        return float(sum(self.get(u, v) for u, v in edges))

    def cut(self, side: Iterable[int]) -> float:
        inside = set(side)
        return float(
            sum(w for (u, v), w in self.values.items() if (u in inside) != (v in inside))
        )

    def dot_costs(self, inst: Instance) -> float:
        return float(sum(w * inst.cost[u, v] for (u, v), w in self.values.items()))

    def scale(self, factor: float) -> "EdgeVector":
        return EdgeVector({e: w * factor for e, w in self.values.items()})

    def add(self, other: "EdgeVector", factor: float = 1.0) -> "EdgeVector":
        vals = dict(self.values)
        for e, w in other.values.items():
            vals[e] = vals.get(e, 0.0) + factor * w
        return EdgeVector(vals)

    def pointwise(self, other: "EdgeVector") -> "EdgeVector":
        """Componentwise product of two edge vectors."""
        keys = set(self.values) & set(other.values)
        return EdgeVector({e: self.values[e] * other.values[e] for e in keys})

    def to_matrix(self, n: int) -> np.ndarray:
        m = np.zeros((n, n))
        for (u, v), w in self.values.items():
            m[u, v] = m[v, u] = w
        return m

    def to_pairs(self) -> list[list]:
        return [[u, v, w] for (u, v), w in sorted(self.values.items())]

    def to_dict(self) -> dict:
        return {"edges": self.to_pairs()}

    def __eq__(self, other):
        if not isinstance(other, EdgeVector):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"EdgeVector({len(self.values)} edges, total={self.total():.6g})"


@dataclass(frozen=True)
class MetricViolation:
    """One failed instance invariant; `where` names the offending indices."""

    kind: str  # triangle | symmetry | diagonal | negative | nonfinite
    where: tuple[int, ...]
    amount: float = 0.0


def validate_metric(inst: Instance, tol: float = TRIANGLE_TOL) -> list[MetricViolation]:
    """Report every violated metric invariant; empty report means valid.

    Triangle violations are recorded as (u, v, w) meaning
    cost[u][w] > cost[u][v] + cost[v][w] + tol. Entries come in this order:
    diagonal by vertex; then per pair u < v in row-major order either
    nonfinite, or symmetry before negative; then triangles by u, w, v.
    """
    c = inst.cost
    n = inst.n
    out = [
        MetricViolation("diagonal", (int(u),), float(c[u, u]))
        for u in np.flatnonzero(np.diag(c) != 0.0)
    ]
    iu, iv = np.triu_indices(n, 1)
    upper, lower = c[iu, iv], c[iv, iu]
    finite = np.isfinite(upper) & np.isfinite(lower)
    for k in np.flatnonzero(~finite | (upper != lower) | (upper < 0)):
        where = (int(iu[k]), int(iv[k]))
        if not finite[k]:
            out.append(MetricViolation("nonfinite", where))
            continue
        if upper[k] != lower[k]:
            out.append(MetricViolation("symmetry", where, float(upper[k] - lower[k])))
        if upper[k] < 0:
            out.append(MetricViolation("negative", where, float(upper[k])))
    # one u at a time keeps memory at O(n^2): slack[i, v] for w = ws[i]
    for u in range(n):
        ws = np.arange(u + 1, n)
        # inf - inf gives NaN (that pair is reported nonfinite above) and a
        # sum beyond the float range gives inf; neither is a triangle violation
        with np.errstate(invalid="ignore", over="ignore"):
            slack = c[u, ws][:, None] - (c[u][None, :] + c[:, ws].T)
        bad = slack > tol
        bad[:, u] = False
        bad[np.arange(len(ws)), ws] = False
        for i, v in zip(*np.nonzero(bad)):
            out.append(MetricViolation("triangle", (u, int(v), int(ws[i])), float(slack[i, v])))
    return out


def require_metric(inst: Instance) -> None:
    """Raise InvalidInstanceError naming the first violation unless
    `validate_metric` reports nothing."""
    report = validate_metric(inst)
    if report:
        first = report[0]
        raise InvalidInstanceError(
            f"instance violates {len(report)} metric invariant(s); "
            f"first: {first.kind} at {first.where}"
        )


def metric_closure(g: GraphicalInstance) -> Instance:
    """Shortest-path metric of a connected unit-weight graph."""
    adj = g.adjacency()
    n = g.n
    dist = np.full((n, n), -1.0)
    for src in range(n):
        dist[src, src] = 0.0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1.0
                    queue.append(v)
    if (dist < 0).any():
        raise NotConnectedError("not connected")
    return Instance(cost=dist, s=g.s, t=g.t)


def generate_random_metric(n: int, seed: int) -> Instance:
    """Euclidean instance from n seeded uniform points in the unit square."""
    if n < 2:
        raise InvalidInstanceError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    cost = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(cost, 0.0)
    return Instance(cost=cost, s=0, t=1)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing field \"{key}\"")
    return obj[key]


def instance_to_dict(inst: Instance | GraphicalInstance) -> dict:
    if isinstance(inst, GraphicalInstance):
        return {
            "type": "graph",
            "n": inst.n,
            "s": inst.s,
            "t": inst.t,
            "edges": [[u, v] for u, v in inst.edges],
        }
    upper = [float(inst.cost[u, v]) for u in range(inst.n) for v in range(u + 1, inst.n)]
    return {"type": "metric", "n": inst.n, "s": inst.s, "t": inst.t, "costs": upper}


def instance_from_dict(data: dict, path: str = "<data>") -> Instance | GraphicalInstance:
    kind = _require(data, "type", path)
    n = _require(data, "n", path)
    s = _require(data, "s", path)
    t = _require(data, "t", path)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, s, t)):
        raise ParseError(f"{path}: fields n/s/t must be integers")
    if n < 0:
        raise ParseError(f"{path}: field \"n\" must be nonnegative, got {n}")
    if kind == "metric":
        costs = _require(data, "costs", path)
        if not isinstance(costs, list):
            raise ParseError(f"{path}: field \"costs\" must be a list of numbers")
        want = n * (n - 1) // 2
        if len(costs) != want:
            raise ParseError(
                f"{path}: field \"costs\" has {len(costs)} entries, expected {want}"
            )
        mat = np.zeros((n, n))
        it = iter(costs)
        for u in range(n):
            for v in range(u + 1, n):
                w = next(it)
                if not is_number(w):
                    raise ParseError(f"{path}: non-numeric cost for edge ({u},{v})")
                mat[u, v] = mat[v, u] = float(w)
        try:
            return Instance(cost=mat, s=s, t=t)
        except InvalidInstanceError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if kind == "graph":
        edges = _require(data, "edges", path)
        try:
            return GraphicalInstance(
                n=n, edges=tuple((int(u), int(v)) for u, v in edges), s=s, t=t
            )
        except (InvalidInstanceError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: bad \"edges\": {exc}") from exc
    raise ParseError(f"{path}: unknown instance type {kind!r}")


def read_instance(path: str) -> Instance | GraphicalInstance:
    """Load a metric or graphical instance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return instance_from_dict(data, path)


def write_instance(inst: Instance | GraphicalInstance, path: str) -> None:
    """Write an instance as canonical JSON (stable bytes for fixed input)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
