"""The four benchmark workloads: instance generators, operations and output checks.

Each workload derives instance ``i`` from the workload seed alone, hands the
program only the generated ``Instance`` / ``PCInstance`` / ``GraphicalInstance``,
and calls the public ``pathtsp`` API. Output checks run outside the timed
region and recompute what they test instead of trusting the solver's own
verdicts, except where a bound is stated against a value the solver returns.

Library functions are looked up through their modules at call time, so the
traced run (``spans.py``) sees the benchmark's calls into each layer too.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import networkx as nx
import numpy as np

from pathtsp import graphical, heldkarp, instances, narrowcuts, prize, solver, tjoin

# pathtsp re-exports the function decompose under the submodule's name
dec = importlib.import_module("pathtsp.decompose")
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
COST_RTOL = 1e-9
RATIO_SLACK = 1e-6
CERT_TOL = 1e-7
# The warm-up operation runs on this fixed instance index of a reserved seed,
# so set-up time does not depend on which workload seed a run was given.
WARMUP_SEED = 2**31 - 1


def instance_seed(seed: int, i: int) -> int:
    """Seed of instance ``i`` of a run, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def _load_graph_generator():
    """``random_connected_graph`` from scripts/graphical_experiment.py."""
    path = ROOT / "scripts" / "graphical_experiment.py"
    spec = importlib.util.spec_from_file_location("graphical_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_connected_graph


random_connected_graph = _load_graph_generator()


# ---------------------------------------------------------------------------
# Output checks. Each returns None when the output passes, else a reason.


def _path_problem(order, n: int, s: int, t: int, spanning: bool) -> str | None:
    seq = [int(v) for v in order]
    if len(set(seq)) != len(seq):
        return "order repeats a vertex"
    if any(not 0 <= v < n for v in seq):
        return "order leaves range(n)"
    if spanning and len(seq) != n:
        return f"order visits {len(seq)} of {n} vertices"
    if not seq or seq[0] != s or seq[-1] != t:
        return "order does not run from s to t"
    return None


def _cost_problem(claimed: float, order, cost: np.ndarray) -> str | None:
    seq = np.asarray(order, dtype=int)
    direct = float(cost[seq[:-1], seq[1:]].sum())
    if abs(claimed - direct) > COST_RTOL * max(1.0, abs(direct)):
        return f"reported cost {claimed!r} differs from the path's cost {direct!r}"
    return None


def min_odd_cut(y, n: int, tset) -> float:
    """Minimum y-capacity of a cut with an odd share of ``tset``.

    Padberg-Rao: within a connected graph the minimum T-odd cut is a
    fundamental cut of a Gomory-Hu tree, here built by networkx,
    independently of pathtsp.maxflow. A component with an odd share of T
    is itself a T-odd cut of capacity 0.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for (u, v), w in y.values.items():
        if w > 0.0:
            graph.add_edge(u, v, capacity=float(w))
    best = math.inf
    for comp in nx.connected_components(graph):
        if len(comp & tset) % 2:
            return 0.0
        if len(comp) < 2:
            continue
        tree = nx.gomory_hu_tree(graph.subgraph(comp))
        for u, v, data in list(tree.edges(data=True)):
            tree.remove_edge(u, v)
            side = nx.node_connected_component(tree, u)
            tree.add_edge(u, v, **data)
            if len(side & tset) % 2:
                best = min(best, float(data["weight"]))
    return best


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make(seed, i)`` builds instance ``i``; ``op(instance)`` is the timed
    operation; ``check(instance, output)`` returns ``(reason or None,
    record)`` where the record carries the cost ratio and digest fields.
    """

    name: str
    make: Callable[[int, int], Any]
    op: Callable[[Any], dict]
    check: Callable[[Any, dict], tuple[str | None, dict]]


def _record(lp: float, ratio: float, out_key) -> dict:
    blob = json.dumps(out_key, separators=(",", ":")).encode()
    return {"lp": lp, "ratio": ratio, "out": hashlib.sha256(blob).hexdigest()[:16]}


# bom ------------------------------------------------------------------------

BOM_N = 18


def _bom_make(seed: int, i: int):
    return instances.generate_random_metric(BOM_N, instance_seed(seed, i))


def _bom_op(inst) -> dict:
    # solve_bom(inst) computes exactly these two artifacts itself; handing
    # them in keeps them available to the checks without extra work.
    hk = heldkarp.hk_solve(inst)
    combo = dec.decompose(hk)
    sol = solver.solve_bom(inst, hk=hk, combo=combo)
    return {"order": sol.order, "cost": sol.cost, "lp": hk.value, "hk": hk, "combo": combo}


def _bom_check(inst, out):
    rec = _record(out["lp"], out["cost"] / out["lp"], list(out["order"]))
    problem = _path_problem(out["order"], inst.n, inst.s, inst.t, spanning=True)
    problem = problem or _cost_problem(out["cost"], out["order"], inst.cost)
    if problem:
        return problem, rec
    if out["cost"] > GOLDEN * out["lp"] * (1.0 + RATIO_SLACK):
        return f"cost {out['cost']} above golden ratio times LP {out['lp']}", rec
    if not heldkarp.hk_verify(out["hk"].x, inst).ok:
        return "Held-Karp point fails hk_verify", rec
    ok, _ = dec.verify_combination(out["hk"], out["combo"])
    if not ok:
        return "tree combination fails verify_combination", rec
    return None, rec


# certify ----------------------------------------------------------------------

# n alternates across the exhaustive-enumeration cap (16) of
# verify_certificate, so both verification branches run.
CERTIFY_NS = (16, 17)


def _certify_make(seed: int, i: int):
    return instances.generate_random_metric(
        CERTIFY_NS[i % len(CERTIFY_NS)], instance_seed(seed, i)
    )


def _certify_op(inst) -> dict:
    """The golden-variant pipeline of ``pathtsp certify --variant golden``."""
    hk = heldkarp.hk_solve(inst)
    combo = dec.decompose(hk)
    _, _, tau = narrowcuts.variant_parameters("golden")
    pair_cuts = narrowcuts.pairwise_forced_cuts(hk)
    structure = narrowcuts.compute_narrow_cuts(hk, tau, pair_cuts)
    flows = narrowcuts.solve_fractional_disjoint(structure, hk)
    certs = []
    for tree in combo.trees:
        T = tjoin.wrong_parity_set(tree, hk.s, hk.t)
        cert = narrowcuts.build_certificate(hk, tree, T, "golden", structure, flows)
        report = narrowcuts.verify_certificate(cert, inst)
        certs.append((cert, report))
    return {"hk": hk, "combo": combo, "pair_cuts": pair_cuts, "certs": certs}


def _certify_check(inst, out):
    hk = out["hk"]
    bound = narrowcuts.certificate_cost_bound(
        inst, hk, out["combo"], "golden", out["pair_cuts"]
    )
    ys = [sorted((u, v, round(w, 12)) for (u, v), w in c.y.values.items()) for c, _ in out["certs"]]
    rec = _record(hk.value, bound.weighted_total / hk.value, ys)
    if len(out["certs"]) != len(out["combo"].trees):
        return "not one certificate per tree", rec
    for cert, _ in out["certs"]:
        worst = min_odd_cut(cert.y, inst.n, frozenset(cert.parity_set.vertices))
        if worst < 1.0 - CERT_TOL:
            return f"certificate has an odd cut of capacity {worst} < 1", rec
    if not bound.holds:
        return "certificate cost bound does not hold", rec
    return None, rec


# pc ----------------------------------------------------------------------------

PC_N = 15
PC_PRIZE_MAX = 0.2


def _pc_make(seed: int, i: int):
    s = instance_seed(seed, i)
    inst = instances.generate_random_metric(PC_N, s)
    rng = np.random.default_rng((s, 1))
    return prize.PCInstance.from_internal(inst, rng.uniform(0.0, PC_PRIZE_MAX, PC_N - 2))


def _pc_op(pc) -> dict:
    return {"res": prize.pc_solve(pc)}


def _pc_check(pc, out):
    res = out["res"]
    inst = pc.inst
    rec = _record(res.lp_value, res.objective / res.lp_value, list(res.order))
    problem = _path_problem(res.order, inst.n, inst.s, inst.t, spanning=False)
    problem = problem or _cost_problem(res.path_cost, res.order, inst.cost)
    if problem:
        return problem, rec
    visited = set(int(v) for v in res.order)
    missed = sum(float(pc.prizes[v]) for v in range(inst.n) if v not in visited)
    objective = res.path_cost + missed
    if abs(res.objective - objective) > COST_RTOL * max(1.0, abs(objective)):
        return f"objective {res.objective!r} differs from recomputed {objective!r}", rec
    if res.lp_value > res.pd_objective * (1.0 + COST_RTOL):
        return f"LP value {res.lp_value} above the exact optimum {res.pd_objective}", rec
    return None, rec


# graphical ---------------------------------------------------------------------

GRAPHICAL_N = 16
GRAPHICAL_DENSITY = 0.15


def _graphical_make(seed: int, i: int):
    return random_connected_graph(GRAPHICAL_N, instance_seed(seed, i), GRAPHICAL_DENSITY)


def _graphical_op(g) -> dict:
    res = graphical.solve_graphical(g)
    return {"order": res.order, "cost": res.cost}


def _graphical_check(g, out):
    closure = instances.metric_closure(g)
    # solve_graphical does not return its LP value; recompute it here.
    lp = heldkarp.hk_solve(closure).value
    rec = _record(lp, out["cost"] / lp, list(out["order"]))
    problem = _path_problem(out["order"], g.n, g.s, g.t, spanning=True)
    problem = problem or _cost_problem(out["cost"], out["order"], closure.cost)
    if problem:
        return problem, rec
    if out["cost"] > GOLDEN * lp * (1.0 + RATIO_SLACK):
        return f"cost {out['cost']} above golden ratio times LP {lp}", rec
    return None, rec


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bom", _bom_make, _bom_op, _bom_check),
        Workload("certify", _certify_make, _certify_op, _certify_check),
        Workload("pc", _pc_make, _pc_op, _pc_check),
        Workload("graphical", _graphical_make, _graphical_op, _graphical_check),
    )
}
