"""Span tracing of pathtsp's layers from outside the program.

``Tracer`` replaces selected public functions at every module attribute that
binds them (``pathtsp.heldkarp.min_cut_merged``, ``pathtsp.narrowcuts.
min_cut_merged``, ...), so each call from one layer into another opens a
span. A span records its name, start, end, parent span and operation id.
Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Traced functions by defining module. A note function maps (args, kwargs,
# result) to the attributes a metric needs from that call.
TARGETS: dict[str, dict[str, Callable | None]] = {
    "instances": {"validate_metric": None, "metric_closure": None},
    "heldkarp": {"hk_solve": lambda a, k, r: {"rounds": r.iterations, "n": a[0].n}},
    "maxflow": {"min_cut_merged": None, "push_relabel": None, "gomory_hu_tree": None},
    "simplex": {
        "simplex_solve": lambda a, k, r: {"rows": len(a[0].rows), "cols": len(a[0].objective)},
    },
    "decompose": {"decompose": lambda a, k, r: {"trees": len(r.trees)}},
    "solver": {"solve_bom": None, "augment_tree": None},
    "tjoin": {
        "min_tjoin": lambda a, k, r: {"t_size": len(a[1])},
        "eulerian_path": None,
        "shortcut": None,
    },
    "narrowcuts": {
        "pairwise_forced_cuts": None,
        "compute_narrow_cuts": lambda a, k, r: {"layers": r.ell},
        "solve_fractional_disjoint": None,
        "build_certificate": None,
        "verify_certificate": lambda a, k, r: {"worst": r.worst_value},
    },
    "exact": {"all_cut_capacities": None, "exact_pc_path": None, "brute_force_matching": None},
    "prize": {
        "pc_solve": lambda a, k, r: {"candidates": len(r.intervals) + 1},
        "pc_lp_solve": lambda a, k, r: {"rounds": r.iterations, "n": a[0].inst.n},
    },
    "graphical": {"solve_graphical": None, "build_layer_traversal": None},
}
# scipy's linprog as bound in pathtsp.simplex: the HiGHS solve itself.
HIGHS = ("simplex", "_scipy_linprog", "highs.linprog")
OP = "op"

# span tuple fields
NAME, START, END, PARENT, OPID, NOTE = range(6)


class Tracer:
    """Installs span wrappers on pathtsp's modules and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run one operation under a root span."""
        self._op = op_id
        wrapped = self._wrap(OP, fn, None)
        try:
            return wrapped(*args)
        finally:
            self._op = -1

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "pathtsp" or name.startswith("pathtsp."))
        ]
        wrappers: dict[int, Callable] = {}
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"pathtsp.{mod_name}"]
            for fname, note in funcs.items():
                fn = getattr(home, fname)
                wrappers[id(fn)] = self._wrap(f"{mod_name}.{fname}", fn, note)
        home = sys.modules[f"pathtsp.{HIGHS[0]}"]
        linprog = getattr(home, HIGHS[1])
        wrappers[id(linprog)] = self._wrap(HIGHS[2], linprog, None)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        # anything else that bound a target (e.g. the benchmark's own modules)
        # calls through pathtsp's module attributes, see workloads.py

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    Times and counts are per operation; ``*_p50`` and ``*_max`` are over
    calls. Self time is a span's duration minus the time its child spans
    cover; per-layer self times plus ``trace.unspanned_s`` (the operations'
    own self time) add up to ``trace.op_s``.
    """
    ops = max(n_ops, 1)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            children[s[PARENT]].append(i)
    self_time = [d - c for d, c in zip(dur, child_time)]
    layer = [layer_of(s[NAME]) for s in spans]
    parent_name = [spans[s[PARENT]][NAME] if s[PARENT] >= 0 else "" for s in spans]
    parent_layer = [layer_of(name) for name in parent_name]

    def total(pred, values=dur) -> float:
        return sum(v for i, v in enumerate(values) if pred(i)) / ops

    def named(name):
        return lambda i: spans[i][NAME] == name

    def notes(name, key):
        return [s[NOTE][key] for s in spans if s[NAME] == name and s[NOTE]]

    m: dict[str, float] = {}
    m["instances.validate_s"] = total(named("instances.validate_metric"))

    # heldkarp: rounds from hk_solve, cut rows from the last LP of each solve
    hk_spans = [i for i, s in enumerate(spans) if s[NAME] == "heldkarp.hk_solve"]
    hk_rows = 0
    for i in hk_spans:
        lps = [c for c in children[i] if spans[c][NAME] == "simplex.simplex_solve"]
        if lps:
            hk_rows += spans[lps[-1]][NOTE]["rows"] - spans[i][NOTE]["n"]
    hk_probes = sum(
        1 for i in range(len(spans)) if layer[i] == "maxflow" and parent_layer[i] == "heldkarp"
    )
    m["heldkarp.busy_s"] = total(named("heldkarp.hk_solve"))
    m["heldkarp.rounds"] = sum(notes("heldkarp.hk_solve", "rounds")) / ops
    m["heldkarp.cut_rows"] = hk_rows / ops
    m["heldkarp.probes"] = hk_probes / ops
    m["heldkarp.probe_yield"] = hk_rows / hk_probes if hk_probes else 0.0

    top_flow = [i for i in range(len(spans)) if layer[i] == "maxflow" and parent_layer[i] != "maxflow"]
    m["maxflow.calls"] = len(top_flow) / ops
    m["maxflow.busy_s"] = sum(dur[i] for i in top_flow) / ops
    m["maxflow.call_ms_p50"] = 1e3 * statistics.median(dur[i] for i in top_flow) if top_flow else 0.0
    gh = set(i for i in top_flow if spans[i][NAME] == "maxflow.gomory_hu_tree")
    for caller in ("heldkarp", "narrowcuts", "prize"):
        m[f"maxflow.{caller}_s"] = sum(
            dur[i] for i in top_flow if parent_layer[i] == caller and i not in gh
        ) / ops
    m["maxflow.gomory_hu_s"] = sum(dur[i] for i in gh) / ops

    lp_spans = [i for i, s in enumerate(spans) if s[NAME] == "simplex.simplex_solve"]
    m["simplex.calls"] = len(lp_spans) / ops
    m["simplex.busy_s"] = sum(dur[i] for i in lp_spans) / ops
    m["simplex.highs_s"] = total(named(HIGHS[2]))
    m["simplex.wrap_s"] = m["simplex.busy_s"] - m["simplex.highs_s"]
    m["simplex.rows_max"] = max((spans[i][NOTE]["rows"] for i in lp_spans), default=0)
    m["simplex.cols_max"] = max((spans[i][NOTE]["cols"] for i in lp_spans), default=0)
    for caller in ("heldkarp", "decompose", "prize"):
        m[f"simplex.{caller}_s"] = sum(dur[i] for i in lp_spans if parent_layer[i] == caller) / ops

    m["decompose.busy_s"] = total(named("decompose.decompose"))
    m["decompose.rounds"] = sum(1 for i in lp_spans if parent_layer[i] == "decompose") / ops
    m["decompose.trees"] = sum(notes("decompose.decompose", "trees")) / ops

    m["solver.augment_s"] = total(named("solver.augment_tree"))
    m["solver.trees_augmented"] = sum(1 for s in spans if s[NAME] == "solver.augment_tree") / ops

    t_sizes = notes("tjoin.min_tjoin", "t_size")
    m["tjoin.join_s"] = total(named("tjoin.min_tjoin"))
    m["tjoin.t_size_mean"] = statistics.fmean(t_sizes) if t_sizes else 0.0
    m["tjoin.walk_s"] = total(lambda i: spans[i][NAME] in ("tjoin.eulerian_path", "tjoin.shortcut"))

    layers = notes("narrowcuts.compute_narrow_cuts", "layers")
    worst = notes("narrowcuts.verify_certificate", "worst")
    m["narrowcuts.pair_cuts_s"] = total(named("narrowcuts.pairwise_forced_cuts"))
    m["narrowcuts.pair_probes"] = sum(
        1 for i in top_flow if parent_name[i] == "narrowcuts.pairwise_forced_cuts"
    ) / ops
    m["narrowcuts.structure_s"] = total(named("narrowcuts.compute_narrow_cuts"), self_time)
    m["narrowcuts.layers"] = statistics.fmean(layers) if layers else 0.0
    m["narrowcuts.flow_s"] = total(named("narrowcuts.solve_fractional_disjoint"))
    m["narrowcuts.certificate_s"] = total(named("narrowcuts.build_certificate"))
    m["narrowcuts.verify_s"] = total(named("narrowcuts.verify_certificate"))
    m["narrowcuts.verify_enum"] = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "exact.all_cut_capacities"
        and parent_name[i] == "narrowcuts.verify_certificate"
    ) / ops
    m["narrowcuts.verify_gomory_hu"] = sum(
        1 for i in gh if parent_name[i] == "narrowcuts.verify_certificate"
    ) / ops
    m["narrowcuts.margin_min"] = min(worst) - 1.0 if worst else 0.0

    m["exact.cut_enum_s"] = total(
        lambda i: spans[i][NAME] == "exact.all_cut_capacities" and parent_layer[i] == "narrowcuts"
    )
    m["exact.pc_dp_s"] = total(named("exact.exact_pc_path"))
    m["exact.matching_certify_s"] = total(named("exact.brute_force_matching"))

    pc_lp = [i for i, s in enumerate(spans) if s[NAME] == "prize.pc_lp_solve"]
    pc_rows = 0
    for i in pc_lp:
        lps = [c for c in children[i] if spans[c][NAME] == "simplex.simplex_solve"]
        if lps:
            pc_rows += spans[lps[-1]][NOTE]["rows"] - spans[i][NOTE]["n"]
    m["prize.lp_s"] = sum(dur[i] for i in pc_lp) / ops
    m["prize.lp_rounds"] = sum(notes("prize.pc_lp_solve", "rounds")) / ops
    m["prize.cut_rows"] = pc_rows / ops
    m["prize.candidates"] = sum(notes("prize.pc_solve", "candidates")) / ops

    m["graphical.closure_s"] = total(named("instances.metric_closure"))
    m["graphical.traversal_s"] = total(named("graphical.build_layer_traversal")) - sum(
        dur[i] for i in range(len(spans))
        if layer[i] == "narrowcuts" and parent_name[i] == "graphical.build_layer_traversal"
    ) / ops

    # accounting: layer self times + unspanned remainder = operation time
    by_layer: dict[str, float] = defaultdict(float)
    for i, name in enumerate(layer):
        by_layer[name] += self_time[i]
    op_total = sum(dur[i] for i, s in enumerate(spans) if s[NAME] == OP)
    # simplex.wrap_s and simplex.highs_s are the self times of simplex and highs
    for name in ("instances", "heldkarp", "maxflow", "decompose", "solver",
                 "tjoin", "narrowcuts", "exact", "prize", "graphical"):
        m[f"{name}.self_s"] = by_layer.get(name, 0.0) / ops
    m["trace.op_s"] = op_total / ops
    m["trace.unspanned_s"] = by_layer.get(OP, 0.0) / ops
    return m

