"""The benchmark's traced run wraps pathtsp functions by name: every name in
`pathbench/spans.py` must still exist, or `pathbench/run.py --trace 1` fails.
The benchmark's calls must also still bind to the functions' signatures."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from pathtsp.decompose import decompose, verify_combination
from pathtsp.heldkarp import hk_verify
from pathtsp.narrowcuts import (
    build_certificate,
    certificate_cost_bound,
    compute_narrow_cuts,
    verify_certificate,
)
from pathtsp.prize import pc_solve
from pathtsp.solver import solve_bom, solve_hoogeveen

SPANS = Path(__file__).resolve().parent.parent / "pathbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pathbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_on_pathtsp():
    spans = _load_spans()
    missing = [
        f"pathtsp.{mod_name}.{fname}"
        for mod_name, funcs in spans.TARGETS.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(f"pathtsp.{mod_name}"), fname, None))
    ]
    assert missing == []
    mod_name, attr, _ = spans.HIGHS
    assert callable(getattr(importlib.import_module(f"pathtsp.{mod_name}"), attr, None))


# Each call shape the benchmark (pathbench/workloads.py) and scripts/ use,
# as (function, positional count, keyword names).
CALL_SHAPES = [
    (decompose, 1, ()),  # decompose(hk)
    (verify_combination, 2, ()),  # verify_combination(hk, combo)
    (hk_verify, 2, ()),  # hk_verify(x, inst)
    (verify_certificate, 2, ()),  # verify_certificate(cert, inst)
    (build_certificate, 6, ()),  # (hk, tree, T, variant, structure, flows)
    (compute_narrow_cuts, 3, ()),  # compute_narrow_cuts(hk, tau, pair_cuts)
    (certificate_cost_bound, 5, ()),  # (inst, hk, combo, variant, pair_cuts)
    (solve_bom, 1, ("hk", "combo")),  # solve_bom(inst, hk=hk, combo=combo)
    (solve_hoogeveen, 2, ()),  # solve_hoogeveen(inst, hk)
    (pc_solve, 1, ()),  # pc_solve(pc)
]


@pytest.mark.parametrize(
    "fn,positional,keywords", CALL_SHAPES, ids=[fn.__name__ for fn, _, _ in CALL_SHAPES]
)
def test_benchmark_call_shapes_bind(fn, positional, keywords):
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
