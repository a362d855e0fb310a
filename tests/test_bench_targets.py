"""The benchmark's traced run wraps pathtsp functions by name: every name in
`pathbench/spans.py` must still exist, or `pathbench/run.py --trace 1` fails."""

import importlib
import importlib.util
from pathlib import Path

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
