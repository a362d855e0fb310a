#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 pathbench/selftest.py        # or: python3 -m pytest pathbench/selftest.py

Checks that a tiny run of every workload prints every metric BENCHMARK.json
declares, with its unit; that corrupted or raising operations are counted as
failures instead of passing or aborting the run; and that BENCHMARK.json says
why each workload exists and how each metric is read.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_emits_every_metric():
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _tiny_run(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (workload["name"], trace)
            for m in result["metrics"].values():
                assert isinstance(m["value"], (int, float))
            if trace:
                _assert_self_times_account_for_op_time(result["metrics"])


def _assert_self_times_account_for_op_time(metrics: dict):
    """Layer self times plus the unspanned remainder add up to the
    operation's traced wall time, so no traced layer is left out."""
    parts = [m["value"] for name, m in metrics.items() if name.endswith(".self_s")]
    parts += [metrics[name]["value"] for name in
              ("simplex.wrap_s", "simplex.highs_s", "trace.unspanned_s")]
    op = metrics["trace.op_s"]["value"]
    assert abs(sum(parts) - op) <= 1e-9 + 1e-9 * op, (sum(parts), op)


def _corrupt(name: str, out: dict) -> list[dict]:
    """Outputs that a correct check must reject."""
    if name == "certify":
        cert, report = out["certs"][0]
        halved = dataclasses.replace(cert, y=cert.y.scale(0.5))
        return [{**out, "certs": [(halved, report)] + out["certs"][1:]}]
    if name == "pc":
        res = out["res"]
        order = list(res.order)
        repeated = order[:-2] + [order[1], order[-1]]
        return [
            {**out, "res": dataclasses.replace(res, order=tuple(repeated))},
            {**out, "res": dataclasses.replace(res, path_cost=res.path_cost * 1.01)},
        ]
    order = list(out["order"])
    repeated = order[:-2] + [order[1], order[-1]]
    return [
        {**out, "order": tuple(repeated)},
        {**out, "cost": out["cost"] * 1.01},
    ]


def test_corrupted_outputs_count_as_failures():
    for name, wl in workloads.WORKLOADS.items():
        inst = wl.make(5, 0)
        good = wl.op(inst)
        bad = _corrupt(name, good)
        results = [(0, inst, good)] + [(k + 1, inst, out) for k, out in enumerate(bad)]
        failures, records = run.check_results(wl.check, results)
        assert [f["i"] for f in failures] == list(range(1, len(bad) + 1)), (name, failures)
        assert len(records) == len(results)


def test_raising_operation_is_counted_not_fatal():
    def op(inst):
        time.sleep(0.001)
        if inst % 2:
            raise RuntimeError("boom")
        return inst

    samples, kernel_times, returned, failures, _ = run.timed_loop(
        op, lambda i: i, 0.02, check=lambda inst, out: (None, None))
    assert len(samples) == len(kernel_times) >= 2
    assert returned == (len(samples) + 1) // 2
    assert [f["i"] for f in failures] == list(range(1, len(samples), 2))


def test_benchmark_json_states_why_unit_and_direction():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"PASS {test.__name__}")
    sys.exit(0)
