#!/usr/bin/env python3
"""pathtsp benchmark: one closed-loop caller running one workload.

    python3 pathbench/run.py --workload bom --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; pathtsp is imported from ``src/``.
With ``--trace 0`` the run sets up (import, instance generation, one warm-up
operation), times operations back to back for ``--seconds`` seconds of
operation time, checks every output as it comes and prints the end-to-end
metrics of BENCHMARK.json, scaled to a nominal machine speed by the
reference kernel timed between operations (``reference.py``).
With ``--trace 1`` it runs each instance twice back to back, untraced and
then with every layer boundary wrapped in spans, and prints the per-layer
metrics. The last stdout line is the result object; the line
before it, also written to ``.bench_results/``, carries the environment,
the tail percentile, the failures and the per-instance output digests.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One caller and no extra threads: pin BLAS/OpenMP before numpy loads.
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("bom", "certify", "pc", "graphical")
POOL = 256  # instances generated during set-up; later ones are made on demand
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 1 + this
TAIL_MIN_BEYOND = 10
OUT_DIR = ROOT / ".bench_results"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up only and print the set-up time (used for setup_s)",
    )
    return ap.parse_args(argv)


def setup(name: str, seed: int):
    """Import pathtsp, generate the instance pool, run one warm-up operation."""
    src = ROOT / "src"
    if not (src / "pathtsp" / "__init__.py").is_file():
        # never fall back to an installed copy of pathtsp
        raise ImportError(f"no pathtsp sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    wl = workloads.WORKLOADS[name]
    pool = [wl.make(seed, i) for i in range(POOL)]
    wl.op(wl.make(workloads.WARMUP_SEED, 0))
    reference.kernel()
    # The pool and the imported modules live through the run: move them out
    # of the collector's way, so collections cost the same at every point.
    gc.collect()
    gc.freeze()
    return wl, pool


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process running this script with --setup-probe."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_loop(op, instance, seconds, check, call=None):
    """Closed loop: the next operation starts when the previous returns.

    Before each operation the reference kernel runs and is timed. After
    it, ``check(instance, output)`` runs outside the timed region and the
    output is dropped, so the heap does not grow over the run. The loop
    ends once the operation times add up to ``seconds``. Returns the
    per-operation wall times, the kernel times before them, the number of
    operations that returned, the failures and the per-instance records.
    """
    call = call or (lambda i, fn, inst: fn(inst))
    samples, kernel_times, failures, records = [], [], [], []
    returned = 0
    i = 0
    while sum(samples) < seconds:
        inst = instance(i)
        kernel_times.append(reference.timed())
        t0 = time.perf_counter()
        try:
            out = call(i, op, inst)
            returned += 1
        except Exception as exc:  # counted in failed_frac, never aborts the run
            out = exc
        samples.append(time.perf_counter() - t0)
        more_failures, more_records = check_results(check, [(i, inst, out)])
        failures += more_failures
        records += more_records
        i += 1
    return samples, kernel_times, returned, failures, records


def check_results(check, results):
    """Check (index, instance, output or exception) triples; returns
    (failures, per-instance records)."""
    failures, records = [], []
    for i, inst, out in results:
        if isinstance(out, Exception):
            failures.append({"i": i, "reason": f"operation raised {out!r}"})
            continue
        try:
            problem, rec = check(inst, out)
        except Exception as exc:  # a check that cannot run is a failed check
            problem, rec = f"check raised {exc!r}", None
        if problem:
            failures.append({"i": i, "reason": problem})
        if rec is not None:
            records.append({"i": i, **rec})
    return failures, records


def tail_percentile(samples) -> tuple[int, int]:
    """Highest whole percentile with at least TAIL_MIN_BEYOND samples above
    its nearest rank, and that count; the median when samples are too few."""
    n = len(samples)
    for q in range(99, 49, -1):
        beyond = n - math.ceil(q / 100 * n)
        if beyond >= TAIL_MIN_BEYOND:
            return q, beyond
    return 50, n // 2


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a weighted mean of all order
    statistics, so it does not jump from one sample to the next when a few
    operation times shift."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(samples, prob=[q])[0])


def environment(load_at_start: str) -> dict:
    import networkx
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": load_at_start,
        "loadavg_end": _loadavg(),
        "thread_pins": THREAD_PINS,
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> tuple[dict, dict]:
    load_at_start = _loadavg()
    wl, pool = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - START
    if args.setup_probe:
        return {}, {"setup_s": own_setup}

    def instance(i):
        return pool[i] if i < len(pool) else wl.make(args.seed, i)

    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    if args.trace == 0:
        setups = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        samples, kernel_times, returned, failures, records = timed_loop(
            wl.op, instance, args.seconds, wl.check)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        q, beyond = tail_percentile(samples)
        wall = {
            "solve_s_p50": quantile(samples, 0.5),
            "solve_s_tail": quantile(samples, q / 100),
            "throughput_per_s": returned / sum(samples),
        }
        scale = reference.scale(kernel_times)
        values = {
            "setup_s": statistics.median(setups),
            "solve_s_p50": scale * wall["solve_s_p50"],
            "solve_s_tail": scale * wall["solve_s_tail"],
            "throughput_per_s": wall["throughput_per_s"] / scale,
            "ok_frac": 1.0 - len(failures) / len(samples),
            "cost_over_lp": statistics.fmean(r["ratio"] for r in records) if records else 0.0,
            "peak_rss_mb": rss_mb,
        }
        detail.update({
            "setup_samples_s": setups, "tail_percentile": q, "tail_samples_beyond": beyond,
            "wall": wall, "speed_scale": scale,
            "op_times_s": samples, "kernel_times_s": kernel_times,
        })
    else:
        import spans

        tracer = spans.Tracer()
        plain: dict[int, float] = {}

        def untraced_then_traced(i, op, inst):
            # Back to back on one instance, so both timings see the same
            # machine state; their ratio gives the tracing overhead.
            t0 = time.perf_counter()
            try:
                op(inst)
            finally:
                plain[i] = time.perf_counter() - t0
            with tracer:
                return tracer.run_op(i, op, inst)

        samples, _, returned, failures, records = timed_loop(
            wl.op, instance, args.seconds, wl.check, call=untraced_then_traced)
        traced = {
            s[spans.OPID]: s[spans.END] - s[spans.START]
            for s in tracer.spans if s[spans.NAME] == spans.OP
        }
        values = spans.layer_metrics(tracer.spans, returned)
        traced_s = sum(traced.values())
        values["trace.overhead_frac"] = 1.0 - sum(plain[i] for i in traced) / traced_s if traced_s else 0.0
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with spans_file.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    detail.update({
        "samples": len(samples),
        "attempted": len(samples),
        "failed": len(failures),
        "failed_frac": len(failures) / len(samples),
        "failures": failures[:10],
        "digests": [[r["i"], r["lp"], r["out"]] for r in records],
        "environment": environment(load_at_start),
    })
    return detail, values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        detail, values = run(args)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(values["setup_s"]))
        return 0
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics(args.trace)
    }
    detail["metrics"] = metrics
    line = json.dumps(detail, sort_keys=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
