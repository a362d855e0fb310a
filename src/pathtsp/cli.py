"""Command-line surface. Machine-readable JSON goes to stdout, diagnostics
to stderr. Exit codes: 0 success, 1 usage error, 2 infeasible or invalid
input or an unwritable --output path, 3 internal invariant failure."""

from __future__ import annotations

import argparse
import json
import sys

from .decompose import decompose
from .errors import (
    InvalidInstanceError,
    InvariantError,
    NotConnectedError,
    ParseError,
    SizeLimitError,
)
from .exact import exact_path_tsp, exact_pc_path
from .graphical import solve_graphical
from .heldkarp import hk_solve
from .instances import (
    GraphicalInstance,
    generate_random_metric,
    instance_from_dict,
    instance_to_dict,
    metric_closure,
    read_json,
    require_metric,
    validate_metric,
    write_instance,
)
from .narrowcuts import (
    VARIANTS,
    certificate_to_dict,
    compute_narrow_cuts,
    tree_certificates,
    verify_certificate,
)
from .prize import PCInstance, pc_solve
from .solver import GOLDEN_RATIO, solve_bom, solve_hoogeveen

USAGE_ERROR, INPUT_ERROR, INVARIANT_ERROR = 1, 2, 3


def _check_ranges(args: argparse.Namespace):
    """Range checks on the options the chosen command has."""
    tau, theta = getattr(args, "tau", None), getattr(args, "theta", None)
    rho = getattr(args, "rho", None)
    if tau is not None and not (0.0 < tau <= 1.0):
        raise ValueError(f"--tau must be in (0, 1], got {tau}")
    if theta is not None and not (0.0 < theta < 1.0):
        raise ValueError(f"--theta must be in (0, 1), got {theta}")
    if rho is not None and not (1.5 <= rho < 2.0):
        raise ValueError(f"--rho must be in [1.5, 2), got {rho}")
    for name in ("sigma", "kappa"):
        val = getattr(args, name, None)
        if val is not None and val < 0.0:
            raise ValueError(f"--{name} must be nonnegative, got {val}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="pathtsp", description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--output", help="write JSON here instead of stdout")
        return p

    p = cmd("solve", help="best-of-many golden-ratio pipeline")
    p.add_argument("instance")
    p.add_argument("--hoogeveen", action="store_true", help="single-MST baseline")

    p = cmd("hk", help="Held-Karp LP optimum")
    p.add_argument("instance")

    p = cmd("decompose", help="spanning-tree convex decomposition")
    p.add_argument("instance")

    p = cmd("narrow", help="tau-narrow cut layers")
    p.add_argument("instance")
    p.add_argument("--tau", type=float, required=True)

    p = cmd("certify", help="fractional T-join dominator per decomposition tree")
    p.add_argument("instance")
    p.add_argument("--variant", choices=VARIANTS, default="golden")

    p = cmd("pc", help="prize-collecting path")
    p.add_argument("instance")
    p.add_argument("--rho", type=float, default=GOLDEN_RATIO)

    p = cmd("graphical", help="unit-weight graphical three-candidate solver")
    p.add_argument("instance")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)

    p = cmd("exact", help="exact oracle (path TSP, or prize-collecting if prizes present)")
    p.add_argument("instance")

    p = cmd("gen", help="generate a random Euclidean instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = cmd("validate", help="metric invariant report")
    p.add_argument("instance")
    return parser


def _emit(payload: dict, output: str | None):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run(args: argparse.Namespace) -> dict | None:
    if args.command == "gen":
        if args.n < 2:
            raise _UsageError(f"--n must be at least 2, got {args.n}")
        inst = generate_random_metric(args.n, args.seed)
        if args.output:
            write_instance(inst, args.output)
            _emit({"written": args.output, "n": args.n, "seed": args.seed}, None)
            return None
        return instance_to_dict(inst)

    raw = read_json(args.instance)
    loaded = instance_from_dict(raw, args.instance)

    if args.command == "validate":
        if isinstance(loaded, GraphicalInstance):
            metric_closure(loaded)  # raises when disconnected
            return {"valid": True, "type": "graph", "violations": []}
        report = validate_metric(loaded)
        payload = {
            "valid": not report,
            "type": "metric",
            "violations": [
                {"kind": v.kind, "where": list(v.where), "amount": v.amount}
                for v in report
            ],
        }
        if report:
            raise _FailedCheck(payload, "invalid instance", INPUT_ERROR)
        return payload

    if args.command == "graphical":
        if not isinstance(loaded, GraphicalInstance):
            raise InvalidInstanceError("graphical solver needs a graph-type instance")
        kwargs = {
            name: getattr(args, name)
            for name in ("theta", "sigma", "kappa")
            if getattr(args, name) is not None
        }
        return solve_graphical(loaded, **kwargs).to_dict()

    inst = metric_closure(loaded) if isinstance(loaded, GraphicalInstance) else loaded

    if args.command == "solve":
        # both solvers run the metric guard themselves
        sol = solve_hoogeveen(inst) if args.hoogeveen else solve_bom(inst)
        payload = sol.to_dict()
        payload.update(
            {
                "hk_value": sol.hk_value,
                "ratio_vs_hk": sol.cost / sol.hk_value if sol.hk_value else 1.0,
                "guarantee": (5.0 / 3.0 if args.hoogeveen else GOLDEN_RATIO),
                "method": "hoogeveen" if args.hoogeveen else "bom",
            }
        )
        if not args.hoogeveen:
            payload["weighted_average"] = sol.weighted_average
        return payload

    require_metric(inst)

    if args.command == "exact":
        if "prizes" in raw:
            res = exact_pc_path(PCInstance.from_internal(inst, raw["prizes"]))
        else:
            res = exact_path_tsp(inst)
        return {
            "optimum": res.optimum,
            "witness": list(res.witness),
            "explored": res.explored,
        }

    if args.command == "pc":
        prizes = raw.get("prizes")
        if prizes is None:
            raise ParseError(f"{args.instance}: missing field \"prizes\"")
        pc = PCInstance.from_internal(inst, prizes)
        return pc_solve(pc, rho=args.rho).to_dict()

    if args.command == "hk":
        return hk_solve(inst).to_dict()

    if args.command == "decompose":
        hk = hk_solve(inst)
        return decompose(hk).to_dict()

    if args.command == "narrow":
        hk = hk_solve(inst)
        return compute_narrow_cuts(hk, args.tau).to_dict()

    if args.command == "certify":
        hk = hk_solve(inst)
        certs = []
        all_feasible = True
        for cert in tree_certificates(hk, decompose(hk), args.variant):
            report = verify_certificate(cert, inst)
            all_feasible &= report.feasible
            certs.append(certificate_to_dict(cert, report))
        payload = {"all_feasible": bool(all_feasible), "certificates": certs}
        if not all_feasible:
            raise _FailedCheck(payload, "certificate infeasible", INVARIANT_ERROR)
        return payload

    raise _UsageError(f"unknown command {args.command}")


class _FailedCheck(Exception):
    """A check failed: its payload is still written, then main prints the
    message and exits with code."""

    def __init__(self, payload: dict, message: str, code: int):
        super().__init__(message)
        self.payload, self.code = payload, code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_ranges(args)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        failure = None
        try:
            payload = _run(args)
        except _FailedCheck as exc:
            payload, failure = exc.payload, exc
        if payload is not None:
            _emit(payload, args.output)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # OSError: an --output path that cannot be written
    except (ParseError, InvalidInstanceError, NotConnectedError, SizeLimitError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    if failure is not None:
        print(failure, file=sys.stderr)
        return failure.code
    if args.verbose:
        print(f"{args.command}: ok", file=sys.stderr)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
