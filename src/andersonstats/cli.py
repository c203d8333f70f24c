"""Command-line surface: every computation with machine-readable output.

Commands are thin adapters over the library; no numeric logic lives here.
All JSON payloads carry ``schema_version`` and serialize rationals as
strings like ``"4/45"``. Exit codes: 0 success, 1 verification mismatch or
integrity error (two exact routes disagreed), 2 usage error, 3 resource
budget exceeded. Errors are emitted as JSON on stderr. ``verify-table``
accepts any dimension d >= 1; a discrete law needs at least two atoms.
``simulate`` and ``report`` open ``--out`` before any work, creating or
truncating it as shell redirection does. The ``ANDERSON_BUDGET``
environment variable (a positive decimal integer, default 10^9) is the only
setting of the enumeration and memory budgets; any other value is a usage
error. Each command imports only the layers it runs, inside its handler, so
that an exact command loads neither the Monte Carlo layer nor numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .budget import BudgetExceededError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _emit(payload: dict, stream=None) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}), file=stream)


def _emit_error(kind: str, message: str) -> None:
    _emit({"error": {"type": kind, "message": message}}, stream=sys.stderr)


def _cmd_pathcount(args) -> int:
    from .lattice import MultiIndex, canonicalize
    from .walks import path_counts

    table = path_counts(args.k, args.d)
    if args.beta is not None:
        index = MultiIndex.parse(args.beta, d=args.d)
        rep, _ = canonicalize(index)
        _emit({"k": args.k, "d": args.d, "beta": rep.format(), "p": table.count_for(index)})
    else:
        _emit(table.to_json_dict())
    return EXIT_OK


def _cmd_verify_table(args) -> int:
    from .table import verify_reference_table

    verification = verify_reference_table(args.d)
    _emit(verification.to_json_dict())
    return EXIT_OK if verification.match else EXIT_MISMATCH


def _cmd_variance(args) -> int:
    from .moments import parse_distribution
    from .poly import Poly
    from .variance import sigma_squared

    p = Poly.parse(args.poly)
    model = parse_distribution(args.dist)
    value = sigma_squared(p, model, args.d)
    _emit(
        {
            "poly": p.format(),
            "dist": args.dist,
            "d": args.d,
            "sigma_squared": str(value),
            "sigma_squared_float": float(value),
        }
    )
    return EXIT_OK


def _cmd_degenerate(args) -> int:
    from .moments import parse_distribution, support_class
    from .variance import degenerate_basis

    model = parse_distribution(args.dist)
    basis = degenerate_basis(model, args.d)
    kind = support_class(model)
    _emit(
        {
            "dist": args.dist,
            "d": args.d,
            "support_class": kind.kind,
            "basis": [{"degree": q.degree, "poly": q.format()} for q in basis],
        }
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .moments import parse_distribution
    from .poly import Poly
    from .variance import classify, sigma_squared

    p = Poly.parse(args.poly)
    model = parse_distribution(args.dist)
    label = classify(p, model, args.d)
    value = sigma_squared(p, model, args.d)
    _emit(
        {
            "poly": p.format(),
            "dist": args.dist,
            "d": args.d,
            "classification": label,
            "sigma_squared": str(value),
        }
    )
    return EXIT_OK


def _cmd_mean_trace(args) -> int:
    from .hamiltonian import BoxSpec, mean_trace_exact
    from .moments import parse_distribution

    model = parse_distribution(args.dist)
    box = BoxSpec(args.d, args.L)
    value = mean_trace_exact(args.k, box, model)
    _emit(
        {
            "k": args.k,
            "d": args.d,
            "L": args.L,
            "dist": args.dist,
            "mean_trace": str(value),
            "mean_trace_float": float(value),
        }
    )
    return EXIT_OK


def _run_simulation(args):
    from .fluctuations import run_experiment
    from .moments import parse_distribution
    from .poly import Poly

    p = Poly.parse(args.poly)
    model = parse_distribution(args.dist)
    return run_experiment(p, model, args.d, args.L, args.samples, args.seed)


def _open_out(path):
    """The ``--out`` file (or a null context without one), opened before any
    work; a path that cannot be opened for writing is a usage error."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path!r}: {exc.strerror or exc}") from None


def _cmd_simulate(args) -> int:
    with _open_out(args.out) as out:
        report = _run_simulation(args)
        if out:
            report.write_csv(out)
    _emit(report.to_json_dict())
    return EXIT_OK


def _cmd_report(args) -> int:
    from .moments import parse_distribution
    from .table import verify_reference_table
    from .variance import classify, degenerate_basis, sigma_squared

    with _open_out(args.out) as out:
        verification = verify_reference_table(args.d)
        model = parse_distribution(args.dist)
        certificates = []
        all_zero = True
        for q in degenerate_basis(model, args.d):
            value = sigma_squared(q, model, args.d)
            all_zero = all_zero and value == 0
            certificates.append(
                {
                    "degree": q.degree,
                    "poly": q.format(),
                    "sigma_squared": str(value),
                    "classification": classify(q, model, args.d),
                }
            )
        simulation = _run_simulation(args)
        if out:
            simulation.write_csv(out)
    _emit(
        {
            "table_verification": verification.to_json_dict(),
            "degenerate_certificates": certificates,
            "simulation": simulation.to_json_dict(),
        }
    )
    return EXIT_OK if verification.match and all_zero else EXIT_MISMATCH


def _add_dist(parser):
    parser.add_argument(
        "--dist",
        required=True,
        help="distribution: discrete:v1@w1,v2@w2,... | uniform:w | gaussian:v",
    )


def _add_poly(parser):
    parser.add_argument(
        "--poly", required=True, help="polynomial coefficients, low to high, e.g. 0,0,1"
    )


def _add_simulation_flags(parser):
    parser.add_argument("--d", type=int, required=True, help="lattice dimension")
    parser.add_argument("--L", type=int, required=True, help="box radius")
    parser.add_argument("--samples", type=int, required=True, help="sample count")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--out", help="write samples as CSV (index,value) to this file")


def build_parser() -> _Parser:
    parser = _Parser(prog="andersonstats", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("pathcount", help="path-count table or a single class count")
    sub.add_argument("--k", type=int, required=True, help="string length")
    sub.add_argument("--d", type=int, required=True, help="lattice dimension")
    sub.add_argument("--beta", help="multi-index (canonicalized before lookup)")
    sub.set_defaults(handler=_cmd_pathcount)

    sub = commands.add_parser("verify-table", help="check lengths 1..5 against the reference table")
    sub.add_argument("--d", type=int, required=True)
    sub.set_defaults(handler=_cmd_verify_table)

    sub = commands.add_parser("variance", help="exact limiting variance of a polynomial")
    _add_poly(sub)
    _add_dist(sub)
    sub.add_argument("--d", type=int, required=True)
    sub.set_defaults(handler=_cmd_variance)

    sub = commands.add_parser("degenerate", help="basis of zero-variance polynomials")
    _add_dist(sub)
    sub.add_argument("--d", type=int, required=True)
    sub.set_defaults(handler=_cmd_degenerate)

    sub = commands.add_parser("classify", help="degenerate vs nondegenerate classification")
    _add_poly(sub)
    _add_dist(sub)
    sub.add_argument("--d", type=int, required=True)
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("mean-trace", help="exact expected trace of a power")
    sub.add_argument("--k", type=int, required=True, help="power")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--L", type=int, required=True)
    _add_dist(sub)
    sub.set_defaults(handler=_cmd_mean_trace)

    sub = commands.add_parser("simulate", help="Monte Carlo fluctuation experiment")
    _add_poly(sub)
    _add_dist(sub)
    _add_simulation_flags(sub)
    sub.set_defaults(handler=_cmd_simulate)

    sub = commands.add_parser(
        "report",
        help="reproduction document: table verification, certificates, one simulation",
    )
    _add_poly(sub)
    _add_dist(sub)
    _add_simulation_flags(sub)
    sub.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        _emit_error("resource", str(exc))
        return EXIT_RESOURCE
    except RuntimeError as exc:
        from .variance import IntegrityError  # loaded only on this error path

        if not isinstance(exc, IntegrityError):
            raise
        _emit_error("integrity", str(exc))
        return EXIT_MISMATCH
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
