"""Command-line interface.

Subcommands: ``bounds`` (the five lower-bound quantities as CSV), ``ic``
(information cost and protocol error), ``compress`` (zero-communication
compression verification report), and ``verify`` (the full acceptance
battery).  Exit codes: 0 success, 1 verification failure, 2 bad input,
3 capacity exceeded, 4 numerical-engine failure.

Output is deterministic for a fixed seed; reports are written to a temporary
file and renamed into place so a failed run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from . import bounds as bnd
from . import compression as cmp
from . import corpus as cps
from .caps import default_caps
from .core import InputDistribution, PartialFunction
from .errors import (
    CapacityError,
    CommlbError,
    SolverError,
)
from .protocol import (
    ProtocolTree,
    information_cost,
    information_cost_paths,
    protocol_error,
)
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3
EXIT_SOLVER = 4


def _load_function(source: str) -> PartialFunction:
    if source.startswith("corpus:"):
        return cps.make_function(source)
    return PartialFunction.from_text(Path(source).read_text())


def _load_distribution(source: str, f: PartialFunction) -> InputDistribution:
    if source in ("uniform", "uniform_on_domain"):
        return cps.make_distribution(source, f)
    return InputDistribution.from_text(Path(source).read_text())


# The one parameter of the corpus protocols that take one: its keyword and type.
_PROTOCOL_PARAMS = {"trivial_const": ("z", int), "noisy_bit": ("flip", float),
                    "exchange_all": ("n", int)}


def _load_protocol(source: str, f: PartialFunction | None) -> ProtocolTree:
    if not source.startswith("corpus:"):
        return ProtocolTree.from_text(Path(source).read_text())
    kind, *params = [p.strip() for p in source.removeprefix("corpus:").split(",")]
    if kind == "exchange_all" and f is not None:
        return cps.make_protocol(kind, f=f)  # n is read off f
    if params and kind in _PROTOCOL_PARAMS:
        name, parse = _PROTOCOL_PARAMS[kind]
        return cps.make_protocol(kind, **{name: parse(params[0])})
    return cps.make_protocol(kind)


def _write_output(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".commlb-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# The bounds of `commlb bounds`: each whole-function bound from (f, mu, eps,
# mode, caps), and each per-label bound from (f, eps, z, mode, caps), solved
# per label that occurs in the table (a declared label with an empty
# preimage gets no row).
_BOUNDS = {
    "prt": lambda f, mu, eps, mode, caps: bnd.prt(f, eps, mode, caps),
    "bprt": lambda f, mu, eps, mode, caps: bnd.bprt(f, eps, mode, caps),
    "bprt-mu": lambda f, mu, eps, mode, caps: bnd.bprt_mu(f, mu, eps, mode, caps),
    "disc": lambda f, mu, eps, mode, caps: bnd.BoundResult(
        "disc", bnd.discrepancy(f, mu, caps), eps, None, None, "exact"),
}
_LABEL_BOUNDS = {
    "srec": lambda f, eps, z, mode, caps: bnd.srec(f, eps, z, mode, caps),
    "rect": lambda f, eps, z, mode, caps: bnd.rect_dual(f, eps, z, None, mode, caps),
}


def cmd_bounds(args) -> int:
    f = _load_function(args.fn)
    mu = _load_distribution(args.mu, f)
    mode = "rational" if args.rational else "float"
    eps = Fraction(args.eps).limit_denominator(10**9) if args.rational else args.eps
    caps = default_caps()
    requested = [b.strip() for b in args.bound.split(",") if b.strip()]
    labels = sorted({z for row in f.table for z in row if z is not None})
    rows = [bnd.CSV_HEADER]
    for name in requested:
        if name in _BOUNDS:
            rows.append(bnd.csv_row(_BOUNDS[name](f, mu, eps, mode, caps), args.fn, f))
        elif name in _LABEL_BOUNDS:
            rows += [bnd.csv_row(_LABEL_BOUNDS[name](f, eps, z, mode, caps),
                                 f"{args.fn}:z={z}", f) for z in labels]
        else:
            raise CommlbError(f"unknown bound {name!r}")
    _write_output(rows, args.out)
    return EXIT_OK


def _load_instance(args) -> tuple[PartialFunction | None, ProtocolTree, InputDistribution, float]:
    """The function of --fn (None without it), the protocol of --prot, the
    distribution of --mu on their grid, and the protocol's information cost."""
    f = _load_function(args.fn) if args.fn else None
    pi = _load_protocol(args.prot, f)
    mu = _load_distribution(args.mu, f if f is not None else pi)
    return f, pi, mu, information_cost(pi, mu)


def cmd_ic(args) -> int:
    f, pi, mu, ic = _load_instance(args)
    path_a, path_b = information_cost_paths(pi, mu)
    lines = [
        "quantity,value",
        f"information_cost,{ic!r}",
        f"ic_path_conditional_mi,{path_a!r}",
        f"ic_path_divergence,{path_b!r}",
        f"ic_path_difference,{abs(path_a - path_b)!r}",
        f"depth,{pi.depth}",
        f"universe_size,{pi.universe_size}",
    ]
    if f is not None:
        lines.append(f"protocol_error,{protocol_error(pi, f, mu)!r}")
    _write_output(lines, args.out)
    return EXIT_OK


def cmd_compress(args) -> int:
    if not (0 < args.delta < 1):
        raise CommlbError(f"delta must lie in (0, 1), got {args.delta}")
    f, pi, mu, ic = _load_instance(args)
    if args.override and args.paper_exact:
        raise CommlbError("--paper-exact and --override are mutually exclusive")
    if args.override:
        try:
            d, t, k = (int(v) for v in args.override.split(","))
        except ValueError as exc:
            raise CommlbError(f"bad override {args.override!r}") from exc
        params = cmp.compression_parameters(args.delta, ic, pi.universe_size, (d, t, k))
    else:
        params = cmp.compression_parameters(args.delta, ic, pi.universe_size)
    caps = default_caps()
    if args.mode == "dp":
        caps = caps.with_overrides(dp_trials=max(caps.dp_trials, params.trials))
    report = cmp.verify_compression(
        pi, f, mu, args.delta, params,
        engine=args.mode, mc_samples=args.samples, seed=args.seed, caps=caps,
    )
    _write_output(report.csv_rows(), args.out)
    if params.mode == "paper-exact" and not report.all_pass:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(
        only=args.only,
        perturb=args.self_test_perturb,
        mc_samples=args.samples,
        seed=args.seed,
    )
    if not results:
        raise CommlbError(f"no checks match --only {args.only!r}")
    _write_output([r.line() for r in results], args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlb",
        description="Communication lower bounds, information cost, and "
        "zero-communication compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="compute lower-bound quantities as CSV")
    pb.add_argument("--fn", required=True, help="corpus:FAMILY,n or COMMFN file")
    pb.add_argument("--mu", default="uniform",
                    help="uniform | uniform_on_domain | COMMDIST file")
    pb.add_argument("--eps", type=float, default=0.0)
    pb.add_argument("--bound", default="bprt",
                    help="comma-separated: prt,bprt,bprt-mu,srec,rect,disc")
    pb.add_argument("--rational", action="store_true")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bounds)

    pi = sub.add_parser("ic", help="information cost of a protocol")
    pi.add_argument("--prot", required=True, help="corpus:KIND[,param] or COMMPROT file")
    pi.add_argument("--fn", help="optional function for protocol error")
    pi.add_argument("--mu", default="uniform")
    pi.add_argument("--out")
    pi.set_defaults(func=cmd_ic)

    pc = sub.add_parser("compress", help="verify the compression guarantees")
    pc.add_argument("--prot", required=True)
    pc.add_argument("--fn")
    pc.add_argument("--mu", default="uniform")
    pc.add_argument("--delta", type=float, default=0.9)
    pc.add_argument("--paper-exact", action="store_true",
                    help="derive parameters from delta and the information cost")
    pc.add_argument("--override", help="delta_exp,trials,hash_bits")
    pc.add_argument("--mode", choices=("dp", "mc"), default="dp")
    pc.add_argument("--samples", type=int, default=1_000_000)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_compress)

    pv = sub.add_parser("verify", help="run the acceptance battery")
    pv.add_argument("--only", help="substring filter on check names")
    pv.add_argument("--self-test-perturb", action="store_true",
                    help="inject a deliberate failure to test the harness")
    pv.add_argument("--samples", type=int, default=10_000_000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (CommlbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
