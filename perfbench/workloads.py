"""The benchmark's four workloads: fixed lists of operations on the public commlb API.

An operation's ``run`` gets the output of the operation before it in the
same pass (``check_witness`` follows the bound whose witness it checks) and
returns the program's output.  ``record`` turns that output into plain JSON data: the
checks read it, and every pass must give the same record.  ``info`` holds
the operation's inputs as plain data for the checks.

Operations look functions up on the ``commlb`` package at call time, so the
wrappers that a traced pass installs see every call.

The seed fixes every MC, extraction and scalar-run seed and nothing else:
the operations, their order and the amount of work are the same for every
seed, so that memory layout and garbage collection see the same sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import commlb

WORKLOADS = ("bounds-float", "bounds-exact", "compress-dp", "compress-mc")

CORPUS = ("CONST,1", "AND,1", "EQ,1", "EQ,2", "GT,2", "DISJ,2", "IP,2", "GHD,2,1")
SMALL = ("CONST,1", "AND,1", "EQ,1")
FLOAT_EPS = (0.0, 0.05, 0.1, 0.25)
EXACT_EPS = (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))
DISCREPANCY = ("EQ,2", "GT,2", "DISJ,2", "IP,2", "GHD,2,1", "IP,3")

# 4x4 rational LPs that take under a second each, so that a pass stays short
# enough for several passes per run: (bound, function, eps, label).
EXACT_4X4 = (
    ("srec", "GT,2", Fraction(0), 0),
    ("srec", "DISJ,2", Fraction(0), 1),
    ("srec", "IP,2", Fraction(0), 1),
    ("srec", "EQ,2", Fraction(0), 1),
    ("srec", "GT,2", Fraction(1, 10), 1),
    ("srec", "GHD,2,1", Fraction(1, 10), 0),
    ("srec", "GHD,2,1", Fraction(0), 0),
    ("rect", "GHD,2,1", Fraction(0), 0),
    ("bprt_mu", "GT,2", Fraction(0), None),
    ("bprt_mu", "DISJ,2", Fraction(0), None),
)

# Paper-exact (flip, delta) pairs on noisy_bit; T runs from 140 to 17,898.
DP_PAIRS = (
    (0.45, 0.9), (0.4, 0.9), (0.35, 0.95), (0.35, 0.9),
    (0.3, 0.95), (0.3, 0.9), (0.25, 0.95), (0.25, 0.9),
)

MC_FLIP = 0.25
MC_OVERRIDES = ((3, 30, 2), (3, 60, 2), (4, 100, 3), (5, 160, 3))  # (delta_exp, T, hash_bits)
MC_SAMPLES = 40_000
EXTRACT_DELTA = 0.9
EXTRACT_SEEDS = 40_000
ZERO_COMM_OVERRIDES = (2, 20, 1)
ZERO_COMM_INPUT = (0, 1)
ZERO_COMM_RUNS = 200


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], object]
    record: Callable[[object], object]
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Plain-data records
# ---------------------------------------------------------------------------


def num(v):
    """A number as JSON data: a Fraction becomes the string 'p/q'."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    return float(v)


def _cells(mapping) -> list:
    return [[x, y, num(v)] for (x, y), v in sorted(mapping.items())]


def _record_bound(result, full: bool) -> dict:
    out = {
        "bound": result.bound_name,
        "value": num(result.value),
        "dual_value": None if result.dual_value is None else num(result.dual_value),
        "status": result.solver_status,
    }
    if not full:
        return out
    name, primal, dual = result.bound_name, result.primal_witness, result.dual_witness
    if name in ("bprt", "bprt_mu", "prt"):
        out["primal"] = {
            "efficiency": num(primal.efficiency),
            "entries": [[r.row_mask, r.col_mask, z, num(w)] for r, z, w in primal.entries],
        }
        out["dual"] = {"alpha": _cells(dual["alpha"]), "beta": _cells(dual["beta"])}
    elif name == "srec":
        out["primal"] = [[r.row_mask, r.col_mask, num(w)] for r, w in primal.items()]
        out["dual"] = [[kind, x, y, num(v)] for (kind, x, y), v in dual.items()]
    else:  # rect
        out["primal"] = _cells(primal)
        out["dual"] = [num(v) for v in dual]
    return out


def _record_witness_check(out) -> list:
    feasible, objective = out
    return [bool(feasible), num(objective)]


def _record_report(report) -> dict:
    p = report.params
    return {
        "params": [p.delta_exp, p.trials, p.hash_bits],
        "info_cost": p.info_cost,
        "inputs": [[r.x, r.y, r.not_abort, r.eq5_pass, r.collision] for r in report.inputs],
        "aggregate_not_abort": report.aggregate_not_abort,
        "eq4_distance": report.eq4_distance,
        "eq4_pass": report.eq4_pass,
        "eq5_pass": report.eq5_pass,
        "eq6_pass": report.eq6_pass,
        "collision_bound_pass": report.collision_bound_pass,
    }


def _record_extraction(out) -> dict:
    strategy, rep = out
    return {
        "entries": [[r.row_mask, r.col_mask, z, num(w)] for r, z, w in strategy.entries],
        "weight_total": num(rep.weight_total),
        "eta_target": rep.eta_target,
        "correctness_lhs": rep.correctness_lhs,
        "correctness_threshold": rep.correctness_threshold,
        "correctness_se": rep.correctness_se,
        "max_coverage": rep.max_coverage,
        "coverage_se": rep.coverage_se,
        "seeds": rep.seeds,
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _bound_call(kind: str, f, mu, eps, z, mode: str):
    if kind == "bprt":
        return lambda prev: commlb.bprt(f, eps, mode)
    if kind == "prt":
        return lambda prev: commlb.prt(f, eps, mode)
    if kind == "bprt_mu":
        return lambda prev: commlb.bprt_mu(f, mu, eps, mode)
    if kind == "srec":
        return lambda prev: commlb.srec(f, eps, z, mode)
    if kind == "rect":
        return lambda prev: commlb.rect_dual(f, eps, z, None, mode)
    raise ValueError(kind)


def _bound_kinds(f) -> list[tuple[str, int | None]]:
    labels = [z for z in range(f.z_size) if f.preimage(z)]
    return ([("bprt", None), ("prt", None), ("bprt_mu", None)]
            + [("srec", z) for z in labels] + [("rect", z) for z in labels])


def _op_name(kind, label, eps, z) -> str:
    tail = "" if z is None else f" z={z}"
    return f"{kind} {label} eps={num(eps)}{tail}"


def _bounds_float(seed: int) -> list[Op]:
    ops = []
    for label in CORPUS:
        f = commlb.make_function(label)
        mu = commlb.make_distribution("uniform", f)
        for eps in FLOAT_EPS:
            for kind, z in _bound_kinds(f):
                name = _op_name(kind, label, eps, z)
                info = {"kind": kind, "fn": label, "eps": eps, "z": z, "mode": "float"}
                bound = Op(name, _bound_call(kind, f, mu, eps, z, "float"),
                           lambda out: _record_bound(out, full=False), info)
                check = Op(
                    f"check_witness {name}",
                    lambda prev, f=f, mu=mu: commlb.check_witness(prev, f, mu),
                    _record_witness_check,
                    {"kind": "check_witness", "of": name},
                )
                ops += [bound, check]
    for label in DISCREPANCY:
        f = commlb.make_function(label)
        mu = commlb.make_distribution("uniform", f)
        ops.append(Op(f"discrepancy {label}", lambda prev, f=f, mu=mu: commlb.discrepancy(f, mu),
                      num, {"kind": "discrepancy", "fn": label}))
    return ops


def _bounds_exact(seed: int) -> list[Op]:
    specs = [(kind, label, eps, z)
             for label in SMALL
             for eps in EXACT_EPS
             for kind, z in _bound_kinds(commlb.make_function(label))]
    specs += list(EXACT_4X4)
    ops = []
    for kind, label, eps, z in specs:
        f = commlb.make_function(label)
        mu = commlb.make_distribution("uniform", f)
        ops.append(Op(_op_name(kind, label, eps, z),
                      _bound_call(kind, f, mu, eps, z, "rational"),
                      lambda out: _record_bound(out, full=True),
                      {"kind": kind, "fn": label, "eps": num(eps), "z": z,
                       "mode": "rational"}))
    return ops


def _compress_dp(seed: int) -> list[Op]:
    f = commlb.make_function("EQ,1")
    mu = commlb.make_distribution("uniform", f)
    ops = []
    for flip, delta in DP_PAIRS:
        pi = commlb.make_protocol("noisy_bit", flip=flip)

        def run(prev, pi=pi, delta=delta):
            ic = commlb.information_cost(pi, mu)
            params = commlb.compression_parameters(delta, ic, pi.universe_size)
            caps = commlb.default_caps()
            caps = caps.with_overrides(dp_trials=max(caps.dp_trials, params.trials))
            return commlb.verify_compression(pi, f, mu, delta, params, engine="dp", caps=caps)

        ops.append(Op(f"verify_compression noisy_bit flip={flip} delta={delta}",
                      run, _record_report, {"flip": flip, "delta": delta}))
    return ops


def _compress_mc(seed: int) -> list[Op]:
    rng = random.Random(seed)
    eq1 = commlb.make_function("EQ,1")
    mu = commlb.make_distribution("uniform", eq1)
    noisy = commlb.make_protocol("noisy_bit", flip=MC_FLIP)
    ops = []
    for k, overrides in enumerate(MC_OVERRIDES):
        params = commlb.compression_parameters(0.5, 0.2, noisy.universe_size, overrides=overrides)
        x, y = (0, 1) if k % 2 == 0 else (1, 0)
        mc_seed = rng.randrange(2**32)
        ops.append(Op(
            f"mc_output_distribution T={params.trials} x={x} y={y}",
            lambda prev, params=params, x=x, y=y, s=mc_seed: commlb.mc_output_distribution(
                noisy, mu, x, y, params, MC_SAMPLES, s),
            lambda out: list(out.counts),
            {"kind": "mc", "flip": MC_FLIP, "overrides": list(overrides), "x": x, "y": y,
             "samples": MC_SAMPLES, "seed": mc_seed},
        ))

    const1 = commlb.make_function("CONST,1")
    mu_const = commlb.make_distribution("uniform", const1)
    trivial = commlb.make_protocol("trivial_const", z=1)
    params = commlb.compression_parameters(EXTRACT_DELTA, 0.0, trivial.universe_size)
    extract_seed = rng.randrange(2**32)
    ops.append(Op(
        f"extract_strategy CONST,1 T={params.trials}",
        lambda prev, params=params: commlb.extract_strategy(
            trivial, const1, mu_const, EXTRACT_DELTA, params, EXTRACT_SEEDS, extract_seed),
        _record_extraction,
        {"kind": "extract", "seeds": EXTRACT_SEEDS, "seed": extract_seed,
         "trials": params.trials},
    ))

    params = commlb.compression_parameters(0.5, 0.2, noisy.universe_size,
                                           overrides=ZERO_COMM_OVERRIDES)
    x, y = ZERO_COMM_INPUT
    for i in range(ZERO_COMM_RUNS):
        run_seed = rng.randrange(2**32)
        ops.append(Op(
            f"run_zero_comm #{i}",
            lambda prev, params=params, x=x, y=y, s=run_seed: commlb.run_zero_comm(
                noisy, mu, x, y, params, s),
            int,
            {"kind": "zero_comm", "flip": MC_FLIP, "overrides": list(ZERO_COMM_OVERRIDES),
             "x": x, "y": y, "seed": run_seed},
        ))
    return ops


_BUILDERS = {
    "bounds-float": _bounds_float,
    "bounds-exact": _bounds_exact,
    "compress-dp": _compress_dp,
    "compress-mc": _compress_mc,
}


def build(name: str, seed: int) -> list[Op]:
    """The workload's inputs and operations."""
    return _BUILDERS[name](seed)
