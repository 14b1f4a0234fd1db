"""Checks of the program's outputs against computations made apart from it.

Nothing here compares against a stored copy of earlier output.  The function
tables, rectangles, LPs, closed forms and brute-force maxima below are the
benchmark's own, written from the definitions.  commlb is called only where
a check says so (the exact DP law that the MC and closed-form checks compare
against, and the float value that a rational value is compared with), and
never inside the measured process.

`run(workload, ops)` takes the worker's per-operation records and returns a
list of (check name, passed, detail).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

FLOAT_TOL = 1e-6
BOT = -1


def parse(v):
    """Inverse of workloads.num: 'p/q' strings become Fractions."""
    if isinstance(v, str):
        p, q = v.split("/")
        return Fraction(int(p), int(q))
    return v


# ---------------------------------------------------------------------------
# The benchmark's own function tables and rectangles
# ---------------------------------------------------------------------------


def table(label: str) -> list[list[int | None]]:
    """f(x, y) from the corpus definitions; None off the promise."""
    family, *args = label.split(",")
    n = int(args[0])
    if family == "CONST":
        return [[n, n], [n, n]]
    if family == "AND":
        return [[x & y for y in range(2)] for x in range(2)]

    def value(x: int, y: int):
        if family == "EQ":
            return int(x == y)
        if family == "GT":
            return int(x > y)
        if family == "DISJ":
            return int(x & y == 0)
        if family == "IP":
            return bin(x & y).count("1") % 2
        if family == "GHD":
            gap, d = int(args[1]), bin(x ^ y).count("1")
            return 1 if d >= n / 2 + gap else 0 if d <= n / 2 - gap else None
        raise ValueError(label)

    return [[value(x, y) for y in range(2**n)] for x in range(2**n)]


class Grid:
    """A function on its grid, with every nonempty rectangle A x B."""

    Z = 2  # every workload function has two outputs

    def __init__(self, label: str) -> None:
        self.f = table(label)
        self.nx, self.ny = len(self.f), len(self.f[0])
        self.cells = [(x, y) for x in range(self.nx) for y in range(self.ny)]
        self.rects = [(a, b) for a in range(1, 2**self.nx) for b in range(1, 2**self.ny)]
        self.rect_set = set(self.rects)
        self.member = np.array(
            [[(a >> x) & 1 and (b >> y) & 1 for x, y in self.cells] for a, b in self.rects],
            dtype=float,
        )
        self.promise = [c for c in self.cells if self.value(c) is not None]

    def value(self, cell):
        return self.f[cell[0]][cell[1]]

    def inside(self, rect, cell) -> bool:
        (a, b), (x, y) = rect, cell
        return bool((a >> x) & 1 and (b >> y) & 1)

    def correct(self, cell, z) -> bool:
        fz = self.value(cell)
        return fz is None or fz == z


_GRIDS: dict[str, Grid] = {}


def grid(label: str) -> Grid:
    if label not in _GRIDS:
        _GRIDS[label] = Grid(label)
    return _GRIDS[label]


# ---------------------------------------------------------------------------
# LPs built from the definitions and solved by scipy's HiGHS
# ---------------------------------------------------------------------------


def highs_value(kind: str, g: Grid, eps: float, z: int | None) -> float:
    """The bound's LP in weight form, solved by HiGHS; rect is solved as its
    dual (the smooth rectangle LP without the upper coverage bound)."""
    from scipy.optimize import linprog

    M = g.member  # rects x cells
    nr, nc = M.shape
    a_ub, b_ub, a_eq, b_eq = [], [], None, None
    if kind in ("bprt", "bprt_mu", "prt"):
        correct = np.zeros((nc, nr * g.Z))
        cover = np.zeros((nc, nr * g.Z))
        for label in range(g.Z):
            ok = np.array([g.correct(c, label) for c in g.cells], dtype=float)
            correct[:, label::g.Z] = M.T * ok[:, None]
            cover[:, label::g.Z] = M.T
        if kind == "bprt":
            a_ub = [-correct, cover]
            b_ub = [-(1 - eps) * np.ones(nc), np.ones(nc)]
        elif kind == "bprt_mu":
            mu = np.full(nc, 1.0 / nc)
            a_ub = [-(mu @ correct)[None, :], cover]
            b_ub = [np.array([-(1 - eps)]), np.ones(nc)]
        else:
            rows = [i for i, c in enumerate(g.cells) if g.value(c) is not None]
            a_ub = [-correct[rows]]
            b_ub = [-(1 - eps) * np.ones(len(rows))]
            a_eq, b_eq = cover, np.ones(nc)
    else:
        side = [i for i, c in enumerate(g.cells) if g.value(c) == z]
        other = [i for i, c in enumerate(g.cells) if g.value(c) not in (None, z)]
        a_ub = [-M.T[side], M.T[other]]
        b_ub = [-(1 - eps) * np.ones(len(side)), eps * np.ones(len(other))]
        if kind == "srec":
            a_ub.append(M.T[side])
            b_ub.append(np.ones(len(side)))
    nvars = nr * g.Z if kind in ("bprt", "bprt_mu", "prt") else nr
    res = linprog(np.ones(nvars), A_ub=np.vstack(a_ub), b_ub=np.concatenate(b_ub),
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Exact certificates: primal and dual witnesses re-checked with Fractions
# ---------------------------------------------------------------------------


def _witness_rects(g: Grid, pairs) -> str | None:
    for rect in pairs:
        if tuple(rect) not in g.rect_set:
            return f"witness rectangle {rect} is not a nonempty rectangle of the grid"
    return None


def exact_certificate(rec: dict, g: Grid, eps: Fraction, z: int | None) -> str | None:
    """None when the primal and dual witnesses are feasible and both reach
    the value exactly; otherwise the first violation."""
    kind = rec["bound"]
    value = parse(rec["value"])
    if parse(rec["dual_value"]) != value:
        return f"dual value {rec['dual_value']} != value {rec['value']}"
    one = Fraction(1)
    if kind in ("bprt", "bprt_mu", "prt"):
        efficiency = parse(rec["primal"]["efficiency"])
        entries = [((rm, cm), lab, parse(w) / efficiency)
                   for rm, cm, lab, w in rec["primal"]["entries"]]
        bad = _witness_rects(g, [r for r, _, _ in entries])
        if bad:
            return bad
        if any(w < 0 for _, _, w in entries):
            return "negative primal weight"
        if sum(w for _, _, w in entries) != value:
            return "primal weights do not sum to the value"
        cov = {c: sum((w for r, _, w in entries if g.inside(r, c)), Fraction(0)) for c in g.cells}
        corr = {c: sum((w for r, lab, w in entries if g.inside(r, c) and g.correct(c, lab)),
                       Fraction(0)) for c in g.cells}
        if kind == "prt":
            if any(cov[c] != 1 for c in g.cells):
                return "prt coverage != 1"
            if any(corr[c] < 1 - eps for c in g.promise):
                return "prt correctness < 1 - eps"
        else:
            if any(cov[c] > 1 for c in g.cells):
                return "coverage > 1"
            if kind == "bprt" and any(corr[c] < 1 - eps for c in g.cells):
                return "bprt correctness < 1 - eps"
            mu = Fraction(1, len(g.cells))
            if kind == "bprt_mu" and sum(mu * corr[c] for c in g.cells) < 1 - eps:
                return "bprt_mu average correctness < 1 - eps"
        alpha = {(x, y): parse(v) for x, y, v in rec["dual"]["alpha"]}
        beta = {(x, y): parse(v) for x, y, v in rec["dual"]["beta"]}
        if kind == "prt":
            if any(v < 0 for v in alpha.values()):
                return "negative prt dual alpha"
            objective = (1 - eps) * sum(alpha.values()) + sum(beta.values())
        else:
            if any(v < 0 for v in alpha.values()) or any(v < 0 for v in beta.values()):
                return "negative dual weight"
            objective = (1 - eps) * sum(alpha.values()) - sum(beta.values())
        if objective != value:
            return f"dual objective {objective} != value {value}"
        for rect, lab in product(g.rects, range(g.Z)):
            lhs = Fraction(0)
            for c in g.cells:
                if not g.inside(rect, c):
                    continue
                if kind == "prt":
                    lhs += alpha.get(c, 0) if g.value(c) == lab else 0
                    lhs += beta.get(c, 0)
                else:
                    lhs += alpha.get(c, 0) if g.correct(c, lab) else 0
                    lhs -= beta.get(c, 0)
            if lhs > one:
                return f"dual constraint of ({rect}, {lab}) violated: {lhs}"
        return None

    if kind == "srec":
        weights = [((rm, cm), parse(w)) for rm, cm, w in rec["primal"]]
        bad = _witness_rects(g, [r for r, _ in weights])
        if bad:
            return bad
        if any(w < 0 for _, w in weights) or sum(w for _, w in weights) != value:
            return "srec weights negative or not summing to the value"
        for c in g.promise:
            cov = sum((w for r, w in weights if g.inside(r, c)), Fraction(0))
            if g.value(c) == z and not (1 - eps <= cov <= 1):
                return f"srec coverage {cov} at {c} outside [1 - eps, 1]"
            if g.value(c) != z and cov > eps:
                return f"srec coverage {cov} at {c} above eps"
        duals = {(kind_, x, y): parse(v) for kind_, x, y, v in rec["dual"]}
        if any(v < 0 for (k, _, _), v in duals.items() if k == "lower") or any(
                v > 0 for (k, _, _), v in duals.items() if k != "lower"):
            return "srec dual multipliers have the wrong sign"
        rhs = {"lower": 1 - eps, "upper": one, "wrong": eps}
        if sum(v * rhs[k] for (k, _, _), v in duals.items()) != value:
            return "srec dual objective != value"
        for rect in g.rects:
            lhs = sum((v for (k, x, y), v in duals.items() if g.inside(rect, (x, y))), Fraction(0))
            if lhs > one:
                return f"srec dual constraint of {rect} violated: {lhs}"
        return None

    # rect: alpha over the promise, one constraint per rectangle
    alpha = {(x, y): parse(v) for x, y, v in rec["primal"]}
    if any(v < 0 for v in alpha.values()):
        return "negative rect alpha"
    for rect in g.rects:
        lhs = sum((a if g.value(c) == z else -a for c, a in alpha.items()
                   if g.inside(rect, c) and g.value(c) is not None), Fraction(0))
        if lhs > one:
            return f"rect constraint of {rect} violated: {lhs}"
    objective = sum(((1 - eps) * a if g.value(c) == z else -eps * a
                     for c, a in alpha.items() if g.value(c) is not None), Fraction(0))
    if max(objective, Fraction(0)) != value:
        return f"rect objective {objective} != value {value}"
    duals = [parse(v) for v in rec["dual"]]
    if any(v < 0 for v in duals) or sum(duals) != value:
        return "rect dual multipliers negative or not summing to the value"
    return None


# ---------------------------------------------------------------------------
# Helpers shared by the bound checks
# ---------------------------------------------------------------------------


def brute_discrepancy(label: str) -> Fraction:
    """max over all row and column masks of |mu(R on 0) - mu(R on 1)|, uniform mu."""
    g = grid(label)
    sign = np.array([[0 if v is None else (1 if v == 0 else -1) for v in row] for row in g.f],
                    dtype=np.int64)
    rows = np.array([[(a >> x) & 1 for x in range(g.nx)] for a in range(2**g.nx)], dtype=np.int64)
    cols = np.array([[(b >> y) & 1 for y in range(g.ny)] for b in range(2**g.ny)], dtype=np.int64)
    best = int(np.abs(rows @ sign @ cols.T).max())
    return Fraction(best, g.nx * g.ny)


def _chain(values: dict, eps, tol) -> list[str]:
    """The orders the bounds must obey: 1 - eps <= bprt <= prt, srec_z <= bprt,
    rect_z <= srec_z and bprt_mu <= bprt, over the values present."""
    bad = []
    b, p, bm = values.get("bprt"), values.get("prt"), values.get("bprt_mu")
    if b is not None:
        if b < (1 - eps) - tol:
            bad.append(f"bprt {float(b)} < 1 - eps")
        if p is not None and b > p + tol:
            bad.append(f"bprt {float(b)} > prt {float(p)}")
        if bm is not None and bm > b + tol:
            bad.append(f"bprt_mu {float(bm)} > bprt {float(b)}")
    for z in range(Grid.Z):
        s, r = values.get(("srec", z)), values.get(("rect", z))
        if s is not None and b is not None and s > b + tol:
            bad.append(f"srec_{z} {float(s)} > bprt {float(b)}")
        if s is not None and r is not None and r > s + tol:
            bad.append(f"rect_{z} {float(r)} > srec_{z} {float(s)}")
    return bad


def _by_instance(ops) -> dict:
    """(function, eps) -> {bound key: value} over the bound operations."""
    out: dict = {}
    for op in ops:
        info, rec = op["info"], op["record"]
        if rec is None or info.get("kind") not in ("bprt", "prt", "bprt_mu", "srec", "rect"):
            continue
        key = info["kind"] if info["z"] is None else (info["kind"], info["z"])
        out.setdefault((info["fn"], info["eps"]), {})[key] = parse(rec["value"])
    return out


class Report:
    def __init__(self) -> None:
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, failures: list[str], passed_detail: str) -> None:
        if failures:
            more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
            self.items.append((name, False, "; ".join(failures[:3]) + more))
        else:
            self.items.append((name, True, passed_detail))


def _scipy_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check_bounds_float(ops, report: Report) -> None:
    bound_ops = [op for op in ops if op["info"]["kind"] in ("bprt", "prt", "bprt_mu", "srec", "rect")]
    done = [op for op in bound_ops if op["record"] is not None]

    failures = []
    for op in done:
        rec = op["record"]
        if abs(rec["value"] - rec["dual_value"]) > FLOAT_TOL:
            failures.append(f"{op['name']}: value {rec['value']} vs dual {rec['dual_value']}")
    report.add("float value equals dual value within 1e-6", failures, f"{len(done)} LPs")

    if _scipy_available():
        failures, worst = [], 0.0
        for op in done:
            info = op["info"]
            ref = highs_value(info["kind"], grid(info["fn"]), info["eps"], info["z"])
            diff = abs(op["record"]["value"] - ref)
            worst = max(worst, diff)
            if diff > FLOAT_TOL:
                failures.append(f"{op['name']}: {op['record']['value']} vs HiGHS {ref}")
        report.add("float value matches HiGHS on the benchmark's own LP within 1e-6", failures,
                   f"{len(done)} LPs, worst difference {worst:.1e}")
    else:
        report.items.append(("float value matches HiGHS on the benchmark's own LP", True,
                             "not checked: scipy cannot be imported here"))

    failures = []
    for (fn, eps), values in _by_instance(ops).items():
        failures += [f"{fn} eps={eps}: {msg}" for msg in _chain(values, eps, FLOAT_TOL)]
    report.add("1-eps <= bprt <= prt, srec_z <= bprt, rect_z <= srec_z, bprt_mu <= bprt",
               failures, f"{len(_by_instance(ops))} (function, eps) instances")

    values = {op["name"]: op["record"]["value"] for op in done}
    failures, count = [], 0
    for op in ops:
        if op["info"]["kind"] != "check_witness" or op["record"] is None:
            continue
        count += 1
        feasible, objective = op["record"]
        target = values.get(op["info"]["of"])
        if not feasible:
            failures.append(f"{op['name']}: witness rejected")
        elif target is None or abs(float(parse(objective)) - target) > FLOAT_TOL:
            failures.append(f"{op['name']}: objective {objective} vs value {target}")
    report.add("check_witness accepts every witness at the value", failures, f"{count} witnesses")

    failures, count = [], 0
    for op in ops:
        if op["info"]["kind"] != "discrepancy" or op["record"] is None:
            continue
        count += 1
        ref = brute_discrepancy(op["info"]["fn"])
        if parse(op["record"]) != ref:
            failures.append(f"{op['name']}: {op['record']} vs brute force {ref}")
    report.add("discrepancy equals a brute force over all row and column masks", failures,
               f"{count} functions, exact")


def check_bounds_exact(ops, report: Report) -> None:
    import commlb

    done = [op for op in ops if op["record"] is not None]
    by_name = {(op["info"]["kind"], op["info"]["fn"], op["info"]["eps"], op["info"]["z"]):
               parse(op["record"]["value"]) for op in done}

    failures, pinned = [], 0
    for (kind, fn, eps, z), value in by_name.items():
        eps = parse(eps)
        if kind == "prt" and fn == "EQ,1" and eps == 0:
            pinned += 1
            if value != 4:
                failures.append(f"prt_0(EQ,1) = {value}, not 4")
        if kind == "bprt" and fn == "CONST,1":
            pinned += 1
            if value != 1 - eps:
                failures.append(f"bprt_{eps}(CONST,1) = {value}, not {1 - eps}")
    report.add("prt_0(EQ,1) = 4 and bprt_eps(CONST,1) = 1 - eps exactly", failures,
               f"{pinned} pinned values")

    failures = []
    instances = _by_instance(done)
    for (fn, eps), values in instances.items():
        failures += [f"{fn} eps={eps}: {m}" for m in _chain(values, parse(eps), 0)]
    report.add("bound chain with zero tolerance", failures, f"{len(instances)} instances")

    failures = []
    for op in done:
        info = op["info"]
        msg = exact_certificate(op["record"], grid(info["fn"]), parse(info["eps"]), info["z"])
        if msg:
            failures.append(f"{op['name']}: {msg}")
    report.add("primal and dual witnesses re-check exactly on the benchmark's rectangles",
               failures, f"{len(done)} LPs")

    failures, worst = [], 0.0
    for op in done:
        info = op["info"]
        f = commlb.make_function(info["fn"])
        eps = float(parse(info["eps"]))
        kind, z = info["kind"], info["z"]
        if kind == "bprt":
            ref = commlb.bprt(f, eps, "float").value
        elif kind == "prt":
            ref = commlb.prt(f, eps, "float").value
        elif kind == "bprt_mu":
            ref = commlb.bprt_mu(f, commlb.make_distribution("uniform", f), eps, "float").value
        elif kind == "srec":
            ref = commlb.srec(f, eps, z, "float").value
        else:
            ref = commlb.rect_dual(f, eps, z, None, "float").value
        diff = abs(float(parse(op["record"]["value"])) - ref)
        worst = max(worst, diff)
        if diff > FLOAT_TOL:
            failures.append(f"{op['name']}: rational {op['record']['value']} vs float {ref}")
    report.add("rational value within 1e-6 of the float value", failures,
               f"{len(done)} LPs, worst difference {worst:.1e}")


def _binary_entropy(p: float) -> float:
    return -sum(q * math.log2(q) for q in (p, 1 - p) if q > 0)


def paper_parameters(delta: float, info_cost: float, universe: int) -> tuple[int, int, int]:
    """(delta_exp, T, hash_bits) by the paper's ceiling formulas."""
    delta_exp = math.ceil((4 / delta) * (8 * info_cost / delta + 1))
    log_term = math.log(8 / delta)
    trials = math.ceil(universe * 2**delta_exp * log_term)
    hash_bits = math.ceil(delta_exp + math.log2((64 / delta) * log_term**2))
    return delta_exp, trials, hash_bits


def noisy_bit_marginals(flip: float, x: int, params) -> tuple[list[float], list[float]]:
    """Closed-form laws of Alice's and Bob's own outputs on noisy_bit under
    uniform mu on 2x2 (BOT last).  Per trial, Alice accepts leaf z with
    a_z = p_a(z) q_a(z) / (|U| S), where p_a(z) = Pr[Alice sends z | x],
    q_a = 1 (Bob owns no node) and S = 2^delta_exp; Bob accepts leaf z with
    b_z = p_b(z) q_b(z) / (|U| S), where p_b = 1 and q_b(z) = 1/2, the
    average of p_a(z) over x."""
    delta_exp, trials, hash_bits = params
    scale, rho, universe = 2.0**delta_exp, 2.0**-hash_bits, 2
    p_a = [1 - flip if z == x else flip for z in range(2)]
    a_z = [p / (universe * scale) for p in p_a]
    b_z = [0.5 / (universe * scale) for _ in range(2)]
    a, b = sum(a_z), sum(b_z)
    alice_hit = -math.expm1(trials * math.log1p(-a))          # 1 - (1 - a)^T
    bob_hit = -math.expm1(trials * math.log1p(-b * rho))      # 1 - (1 - b rho)^T
    alice = [az / a * rho * alice_hit for az in a_z]
    bob = [bz / b * bob_hit for bz in b_z]
    return alice + [1 - sum(alice)], bob + [1 - sum(bob)]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def check_compress_dp(ops, report: Report) -> None:
    import commlb

    f = commlb.make_function("EQ,1")
    mu = commlb.make_distribution("uniform", f)
    done = [op for op in ops if op["record"] is not None]

    fails_guarantee, fails_params, fails_forms, fails_sums = [], [], [], []
    worst = 0.0
    for op in done:
        rec, flip, delta = op["record"], op["info"]["flip"], op["info"]["delta"]
        for key in ("eq4_pass", "eq5_pass", "eq6_pass", "collision_bound_pass"):
            if rec[key] is not True:
                fails_guarantee.append(f"{op['name']}: {key} = {rec[key]}")
        ic = 1 - _binary_entropy(flip)
        if abs(rec["info_cost"] - ic) > 1e-9:
            fails_params.append(f"{op['name']}: information cost {rec['info_cost']} vs 1 - H = {ic}")
        expected = list(paper_parameters(delta, rec["info_cost"], 2))
        if rec["params"] != expected:
            fails_params.append(f"{op['name']}: parameters {rec['params']} vs {expected}")

        pi = commlb.make_protocol("noisy_bit", flip=flip)
        delta_exp, trials, hash_bits = rec["params"]
        params = commlb.CompressionParameters(delta, rec["info_cost"], delta_exp, trials,
                                              hash_bits, "paper-exact")
        caps = commlb.default_caps().with_overrides(dp_trials=max(500, trials))
        for x, y, not_abort, _, _ in rec["inputs"]:
            law = commlb.exact_output_distribution(pi, mu, x, y, params, caps)
            for name, total in (("Alice", sum(law.alice_output)), ("Bob", sum(law.bob_output)),
                                ("joint", sum(law.output) + law.abort)):
                if abs(total - 1) > 1e-9:
                    fails_sums.append(f"{op['name']} ({x},{y}): {name} law sums to {total}")
            if not _close(law.not_abort, not_abort, 1e-12):
                fails_sums.append(f"{op['name']} ({x},{y}): report {not_abort} vs DP {law.not_abort}")
            alice, bob = noisy_bit_marginals(flip, x, rec["params"])
            for who, got, want in (("Alice", law.alice_output, alice), ("Bob", law.bob_output, bob)):
                for z in range(2):
                    rel = abs(got[z] - want[z]) / want[z]
                    worst = max(worst, rel)
                    if rel > 1e-9:
                        fails_forms.append(f"{op['name']} ({x},{y}) {who} z={z}: {got[z]} vs {want[z]}")
    report.add("eq4, eq5, eq6 and the collision bound pass", fails_guarantee, f"{len(done)} operations")
    report.add("information cost is 1 - H(flip) and T, delta_exp, hash_bits follow the paper",
               fails_params, f"{len(done)} parameter sets")
    report.add("DP output marginals match the closed forms within 1e-9 relative", fails_forms,
               f"worst relative difference {worst:.1e}")
    report.add("every DP law sums to 1 and matches the report", fails_sums, "all inputs")


def check_compress_mc(ops, report: Report) -> None:
    import commlb

    f = commlb.make_function("EQ,1")
    mu = commlb.make_distribution("uniform", f)
    done = [op for op in ops if op["record"] is not None]

    def law(info):
        pi = commlb.make_protocol("noisy_bit", flip=info["flip"])
        params = commlb.compression_parameters(0.5, 0.2, pi.universe_size,
                                               overrides=tuple(info["overrides"]))
        return commlb.exact_output_distribution(pi, mu, info["x"], info["y"], params)

    failures, worst = [], 0.0
    mc_ops = [op for op in done if op["info"]["kind"] == "mc"]
    for op in mc_ops:
        counts, n = op["record"], op["info"]["samples"]
        exact = law(op["info"])
        probs = list(exact.output) + [exact.abort]
        if sum(counts) != n:
            failures.append(f"{op['name']}: counts sum to {sum(counts)}, not {n}")
        for k, (c, p) in enumerate(zip(counts, probs)):
            se = math.sqrt(p * (1 - p) / n)
            ratio = abs(c / n - p) / se if se > 0 else (0.0 if c / n == p else math.inf)
            worst = max(worst, ratio)
            if ratio > 5:
                failures.append(f"{op['name']} outcome {k}: {c / n} vs DP {p} ({ratio:.1f} SE)")
    report.add("MC law within 5 binomial standard errors of the exact DP law", failures,
               f"{len(mc_ops)} operations, worst {worst:.2f} SE")

    runs = [op for op in done if op["info"]["kind"] == "zero_comm"]
    failures = []
    if runs:
        outputs = [op["record"] for op in runs]
        if any(o not in (BOT, 0, 1) for o in outputs):
            failures.append("run_zero_comm returned a value outside {BOT, 0, 1}")
        rate = sum(o != BOT for o in outputs) / len(outputs)
        p = law(runs[0]["info"]).not_abort
        se = math.sqrt(p * (1 - p) / len(outputs))
        if abs(rate - p) > 5 * se:
            failures.append(f"non-abort rate {rate} vs DP {p} (5 SE = {5 * se:.4f})")
        detail = f"{len(outputs)} runs: rate {rate:.4f} vs DP {p:.4f} ({abs(rate - p) / se:.2f} SE)"
    else:
        detail = "no runs completed"
    report.add("run_zero_comm non-abort rate within 5 standard errors of the DP", failures, detail)

    failures, detail = [], "no extraction completed"
    for op in done:
        if op["info"]["kind"] != "extract":
            continue
        rec = op["record"]
        total = sum((parse(w) for *_, w in rec["entries"]), Fraction(0))
        if parse(rec["weight_total"]) != 1 or total != 1:
            failures.append(f"weights sum to {rec['weight_total']} (entries: {total}), not 1")
        delta_exp, _, hash_bits = paper_parameters(0.9, 0.0, 1)
        eta = (1 + 0.9) * 2.0 ** -(hash_bits + delta_exp) / 2
        if not _close(rec["eta_target"], eta, 1e-12):
            failures.append(f"eta {rec['eta_target']} vs (1 + delta) lambda / |Z| = {eta}")
        if rec["correctness_lhs"] < rec["correctness_threshold"] - 3 * rec["correctness_se"]:
            failures.append(f"correctness {rec['correctness_lhs']} below threshold "
                            f"{rec['correctness_threshold']} by over 3 SE")
        if rec["max_coverage"] > rec["eta_target"] + 3 * rec["coverage_se"]:
            failures.append(f"coverage {rec['max_coverage']} above eta {rec['eta_target']} "
                            "by over 3 SE")
        detail = (f"{rec['seeds']} seeds, coverage {rec['max_coverage']:.2e} vs eta "
                  f"{rec['eta_target']:.2e}")
    report.add("extraction weights sum to exactly 1; coverage and correctness within 3 SE",
               failures, detail)


_CHECKS = {
    "bounds-float": check_bounds_float,
    "bounds-exact": check_bounds_exact,
    "compress-dp": check_compress_dp,
    "compress-mc": check_compress_mc,
}


def run(workload: str, ops: list[dict]) -> list[tuple[str, bool, str]]:
    report = Report()
    _CHECKS[workload](ops, report)
    return report.items
