"""The acceptance-check battery, shared by the CLI and the test suite.

Eleven numbered checks: exact sampling-experiment identities (1, 2), the
bad-set mass bound (3), the bound inequality chain (4) and LP duality (5),
exact-DP versus Monte Carlo agreement (6), the desk-scale compression
guarantee (7), the information-cost lower-bound inequality (8) and its
strategy-extraction construction (9), the conditional-distance property (10),
and the two-path information-cost cross-check (11).

Each check returns (passed, detail).  ``run_checks`` holds the one ordered
table of checks, numbers each by its place there and builds its CheckResult;
it evaluates a filtered subset and is deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bnd
from . import compression as cmp
from . import corpus as cps
from .caps import Caps, default_caps
from .core import FiniteDistribution, InputDistribution, bad_set, kl_divergence, stat_distance
from .protocol import Leaf, Node, ProtocolTree, information_cost, protocol_error

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} [{self.number}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def _random_experiment_inputs(rng: random.Random):
    """A random exact ExperimentInputs: rational tau = p_a*p_b and party
    estimates nu_a = p_a*q_a, nu_b = p_b*q_b, with integer delta_exp."""
    size = rng.randint(1, 8)
    delta_exp = rng.randint(1, 6)
    raw = [rng.randint(1, 20) for _ in range(size)]
    total = sum(raw)
    tau = [Fraction(v, total) for v in raw]
    p_a, p_b = [], []
    for t in tau:
        pa = t + (1 - t) * Fraction(rng.randint(0, 10), 10)
        p_a.append(pa)
        p_b.append(t / pa)

    def estimate(p):
        # nu(u) <= p(u) guarantees q = nu/p lands in [0, 1].
        while True:
            r = [p[u] * Fraction(rng.randint(5, 10), 10) for u in range(size)]
            tot = sum(r)
            if tot >= 1:
                return [v / tot for v in r]

    nu_a = estimate(p_a)
    nu_b = estimate(p_b)
    q_a = [nu_a[u] / p_a[u] for u in range(size)]
    q_b = [nu_b[u] / p_b[u] for u in range(size)]
    inp = cmp.ExperimentInputs(
        tuple(p_a), tuple(q_a), tuple(p_b), tuple(q_b), delta_exp
    )
    return inp, tuple(tau), tuple(nu_a), tuple(nu_b)


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.randrange(2))
    owner = rng.choice("ABP")
    width = 1 if owner == "P" else 2
    p1 = tuple(rng.random() for _ in range(width))
    return Node(owner, p1, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _random_mu(rng: random.Random, nx: int = 2, ny: int = 2) -> InputDistribution:
    raw = [[rng.random() + 0.05 for _ in range(ny)] for _ in range(nx)]
    total = sum(sum(row) for row in raw)
    return InputDistribution(tuple(tuple(v / total for v in row) for row in raw))


# ---------------------------------------------------------------------------
# Checks 1-3: sampling-experiment analytics
# ---------------------------------------------------------------------------


def check_accept_identity(seed: int = 0) -> tuple[bool, str]:
    """Exact per-party acceptance probability 1/(|U| 2^delta_exp)."""
    rng = random.Random(seed)
    worst_float = 0.0
    for _ in range(500):
        inp, *_ = _random_experiment_inputs(rng)
        table = cmp.experiment_probabilities(inp)
        expected = Fraction(1, inp.universe_size * 2**int(inp.delta_exp))
        if table.alice_accept_total() != expected:
            return False, f"alice total != {expected}"
        if table.bob_accept_total() != expected:
            return False, f"bob total != {expected}"
        finp = cmp.ExperimentInputs(
            tuple(map(float, inp.p_a)), tuple(map(float, inp.q_a)),
            tuple(map(float, inp.p_b)), tuple(map(float, inp.q_b)),
            int(inp.delta_exp),
        )
        ftab = cmp.experiment_probabilities(finp)
        worst_float = max(
            worst_float,
            abs(float(ftab.alice_accept_total()) - float(expected)),
            abs(float(ftab.bob_accept_total()) - float(expected)),
        )
        if worst_float > 1e-12:
            return False, f"float deviation {worst_float}"
    return True, f"500 instances exact; max float deviation {worst_float:.2e}"


def check_accept_bounds(seed: int = 0) -> tuple[bool, str]:
    """Both-accept probability bracketed by the bad-set mass, and the
    accepted-output law within gamma of the target."""
    rng = random.Random(seed)
    for _ in range(500):
        inp, tau, nu_a, nu_b = _random_experiment_inputs(rng)
        table = cmp.experiment_probabilities(inp)
        accept = sum(table.both)
        d = int(inp.delta_exp)
        tau_d = FiniteDistribution(tau)
        bad = (
            bad_set(tau_d, FiniteDistribution(nu_a), d).members
            | bad_set(tau_d, FiniteDistribution(nu_b), d).members
        )
        gamma = tau_d.mass(bad)
        denom = inp.universe_size * 2 ** (2 * d)
        if not (Fraction(1 - gamma, denom) <= accept <= Fraction(1, denom)):
            return False, f"accept {accept} outside bracket, gamma={gamma}"
        if accept > 0:
            tau_prime = FiniteDistribution(tuple(b / accept for b in table.both))
            if stat_distance(tau_d, tau_prime) > gamma:
                return False, "output law further than gamma from target"
    return True, "500 instances exact"


def check_bad_set_bound(seed: int = 0) -> tuple[bool, str]:
    """tau(Bad) <= (D(tau||nu) + 1) / delta_exp on random pairs."""
    rng = random.Random(seed)
    worst = -math.inf
    for _ in range(1000):
        size = rng.randint(2, 10)
        tau_raw = [rng.random() + 1e-3 for _ in range(size)]
        nu_raw = [rng.random() + 1e-3 for _ in range(size)]
        st, sn = sum(tau_raw), sum(nu_raw)
        tau = FiniteDistribution(tuple(v / st for v in tau_raw))
        nu = FiniteDistribution(tuple(v / sn for v in nu_raw))
        d = rng.uniform(0.5, 20.0)
        mass = float(bad_set(tau, nu, d).mass_under_tau)
        limit = (kl_divergence(tau, nu) + 1) / d
        worst = max(worst, mass - limit)
        if mass > limit + 1e-12:
            return False, f"mass {mass} exceeds {limit}"
    return True, f"1000 pairs, worst margin {worst:.3e}"


# ---------------------------------------------------------------------------
# Checks 4-5: bound chain and LP duality over the corpus
# ---------------------------------------------------------------------------

_EPS_GRID = (0.0, 0.05, 0.1, 0.25)


def check_chain(sweep: list, caps: Caps, perturb: bool = False) -> tuple[bool, str]:
    """`bounds._chain_failures` on every (label, eps, chain report) of the
    corpus sweep, plus the two pinned exact rational values."""
    shift = 1e-3 if perturb else 0.0  # self-test hook: breaks the ordering
    for label, eps, r in sweep:
        failures = bnd._chain_failures(r.eps, r.bprt_value + shift, r.results, r.tol)
        if failures:
            return False, f"{label} eps={eps}: {failures[0]}"
    eq1 = cps.make_function("corpus:EQ,1")
    if bnd.prt(eq1, Fraction(0), "rational", caps).value != 4:
        return False, "prt_0(EQ_1) != 4 exactly"
    const = cps.make_function("corpus:CONST,1")
    for eps in (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
        if bnd.bprt(const, eps, "rational", caps).value != 1 - eps:
            return False, f"bprt_{eps}(CONST) != {1 - eps} exactly"
    return True, "8 functions x 4 eps ordered; pinned rational values exact"


def check_duality(sweep: list) -> tuple[bool, str]:
    """Primal and dual objectives agree on every LP of the corpus sweep."""
    worst = 0.0
    count = 0
    for label, eps, report in sweep:
        for res in report.results:
            gap = abs(float(res.value) - float(res.dual_value))
            worst = max(worst, gap)
            count += 1
            if gap > 1e-6:
                return False, f"{label} eps={eps} {res.bound_name}: gap {gap}"
    return True, f"{count} LPs, worst primal/dual gap {worst:.2e}"


# ---------------------------------------------------------------------------
# Checks 6-7: compression engines
# ---------------------------------------------------------------------------


def check_dp_vs_mc(samples: int, seed: int, caps: Caps) -> tuple[bool, str]:
    """Exact DP law within 5 binomial standard errors of a large Monte Carlo
    run, per input, at small override parameters.

    All four inputs' MC laws are read off one coin block, so the cells share
    coins.  Each TV test is made per cell against that cell's own law and
    standard error, so each is still valid on its own."""
    pi = cps.make_protocol("noisy_bit", flip=0.25)
    f = cps.make_function("corpus:EQ,1")
    mu = cps.make_distribution("uniform", f)
    params = cmp.compression_parameters(0.5, 0.2, pi.universe_size, overrides=(3, 30, 2))
    mc_laws = cmp._mc_laws(pi, mu, params, range(pi.x_size), range(pi.y_size), samples, seed)
    worst_ratio = 0.0
    for (x, y), mc in mc_laws.items():
        law = cmp.exact_output_distribution(pi, mu, x, y, params, caps)
        exact = list(law.output) + [law.abort]
        tv = 0.5 * sum(abs(a - b) for a, b in zip(exact, mc.frequencies))
        limit = 5 * mc.max_standard_error()
        worst_ratio = max(worst_ratio, tv / limit)
        if tv > limit:
            return False, f"input ({x},{y}): TV {tv} > {limit}"
    # The cells share one coin block, so every law counts the same candidates.
    share = mc.candidates / (samples * params.trials)
    return True, (f"{samples} samples/input, worst TV/limit {worst_ratio:.2f}, "
                  f"candidate trials {share:.1%}")


def check_compression_guarantee(caps: Caps) -> tuple[bool, str]:
    """Exact verification of the three compression inequalities and the
    collision bound at delta = 0.9, 0.7 and 0.5 on the noisy-bit protocol
    with derived parameters (T up to 4.76e10)."""
    pi = cps.make_protocol("noisy_bit", flip=0.25)
    f = cps.make_function("corpus:EQ,1")
    mu = cps.make_distribution("uniform", f)
    ic = information_cost(pi, mu)
    parts = []
    for delta in (0.9, 0.7, 0.5):
        params = cmp.compression_parameters(delta, ic, pi.universe_size)
        report = cmp.verify_compression(
            pi, f, mu, delta, params, engine="dp",
            caps=caps.with_overrides(dp_trials=max(caps.dp_trials, params.trials)),
        )
        if not report.all_pass or report.collision_bound_pass is False:
            return False, (f"delta={delta}: eq4={report.eq4_pass} eq5={report.eq5_pass} "
                           f"eq6={report.eq6_pass} collision={report.collision_bound_pass}")
        parts.append(
            f"delta={delta} T={params.trials} "
            f"agg/lambda={report.aggregate_not_abort / params.lambda_:.4f}"
        )
    return True, "; ".join(parts)


# ---------------------------------------------------------------------------
# Checks 8-9: the information-cost lower bound
# ---------------------------------------------------------------------------


def check_ic_lower_bound(caps: Caps) -> tuple[bool, str]:
    """IC >= (delta^2/64)(log2 bprt_mu at eps+3delta - log2 |Z|) - delta on
    every corpus triple."""
    count = 0
    closest = math.inf
    for label, f, mu, pi in cps.corpus_triples():
        eps = protocol_error(pi, f, mu)
        ic = information_cost(pi, mu)
        for delta in (0.1, 0.25):
            eps_r = eps + 3 * delta
            if eps_r >= 1:
                rhs = -math.inf
            else:
                value = float(bnd.bprt_mu(f, mu, eps_r, "float", caps).value)
                log_v = math.log2(value) if value > 0 else -math.inf
                rhs = (delta**2 / 64) * (log_v - math.log2(f.z_size)) - delta
            count += 1
            if rhs > -math.inf:
                closest = min(closest, ic - rhs)
            if ic < rhs - 1e-9:
                return False, f"{label} delta={delta}: IC {ic} < {rhs}"
    return True, f"{count} (triple, delta) cases, min slack {closest:.4f}"


def check_extraction(seed: int, caps: Caps) -> tuple[bool, str]:
    """Strategy extraction on trivial_const over CONST,1 at delta = 0.3 and
    overrides (2, 3, 1), where the correctness threshold is positive and
    about 12 % of runs do not abort: exact weight normalization, correctness
    and coverage consistent with eta within 3 SE, and coverage within 5 SE
    of the exact not-abort mass over |Z|."""
    delta = 0.3
    pi = cps.make_protocol("trivial_const", z=1)
    f = cps.make_function("corpus:CONST,1")
    mu = cps.make_distribution("uniform", f)
    params = cmp.compression_parameters(delta, 0.0, pi.universe_size, overrides=(2, 3, 1))
    strategy, rep = cmp.extract_strategy(
        pi, f, mu, delta, params, seed_count=100_000, seed=seed, caps=caps
    )
    exact = max(cmp.exact_output_distribution(pi, mu, x, y, params, caps).not_abort
                for x in range(f.x_size) for y in range(f.y_size)) / f.z_size
    if rep.weight_total != 1:
        return False, f"weights sum to {rep.weight_total}, not 1"
    if rep.correctness_lhs < rep.correctness_threshold - 3 * rep.correctness_se:
        return False, f"correctness {rep.correctness_lhs} below threshold"
    if rep.max_coverage > rep.eta_target + 3 * rep.coverage_se:
        return False, f"coverage {rep.max_coverage} above eta {rep.eta_target}"
    if abs(rep.max_coverage - exact) > 5 * rep.coverage_se:
        return False, f"coverage {rep.max_coverage} not within 5 SE of exact {exact}"
    return True, (f"{rep.seeds} seeds, {len(strategy.entries)} entries, coverage "
                  f"{rep.max_coverage:.5f} +- {rep.coverage_se:.5f} vs exact {exact:.5f}, "
                  f"eta {rep.eta_target:.4f}")


# ---------------------------------------------------------------------------
# Checks 10-11: distance and information-cost properties
# ---------------------------------------------------------------------------


def check_conditional_distance(seed: int = 0) -> tuple[bool, str]:
    """|Pi'_H - Pi| <= c + Pr[F]/Pr[H] on random finite spaces, with the
    precondition made true by choosing c as the measured distance on H - F."""
    rng = random.Random(seed)
    for _ in range(1000):
        m = rng.randint(2, 6)
        weights = [rng.random() + 0.01 for _ in range(m)]
        total = sum(weights)
        weights = [w / total for w in weights]
        k = rng.randint(2, 4)
        pw = [rng.random() + 0.01 for _ in range(k)]
        pt = sum(pw)
        pi_dist = FiniteDistribution(tuple(w / pt for w in pw))
        value_map = [rng.randrange(k) for _ in range(m)]
        while True:
            event_h = rng.randrange(1, 2**m)
            event_f = event_h & rng.randrange(0, 2**m)
            event_e = event_h & ~event_f
            if any((event_e >> i) & 1 for i in range(m)):
                break
        pr_e = sum(w for i, w in enumerate(weights) if (event_e >> i) & 1)
        cond_e = [0.0] * k
        for i, w in enumerate(weights):
            if (event_e >> i) & 1:
                cond_e[value_map[i]] += w / pr_e
        c = stat_distance(FiniteDistribution(tuple(cond_e)), pi_dist)
        holds, measured, limit = cmp.conditional_distance_check(
            pi_dist, weights, value_map, event_f, event_h, c
        )
        if not holds:
            return False, f"measured {measured} > bound {limit}"
    return True, "1000 spaces"


def check_ic_paths(seed: int = 0) -> tuple[bool, str]:
    """Both information-cost computations agree, and 0 <= IC <= depth."""
    rng = random.Random(seed)
    for _ in range(200):
        pi = ProtocolTree(_random_tree(rng, 3), 2, 2, 2)
        mu = _random_mu(rng)
        ic = information_cost(pi, mu)  # raises if the two paths disagree
        if not (0 <= ic <= pi.depth + 1e-9):
            return False, f"IC {ic} outside [0, depth={pi.depth}]"
    return True, "200 random (tree, distribution) pairs"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_checks(
    only: str | None = None,
    perturb: bool = False,
    mc_samples: int = 10_000_000,
    seed: int = 0,
    caps: Caps | None = None,
) -> list[CheckResult]:
    """The checks whose name contains `only` (all by default), in battery
    order, each numbered by its place in the full battery."""
    caps = caps or default_caps()
    # Checks 4 and 5 read one sweep of (label, eps, `bounds.verify_bound_chain`
    # report) over the corpus functions and eps, solved on first use.
    sweep = functools.cache(lambda: [
        (label, eps, bnd.verify_bound_chain(f, eps, "float", caps))
        for label, f in cps.corpus_functions() for eps in _EPS_GRID])
    checks = (
        ("accept-identity", lambda: check_accept_identity(seed)),
        ("accept-bounds", lambda: check_accept_bounds(seed)),
        ("bad-set-bound", lambda: check_bad_set_bound(seed)),
        ("bound-chain", lambda: check_chain(sweep(), caps, perturb)),
        ("lp-duality", lambda: check_duality(sweep())),
        ("dp-vs-mc", lambda: check_dp_vs_mc(mc_samples, seed, caps)),
        ("compression-guarantee", lambda: check_compression_guarantee(caps)),
        ("ic-lower-bound", lambda: check_ic_lower_bound(caps)),
        ("extraction", lambda: check_extraction(seed, caps)),
        ("conditional-distance", lambda: check_conditional_distance(seed)),
        ("ic-paths", lambda: check_ic_paths(seed)),
    )
    return [CheckResult(number, name, *run())
            for number, (name, run) in enumerate(checks, 1)
            if only is None or only in name]
