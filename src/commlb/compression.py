"""Zero-communication compression of a protocol, with exact analytics.

The pipeline:

* a single *sampling experiment*: both parties observe a shared draw
  (u, alpha, beta) and individually accept or reject it based on their own
  factor functions, with the acceptance thresholds inflated by 2**delta_exp;
* the full *zero-communication run*: T independent experiments, then a shared
  random hash h : [T] -> {0,1}^k and target r pick a common accepted
  experiment; each party outputs the transcript's value or aborts;
* the exact output law, from the T-th power of one trial's transition matrix
  over the (Alice, Bob) state chain taken by squaring in O(log T) products,
  and a vectorized Monte Carlo engine for cross-checking it;
* the conversion of runs into a labeled-rectangle strategy.

Experiment category probabilities are closed-form: with S = 2**delta_exp,

    Pr[both accept on u]  = min(p_a, S*q_b) * min(p_b, S*q_a) / (|U| * S^2)
    Pr[Alice accepts on u] = p_a * q_a / (|U| * S)

and the one-sided categories follow by inclusion-exclusion.  Everything is
exact in rational mode (Fraction inputs, integer delta_exp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .caps import Caps, default_caps
from .core import FiniteDistribution, InputDistribution, Number, PartialFunction, Rectangle
from .errors import (
    CapacityError,
    ConditioningError,
    DimensionError,
    ParameterError,
)
from .protocol import (
    Factorization,
    ProtocolTree,
    factorization,
    output_distribution,
    protocol_error,
)

__all__ = [
    "ExperimentInputs",
    "ExperimentOutcome",
    "ExperimentTable",
    "CompressionParameters",
    "CompressionReport",
    "experiment_probabilities",
    "run_experiment",
    "compression_parameters",
    "run_zero_comm",
    "exact_output_distribution",
    "mc_output_distribution",
    "verify_compression",
    "extract_strategy",
    "conditional_distance_check",
    "BOT",
]

BOT = -1  # abort marker in output alphabets

_SUM_TOL = 1e-9


def _pow2(delta_exp) -> Number:
    if isinstance(delta_exp, int) or (
        isinstance(delta_exp, Fraction) and delta_exp.denominator == 1
    ):
        return Fraction(2) ** int(delta_exp)
    return 2.0 ** float(delta_exp)


@dataclass(frozen=True)
class ExperimentInputs:
    """Factor functions for one sampling experiment.

    p_a*p_b, p_a*q_a, and p_b*q_b must each be probability distributions over
    the universe (the target tau and the two parties' estimates nu_a, nu_b).
    """

    p_a: tuple[Number, ...]
    q_a: tuple[Number, ...]
    p_b: tuple[Number, ...]
    q_b: tuple[Number, ...]
    delta_exp: Number

    def __post_init__(self) -> None:
        size = len(self.p_a)
        if not (len(self.q_a) == len(self.p_b) == len(self.q_b) == size) or size == 0:
            raise DimensionError("factor maps must share a nonempty universe")
        if self.delta_exp <= 0:
            raise ParameterError("delta_exp must be positive")
        for name, vals in (
            ("p_a", self.p_a), ("q_a", self.q_a), ("p_b", self.p_b), ("q_b", self.q_b)
        ):
            if any(v < 0 or v > 1 for v in vals):
                raise ParameterError(f"{name} values must lie in [0, 1]")
        for name, total in (
            ("p_a*p_b", sum(a * b for a, b in zip(self.p_a, self.p_b))),
            ("p_a*q_a", sum(a * b for a, b in zip(self.p_a, self.q_a))),
            ("p_b*q_b", sum(a * b for a, b in zip(self.p_b, self.q_b))),
        ):
            if isinstance(total, Fraction):
                if total != 1:
                    raise ParameterError(f"{name} sums to {total}, not 1")
            elif abs(total - 1) > _SUM_TOL:
                raise ParameterError(f"{name} sums to {total}, not 1")

    @property
    def universe_size(self) -> int:
        return len(self.p_a)

    @classmethod
    def from_factorization(cls, fac: Factorization, delta_exp) -> "ExperimentInputs":
        return cls(fac.p_a, fac.q_a, fac.p_b, fac.q_b, delta_exp)


@dataclass(frozen=True)
class ExperimentOutcome:
    kind: Literal["both", "alice_only", "bob_only", "neither"]
    u: int | None

    def __post_init__(self) -> None:
        if (self.kind == "neither") != (self.u is None):
            raise ParameterError("u must be present exactly when someone accepted")


@dataclass(frozen=True)
class ExperimentTable:
    """Exact per-u category probabilities of one experiment."""

    both: tuple[Number, ...]
    alice_only: tuple[Number, ...]
    bob_only: tuple[Number, ...]
    neither: Number

    def alice_accept_total(self) -> Number:
        return sum(self.both) + sum(self.alice_only)

    def bob_accept_total(self) -> Number:
        return sum(self.both) + sum(self.bob_only)

    def accepted_distribution(self) -> FiniteDistribution:
        """Law of the experiment output conditioned on both parties accepting."""
        total = sum(self.both)
        if total == 0:
            raise ConditioningError("experiment never accepted")
        return FiniteDistribution(tuple(b / total for b in self.both))


def experiment_probabilities(inp: ExperimentInputs) -> ExperimentTable:
    """Closed-form category probabilities of a single experiment."""
    size = inp.universe_size
    scale = _pow2(inp.delta_exp)
    inv_u = Fraction(1, size) if isinstance(scale, Fraction) else 1.0 / size
    both, alice_only, bob_only = [], [], []
    for pa, qa, pb, qb in zip(inp.p_a, inp.q_a, inp.p_b, inp.q_b):
        # alpha <= min(pa, S*qb) and beta <= min(pb, S*qa), alpha/beta ~ U[0, S]
        p_both = inv_u * min(pa, scale * qb) * min(pb, scale * qa) / (scale * scale)
        p_alice = inv_u * pa * qa / scale
        p_bob = inv_u * pb * qb / scale
        both.append(p_both)
        alice_only.append(p_alice - p_both)
        bob_only.append(p_bob - p_both)
    covered = sum(both) + sum(alice_only) + sum(bob_only)
    return ExperimentTable(tuple(both), tuple(alice_only), tuple(bob_only), 1 - covered)


def run_experiment(inp: ExperimentInputs, rng: np.random.Generator) -> ExperimentOutcome:
    """Sample one experiment from an externally seeded stream."""
    size = inp.universe_size
    scale = float(_pow2(inp.delta_exp))
    u = int(rng.integers(size))
    alpha = rng.random() * scale
    beta = rng.random() * scale
    alice = alpha <= float(inp.p_a[u]) and beta <= scale * float(inp.q_a[u])
    bob = alpha <= scale * float(inp.q_b[u]) and beta <= float(inp.p_b[u])
    if alice and bob:
        return ExperimentOutcome("both", u)
    if alice:
        return ExperimentOutcome("alice_only", u)
    if bob:
        return ExperimentOutcome("bob_only", u)
    return ExperimentOutcome("neither", None)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionParameters:
    """(delta_exp, trials, hash_bits) driving a zero-communication run.

    In paper-exact mode the three are derived from the accuracy delta and the
    information cost by the ceiling formulas; lambda is always
    2**-(hash_bits + delta_exp).
    """

    delta: float
    info_cost: float
    delta_exp: int
    trials: int
    hash_bits: int
    mode: Literal["paper-exact", "override"]

    def __post_init__(self) -> None:
        if not (0 < self.delta < 1):
            raise ParameterError("delta must lie in (0, 1)")
        if self.info_cost < 0:
            raise ParameterError("info_cost must be nonnegative")
        if self.delta_exp < 1 or self.trials < 1 or self.hash_bits < 0:
            raise ParameterError("delta_exp, trials >= 1 and hash_bits >= 0 required")

    @property
    def lambda_exponent(self) -> int:
        return self.hash_bits + self.delta_exp

    @property
    def lambda_(self) -> float:
        return math.ldexp(1.0, -self.lambda_exponent)

    @property
    def lambda_exact(self) -> Fraction:
        return Fraction(1, 2**self.lambda_exponent)


def compression_parameters(
    delta: float,
    info_cost: float,
    universe_size: int,
    overrides: tuple[int, int, int] | None = None,
) -> CompressionParameters:
    """Derive (delta_exp, trials, hash_bits) from (delta, info_cost, |U|).

    Pass ``overrides=(delta_exp, trials, hash_bits)`` to bypass the derivation
    (the analytic guarantees are then not asserted)."""
    if not (0 < delta < 1):
        raise ParameterError("delta must lie in (0, 1)")
    if info_cost < 0:
        raise ParameterError("info_cost must be nonnegative")
    if overrides is not None:
        d, t, k = overrides
        if d < 1 or t < 1 or k < 0:
            raise ParameterError("override parameters must be positive (hash_bits >= 0)")
        return CompressionParameters(delta, info_cost, d, t, k, "override")
    if universe_size < 1:
        raise ParameterError("universe_size must be positive")
    delta_exp = math.ceil((4 / delta) * (8 * info_cost / delta + 1))
    log_term = math.log(8 / delta)
    # 2**delta_exp can be astronomically large; keep the product exact.
    trials = math.ceil(
        Fraction(universe_size * 2**delta_exp) * Fraction.from_float(log_term)
    )
    hash_bits = math.ceil(delta_exp + math.log2((64 / delta) * log_term**2))
    return CompressionParameters(
        delta, info_cost, delta_exp, trials, hash_bits, "paper-exact"
    )


# ---------------------------------------------------------------------------
# Sampling kernel (vectorized, chunked, reproducible)
# ---------------------------------------------------------------------------


# Trials per block of runs in the kernel, so memory stays flat whatever the
# number of runs is.
_CHUNK_ELEMENTS = 2_000_000


def _experiment_setup(pi: ProtocolTree, mu: InputDistribution, x: int, y: int, params):
    fac = factorization(pi, mu, x, y)
    return ExperimentInputs.from_factorization(fac, params.delta_exp)


def _seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _thresholds(probs) -> np.ndarray:
    """uint32 t = min(floor(p * 2**32), 2**32 - 1): a uniform uint32 coin is
    <= t with probability within 2**-32 of p, and always when p = 1."""
    scaled = np.floor(np.ldexp(np.asarray(probs, dtype=float), 32))
    return np.minimum(scaled, 2**32 - 1).astype(np.uint32)


def _party_rows(pi: ProtocolTree, mu: InputDistribution, xs, ys, params):
    """Thresholds, shape (rows, 2, |U|), of Alice's rows for ``xs`` and Bob's
    for ``ys``.  With alpha, beta ~ U[0, S], S = 2**delta_exp, Alice accepts
    u when alpha/S <= p_a(u)/S and beta/S <= q_a(u); Bob when alpha/S <=
    q_b(u) and beta/S <= p_b(u)/S."""
    alice = [_experiment_setup(pi, mu, x, ys[0], params) for x in xs]
    bob = [alice[0]] + [_experiment_setup(pi, mu, xs[0], y, params) for y in ys[1:]]

    def scaled(vals):
        return [math.ldexp(float(v), -params.delta_exp) for v in vals]

    return (_thresholds([(scaled(i.p_a), i.q_a) for i in alice]),
            _thresholds([(i.q_b, scaled(i.p_b)) for i in bob]))


def _hash_match(bitgen, count: int, hash_bits: int) -> np.ndarray:
    """``count`` hash matches h(i) == r of probability 2**-hash_bits: the low
    hash_bits bits of a word are zero.  Words are uint8 views of raw draws
    up to 8 bits, uint32 views up to 32, whole draws (64 bits each) beyond."""
    match = np.ones(count, dtype=bool)
    for done in range(0, hash_bits, 64):
        bits = min(hash_bits - done, 64)
        dtype = np.uint8 if bits <= 8 else np.uint32 if bits <= 32 else np.uint64
        words = bitgen.random_raw(-(-count * np.dtype(dtype).itemsize // 8)).view(dtype)[:count]
        match &= (words & dtype((1 << bits) - 1)) == 0
    return match


def _party_maps(rng, n, params, a_rows, b_rows, outputs):
    """Yield (a_maps, b_maps), shapes (block, rows), for blocks of ``n`` runs.

    a_maps[r, i] is the output of Alice's first accepted trial of run r under
    row i if its hash matches, else BOT; b_maps[r, j] is the output of Bob's
    first accepted trial whose hash matches, else BOT.  A block draws u, then
    one raw word per trial (alpha the first half of their uint32 view, beta
    the second), then the hash matches; the coins do not depend on the rows.
    ``outputs`` holds the output of each u.
    """
    trials, bitgen, outputs = params.trials, rng.bit_generator, np.asarray(outputs)
    size = len(outputs)
    u_dtype = np.min_scalar_type(size - 1)
    chunk = max(1, min(n, _CHUNK_ELEMENTS // trials))
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        u = rng.integers(0, size, size=(m, trials), dtype=u_dtype).astype(np.intp)
        alpha, beta = bitgen.random_raw(m * trials).view(np.uint32).reshape(2, m, trials)
        match = _hash_match(bitgen, m * trials, params.hash_bits).reshape(m, trials)
        runs = np.arange(m)
        a_maps = np.empty((m, len(a_rows)), dtype=np.int64)
        b_maps = np.empty((m, len(b_rows)), dtype=np.int64)
        for i, (t_alpha, t_beta) in enumerate(a_rows):
            accept = (alpha <= np.take(t_alpha, u)) & (beta <= np.take(t_beta, u))
            first = accept.argmax(axis=1)
            ok = accept[runs, first] & match[runs, first]
            a_maps[:, i] = np.where(ok, outputs[u[runs, first]], BOT)
        for j, (t_alpha, t_beta) in enumerate(b_rows):
            hit = (alpha <= np.take(t_alpha, u)) & (beta <= np.take(t_beta, u)) & match
            first = hit.argmax(axis=1)
            b_maps[:, j] = np.where(hit[runs, first], outputs[u[runs, first]], BOT)
        yield a_maps, b_maps


# ---------------------------------------------------------------------------
# Zero-communication run (one run of the kernel)
# ---------------------------------------------------------------------------


def run_zero_comm(
    pi: ProtocolTree,
    mu: InputDistribution,
    x: int,
    y: int,
    params: CompressionParameters,
    seed: int,
) -> int:
    """One full zero-communication run; returns an output value or BOT.

    Fully deterministic given (seed, params, x, y): the single-run case of
    the sampling kernel on a Philox stream seeded by ``seed``.
    """
    a_rows, b_rows = _party_rows(pi, mu, [x], [y], params)
    ((a_map, b_map),) = _party_maps(_seeded_rng(seed), 1, params, a_rows, b_rows, pi.leaf_outputs())
    alice_out, bob_out = int(a_map[0, 0]), int(b_map[0, 0])
    return alice_out if alice_out != BOT and alice_out == bob_out else BOT


# ---------------------------------------------------------------------------
# Exact output-distribution DP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactLaw:
    """Exact law of one zero-communication run on fixed inputs."""

    output: tuple[float, ...]      # over Z, index z
    abort: float
    not_abort: float
    collision: float               # Pr of the hash-collision event
    alice_output: tuple[float, ...]  # law of Alice's own output, BOT last
    bob_output: tuple[float, ...]

    def conditional_output(self) -> tuple[float, ...]:
        if self.not_abort == 0:
            raise ConditioningError("protocol always aborts")
        return tuple(p / self.not_abort for p in self.output)


def exact_output_distribution(
    pi: ProtocolTree,
    mu: InputDistribution,
    x: int,
    y: int,
    params: CompressionParameters,
    caps: Caps | None = None,
) -> ExactLaw:
    """Exact joint law of (Alice output, Bob output).

    Uses the independence of trials and the fact that the per-trial hash-match
    indicators are i.i.d. Bernoulli(2**-hash_bits) and independent of the
    experiment outcomes, so the run is a time-homogeneous chain on (k+2)(k+1)
    states, k <= |U| the number of distinct leaf outputs, whose T-step law
    costs O(log T) matrix products.
    """
    caps = caps or default_caps()
    if params.trials > caps.dp_trials:
        raise CapacityError(
            f"T={params.trials} exceeds the DP cap {caps.dp_trials}; "
            "use MC mode or raise the dp_trials cap"
        )
    if pi.universe_size > caps.dp_universe:
        raise CapacityError(
            f"|U|={pi.universe_size} exceeds the DP cap {caps.dp_universe}"
        )
    inp = _experiment_setup(pi, mu, x, y, params)
    table = experiment_probabilities(inp)
    outputs = pi.leaf_outputs()
    # Aggregate categories by the transcript's output value.  The chain runs
    # over the values some leaf outputs (at most |U| of them), not over all
    # of Z, so its size does not grow with the declared z_size.
    values = sorted(set(outputs))
    index = {z: i for i, z in enumerate(values)}
    both_z = [0.0] * len(values)
    aonly_z = [0.0] * len(values)
    bonly_z = [0.0] * len(values)
    for u, z in enumerate(outputs):
        both_z[index[z]] += float(table.both[u])
        aonly_z[index[z]] += float(table.alice_only[u])
        bonly_z[index[z]] += float(table.bob_only[u])
    law = _dp_law(both_z, aonly_z, bonly_z, params)

    def spread(probs: tuple[float, ...]) -> tuple[float, ...]:
        full = [0.0] * pi.z_size
        for z, p in zip(values, probs):
            full[z] = p
        return tuple(full) + probs[len(values):]

    return replace(
        law,
        output=spread(law.output),
        alice_output=spread(law.alice_output),
        bob_output=spread(law.bob_output),
    )


def _dp_law(both_z, aonly_z, bonly_z, params: CompressionParameters) -> ExactLaw:
    nz = len(both_z)
    rho = math.ldexp(1.0, -params.hash_bits)
    alice_any = sum(both_z) + sum(aonly_z)       # Pr[Alice accepts a trial]
    bob_any_z = [b + o for b, o in zip(both_z, bonly_z)]
    bob_any = sum(bob_any_z)

    # State (a, b) with a in {pending, aborted, z} and b in {searching, z},
    # flattened to a * (nz + 1) + b: a = 0 pending, 1 aborted, 2 + z; b = 0
    # searching, 1 + z.  One trial maps the law through I + gen.  Every entry
    # of gen is built directly, never as 1 - small, since rho can be 2^-43.
    width = nz + 1
    gen = np.zeros(((nz + 2) * width,) * 2)
    start = 0
    for z in range(nz):
        gen[start, (2 + z) * width + 1 + z] = both_z[z] * rho
        gen[start, (2 + z) * width] = aonly_z[z] * rho
        gen[start, 1 + z] = bonly_z[z] * rho
    gen[start, width] = alice_any * (1.0 - rho)
    gen[start, start] = -(alice_any + sum(bonly_z) * rho)
    for b in range(1, width):  # Bob already found b, Alice pending
        for z in range(nz):
            gen[b, (2 + z) * width + b] = (both_z[z] + aonly_z[z]) * rho
        gen[b, width + b] = alice_any * (1.0 - rho)
        gen[b, b] = -alice_any
    for a in range(1, nz + 2):  # Alice decided, Bob still searching
        s = a * width
        for z in range(nz):
            gen[s, s + 1 + z] = bob_any_z[z] * rho
        gen[s, s] = -bob_any * rho

    # (I + gen)^T = I + acc by squaring, carried on the gen part alone:
    # (I + P)^2 = I + (2P + P P) and (I + R)(I + P) = I + (R + P + R P), so
    # rounding does not grow with T.
    acc = np.zeros_like(gen)
    power = gen
    t = params.trials
    while True:
        if t & 1:
            acc = acc + power + acc @ power
        t >>= 1
        if not t:
            break
        power = 2.0 * power + power @ power
    law = acc[start].reshape(nz + 2, width)
    law[0, 0] += 1.0

    output = [float(law[2 + z, 1 + z]) for z in range(nz)]
    not_abort = sum(output)
    # The BOT entries in closed form: read off the chain they are complements
    # of masses near 1, which loses them when they are tiny.  Alice outputs
    # BOT unless she accepts a trial and its hash matches; Bob outputs BOT
    # unless some trial he accepts has a matching hash.
    trials = params.trials
    alice_bot = (1.0 - rho) + rho * math.exp(trials * math.log1p(-alice_any))
    bob_bot = math.exp(trials * math.log1p(-bob_any * rho))
    alice_law = [float(law[2 + z].sum()) for z in range(nz)] + [alice_bot]
    bob_law = [float(law[:, 1 + z].sum()) for z in range(nz)] + [bob_bot]
    union = alice_any + bob_any - sum(both_z)
    return ExactLaw(
        tuple(output),
        1.0 - not_abort,
        not_abort,
        _collision(union * rho, params.trials),
        tuple(alice_law),
        tuple(bob_law),
    )


def _collision(q: float, trials: int) -> float:
    """Pr[Binomial(trials, q) >= 2]: two trials accepted by someone match the
    hash target."""
    if trials * q >= 1:
        return max(1.0 - (1.0 - q) ** trials - trials * q * (1.0 - q) ** (trials - 1), 0.0)
    # The direct form cancels when T q << 1; sum the tail from k = 2 instead.
    term = trials * (trials - 1) / 2 * q * q * math.exp((trials - 2) * math.log1p(-q))
    total = 0.0
    k = 2
    while term > total * 1e-17:
        total += term
        term *= (trials - k) / (k + 1) * q / (1.0 - q)
        k += 1
    return total


# ---------------------------------------------------------------------------
# Monte Carlo output laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McLaw:
    """Empirical law of the run output over Z plus BOT."""

    counts: tuple[int, ...]   # per z, then BOT last
    samples: int

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.samples for c in self.counts)

    def max_standard_error(self) -> float:
        return max(
            math.sqrt(p * (1 - p) / self.samples) for p in self.frequencies
        )


def _mc_laws(pi, mu, params, xs, ys, samples, seed) -> dict[tuple[int, int], McLaw]:
    """MC output laws of every cell of xs x ys, read off one coin block."""
    a_rows, b_rows = _party_rows(pi, mu, xs, ys, params)
    nz = pi.z_size
    counts = np.zeros((len(xs), len(ys), nz + 1), dtype=np.int64)
    blocks = _party_maps(_seeded_rng(seed), samples, params, a_rows, b_rows, pi.leaf_outputs())
    for a_maps, b_maps in blocks:
        for i in range(len(xs)):
            a = a_maps[:, i]
            for j in range(len(ys)):
                agreed = (a != BOT) & (a == b_maps[:, j])
                counts[i, j] += np.bincount(np.where(agreed, a, nz), minlength=nz + 1)
    return {
        (x, y): McLaw(tuple(int(c) for c in counts[i, j]), samples)
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    }


def mc_output_distribution(
    pi: ProtocolTree,
    mu: InputDistribution,
    x: int,
    y: int,
    params: CompressionParameters,
    samples: int,
    seed: int,
) -> McLaw:
    """Empirical output law over many runs, sampled from the raw experiment
    coins (u, alpha, beta) plus the per-trial hash-match indicator."""
    return _mc_laws(pi, mu, params, [x], [y], samples, seed)[(x, y)]


# ---------------------------------------------------------------------------
# Compression verification (Eqs. of the main compression guarantee)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputReport:
    x: int
    y: int
    not_abort: float
    eq5_pass: bool
    collision: float
    standard_error: float | None = None


@dataclass(frozen=True)
class CompressionReport:
    """Per-input and aggregate verification of the compression guarantees."""

    params: CompressionParameters
    engine: Literal["dp", "mc"]
    inputs: tuple[InputReport, ...]
    aggregate_not_abort: float
    eq4_distance: float
    eq4_pass: bool
    eq5_pass: bool
    eq6_pass: bool
    collision_bound_pass: bool | None
    mc_samples: int | None = None

    @property
    def all_pass(self) -> bool:
        return self.eq4_pass and self.eq5_pass and self.eq6_pass

    def csv_rows(self) -> list[str]:
        lam = self.params.lambda_
        header = (
            f"# engine={self.engine} mode={self.params.mode} "
            f"delta={self.params.delta} delta_exp={self.params.delta_exp} "
            f"trials={self.params.trials} hash_bits={self.params.hash_bits} "
            f"lambda={lam!r}"
        )
        rows = [header, "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass"]
        for rep in self.inputs:
            rows.append(
                f"{rep.x},{rep.y},{rep.not_abort!r},{lam!r},{rep.eq5_pass},"
            )
        rows.append(
            f"aggregate,,{self.aggregate_not_abort!r},{lam!r},,{self.eq6_pass}"
        )
        rows.append(
            f"eq4,,{self.eq4_distance!r},,,{self.eq4_pass}"
        )
        return rows


def verify_compression(
    pi: ProtocolTree,
    f: PartialFunction | None,
    mu: InputDistribution,
    delta: float,
    params: CompressionParameters,
    engine: Literal["dp", "mc"] = "dp",
    mc_samples: int = 1_000_000,
    seed: int = 0,
    caps: Caps | None = None,
) -> CompressionReport:
    """Check the three compression guarantees against the exact (or
    sampled) law of the derived zero-communication protocol.

    Per input: Pr[not abort] <= (1+delta)*lambda.  Aggregated over mu:
    Pr[not abort] >= (1-delta)*lambda, and the statistical distance between
    (X, Y, original output) and (X, Y, run output | not abort) is at most
    delta.  In paper-exact mode a failure is a defect; under overrides the
    report is informational.  In MC mode the cells' laws share one coin
    block; each per-input check is still valid on its own.
    """
    if not (0 < delta < 1):
        raise ParameterError("delta must lie in (0, 1)")
    caps = caps or default_caps()
    lam = params.lambda_
    tol = 1e-9 * lam  # float-rounding allowance on exact quantities

    xs = [x for x in range(pi.x_size) if mu.x_marginal(x) > 0]
    ys = [y for y in range(pi.y_size) if mu.y_marginal(y) > 0]
    cells = [(x, y) for x in xs for y in ys]
    if engine == "mc":
        mc_laws = _mc_laws(pi, mu, params, xs, ys, mc_samples, seed)
    reports = []
    run_laws: dict[tuple[int, int], tuple[list[float], float]] = {}
    collision_ok: bool | None = True if params.mode == "paper-exact" else None
    for x, y in cells:
        if engine == "dp":
            law = exact_output_distribution(pi, mu, x, y, params, caps)
            out, not_abort, collision = list(law.output), law.not_abort, law.collision
            se = None
        else:
            mc = mc_laws[(x, y)]
            out = [c / mc.samples for c in mc.counts[:-1]]
            not_abort = sum(out)
            collision = float("nan")
            se = mc.max_standard_error()
        eq5 = not_abort <= (1 + delta) * lam + (tol if engine == "dp" else 5 * (se or 0))
        reports.append(InputReport(x, y, not_abort, eq5, collision, se))
        run_laws[(x, y)] = (out, not_abort)
        if collision_ok is not None and engine == "dp":
            if collision > (delta / 16) * lam + tol:
                collision_ok = False

    aggregate = sum(float(mu.prob(x, y)) * run_laws[(x, y)][1] for x, y in cells)
    eq6 = aggregate >= (1 - delta) * lam - (tol if engine == "dp" else 0.0)

    # Statistical distance between the two joint (X, Y, output) laws.
    if aggregate == 0:
        distance = 1.0
    else:
        distance = 0.0
        for x, y in cells:
            w = float(mu.prob(x, y))
            if w == 0:
                continue
            orig = output_distribution(pi, x, y)
            run_out, _ = run_laws[(x, y)]
            for z in range(pi.z_size):
                p = w * orig[z]
                q = w * run_out[z] / aggregate
                distance += abs(p - q)
        distance /= 2.0
    eq4 = distance <= delta + 1e-9

    return CompressionReport(
        params,
        engine,
        tuple(reports),
        aggregate,
        distance,
        eq4,
        all(r.eq5_pass for r in reports),
        eq6,
        collision_ok,
        mc_samples if engine == "mc" else None,
    )


# ---------------------------------------------------------------------------
# Strategy extraction (zero-communication runs -> labeled rectangles)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyReport:
    """Empirical feasibility of the extracted strategy for the relaxed
    partition program at error eps + 3*delta."""

    eps: float
    delta: float
    eta_target: float            # (1 + delta) * lambda / |Z|
    correctness_lhs: float       # empirical mu-weighted correct coverage
    correctness_threshold: float  # (1 - eps - 3 delta) * eta_target
    correctness_se: float
    max_coverage: float          # empirical max per-input coverage
    coverage_se: float
    weight_total: Fraction       # exact; must be 1
    seeds: int


def extract_strategy(
    pi: ProtocolTree,
    f: PartialFunction,
    mu: InputDistribution,
    delta: float,
    params: CompressionParameters,
    seed_count: int,
    seed: int = 0,
    caps: Caps | None = None,
):
    """Convert sampled zero-communication runs into a labeled-rectangle
    strategy and report its empirical feasibility.

    For each sampled shared-randomness seed, Alice's output map over X and
    Bob's over Y are computed (each depends only on the party's own input),
    every label z gets the rectangle a^{-1}(z) x b^{-1}(z) with weight
    1/(seeds * |Z|), and the empirical correctness/coverage statistics are
    compared against eta = (1 + delta) * lambda / |Z|.
    """
    from .bounds import LabeledRectangleStrategy

    caps = caps or default_caps()
    if pi.x_size * pi.y_size > caps.grid_cells:
        raise CapacityError(f"input grid exceeds {caps.grid_cells} cells")
    if pi.x_size + pi.y_size > 63:
        raise CapacityError("extraction needs x_size + y_size <= 63 (int64 rectangle keys)")
    if seed_count < 1:
        raise ParameterError("seed_count must be positive")
    if not (0 < delta < 1):
        raise ParameterError("delta must lie in (0, 1)")
    mu.check_compatible(f)

    nx, ny, nz = pi.x_size, pi.y_size, pi.z_size
    a_rows, b_rows = _party_rows(pi, mu, range(nx), range(ny), params)
    blocks = _party_maps(_seeded_rng(seed), seed_count, params, a_rows, b_rows, pi.leaf_outputs())
    a_maps, b_maps = (np.concatenate(maps) for maps in zip(*blocks))

    # Label z gets a^{-1}(z) x b^{-1}(z): tally each label's rectangles by the
    # key (row_mask << ny) | col_mask, every empty rectangle on key 0.
    xbits = 1 << np.arange(nx, dtype=np.int64)
    ybits = 1 << np.arange(ny, dtype=np.int64)
    denom = seed_count * nz
    entries = []
    for z in range(nz):
        row_masks = (a_maps == z) @ xbits
        col_masks = (b_maps == z) @ ybits
        keys = np.where((row_masks == 0) | (col_masks == 0), 0, (row_masks << ny) | col_masks)
        for key, count in zip(*(arr.tolist() for arr in np.unique(keys, return_counts=True))):
            rect = Rectangle(key >> ny, key & ((1 << ny) - 1))
            entries.append((rect, z, Fraction(count, denom)))

    eps = protocol_error(pi, f, mu)
    eta = (1 + delta) * params.lambda_ / nz

    # Per-seed statistics for the correctness and coverage estimates.
    agree = a_maps[:, :, None] == b_maps[:, None, :]  # (seeds, nx, ny)
    valid = a_maps[:, :, None] != BOT
    joint_ok = agree & valid
    mu_arr = np.array([[float(mu.prob(x, y)) for y in range(ny)] for x in range(nx)])
    fvals = np.array(
        [[-1 if f.value(x, y) is None else f.value(x, y) for y in range(ny)]
         for x in range(nx)]
    )
    defined = fvals >= 0
    correct = joint_ok & (
        (~defined)[None, :, :] | (a_maps[:, :, None] == fvals[None, :, :])
    )
    per_seed_corr = (correct * mu_arr[None, :, :]).sum(axis=(1, 2)) / nz
    corr_mean = float(per_seed_corr.mean())
    corr_se = float(per_seed_corr.std(ddof=1) / math.sqrt(seed_count)) if seed_count > 1 else 0.0

    coverage = joint_ok.mean(axis=0) / nz  # per (x, y)
    max_cov = float(coverage.max())
    p_hat = max_cov * nz  # underlying per-seed indicator mean
    cov_se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / seed_count) / nz

    efficiency = max(max_cov, eta) or eta
    strategy = LabeledRectangleStrategy.build(entries, efficiency, nx, ny)
    report = StrategyReport(
        eps=eps,
        delta=delta,
        eta_target=eta,
        correctness_lhs=corr_mean,
        correctness_threshold=(1 - eps - 3 * delta) * eta,
        correctness_se=corr_se,
        max_coverage=max_cov,
        coverage_se=cov_se,
        weight_total=sum((w for _, _, w in entries), Fraction(0)),
        seeds=seed_count,
    )
    return strategy, report


# ---------------------------------------------------------------------------
# Conditional-distance utility
# ---------------------------------------------------------------------------


def conditional_distance_check(
    pi_dist: FiniteDistribution,
    space_weights: Sequence[Number],
    value_map: Sequence[int],
    event_f: int,
    event_h: int,
    c: Number,
) -> tuple[bool, Number, Number]:
    """Check |Pi'_H - Pi| <= c + Pr[F] / Pr[H] on a finite space.

    ``space_weights`` is the law of the underlying space, ``value_map`` sends
    each point to the universe of ``pi_dist``, and events are bit masks over
    the space.  The caller guarantees |Pi'_{H minus F} - Pi| <= c.

    Returns (holds, measured |Pi'_H - Pi|, bound).
    """
    if len(space_weights) != len(value_map):
        raise DimensionError("space and value map sizes differ")
    n = len(space_weights)
    pr_h = sum(w for i, w in enumerate(space_weights) if (event_h >> i) & 1)
    if pr_h == 0:
        raise ConditioningError("conditioning event has zero probability")
    pr_f = sum(w for i, w in enumerate(space_weights) if (event_f >> i) & 1)
    cond = [0 * pi_dist.weights[0]] * pi_dist.size
    for i, w in enumerate(space_weights):
        if (event_h >> i) & 1 and w:
            cond[value_map[i]] = cond[value_map[i]] + w / pr_h
    measured = max(
        sum(cw - pw for cw, pw in zip(cond, pi_dist.weights) if cw > pw),
        sum(pw - cw for cw, pw in zip(cond, pi_dist.weights) if pw > cw),
    )
    bound = c + pr_f / pr_h
    slack = 0 if isinstance(measured, Fraction) and isinstance(bound, Fraction) else 1e-12
    return measured <= bound + slack, measured, bound
