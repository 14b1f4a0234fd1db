"""Zero-communication compression of a protocol, with exact analytics.

The pipeline:

* a single *sampling experiment*: both parties observe a shared draw
  (u, alpha, beta) and individually accept or reject it based on their own
  factor functions, with the acceptance thresholds inflated by 2**delta_exp;
* the full *zero-communication run*: T independent experiments, then a shared
  random hash h : [T] -> {0,1}^k and target r pick a common accepted
  experiment; each party outputs the transcript's value or aborts;
* the exact output law, from the T-th power of one trial's transition matrix
  on a four-state chain per output value (nobody decided, only Bob, only
  Alice, both have it) taken by squaring in O(log T) products, the chains of
  every input cell stacked into arrays of up to 4096 chains and each array
  squared in one pass, with each party's own law in closed form, and a
  vectorized Monte Carlo engine for cross-checking it, which draws the
  coins' top bytes at every trial, and their low bits, u and the hash only
  at the trials where a top byte admits some party (about 2/256 of them once
  delta_exp >= 9);
* the conversion of runs into a labeled-rectangle strategy.

Experiment category probabilities are closed-form: with S = 2**delta_exp,

    Pr[both accept on u]  = min(p_a, S*q_b) * min(p_b, S*q_a) / (|U| * S^2)
    Pr[Alice accepts on u] = p_a * q_a / (|U| * S)

and the one-sided categories follow by inclusion-exclusion.  Everything is
exact in rational mode (Fraction inputs, integer delta_exp).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .caps import Caps, default_caps
from .core import (FiniteDistribution, InputDistribution, Number, PartialFunction, Rectangle,
                   _pow2, _slack)
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
    "ExperimentTable",
    "CompressionParameters",
    "CompressionReport",
    "experiment_probabilities",
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


@dataclass(frozen=True)
class ExperimentInputs(Factorization):
    """Factor functions for one sampling experiment, and its delta_exp.

    p_a*p_b, p_a*q_a, and p_b*q_b must each be probability distributions over
    the universe (the target tau and the two parties' estimates nu_a, nu_b).
    """

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
        for name, left, right in (
            ("p_a*p_b", self.p_a, self.p_b),
            ("p_a*q_a", self.p_a, self.q_a),
            ("p_b*q_b", self.p_b, self.q_b),
        ):
            total = sum(a * b for a, b in zip(left, right))
            if abs(total - 1) > _slack((*left, *right), _SUM_TOL):
                raise ParameterError(f"{name} sums to {total}, not 1")

    @property
    def universe_size(self) -> int:
        return len(self.p_a)

    @classmethod
    def from_factorization(cls, fac: Factorization, delta_exp) -> "ExperimentInputs":
        return cls(fac.p_a, fac.q_a, fac.p_b, fac.q_b, delta_exp)


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
    """Closed-form category probabilities of a single experiment.

    With float factors they are float64, and the scale S = 2^delta_exp meets
    them as a float: an S^2 past the float range (delta_exp >= 512) raises
    CapacityError, since every both-accept mass is then at most 2^-1024 and
    float64 cannot hold it."""
    size = inp.universe_size
    scale = _pow2(inp.delta_exp)
    inv_u = Fraction(1, size) if isinstance(scale, Fraction) else 1.0 / size
    both, alice_only, bob_only = [], [], []
    try:
        square = scale * scale
        for pa, qa, pb, qb in zip(inp.p_a, inp.q_a, inp.p_b, inp.q_b):
            # alpha <= min(pa, S*qb) and beta <= min(pb, S*qa), alpha/beta ~ U[0, S]
            p_both = inv_u * min(pa, scale * qb) * min(pb, scale * qa) / square
            p_alice = inv_u * pa * qa / scale
            p_bob = inv_u * pb * qb / scale
            both.append(p_both)
            alice_only.append(p_alice - p_both)
            bob_only.append(p_bob - p_both)
    except OverflowError:
        raise CapacityError(
            "the experiment table with float factors needs 2^(2 delta_exp) below 2^1024 in "
            f"float64; got delta_exp = {inp.delta_exp}"
        ) from None
    covered = sum(both) + sum(alice_only) + sum(bob_only)
    return ExperimentTable(tuple(both), tuple(alice_only), tuple(bob_only), 1 - covered)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _check_accuracy(delta, info_cost=0.0) -> None:
    """The rule on the accuracy delta and the information cost that every
    compression parameter and entry point obeys."""
    if not (0 < delta < 1):
        raise ParameterError("delta must lie in (0, 1)")
    if info_cost < 0:
        raise ParameterError("info_cost must be nonnegative")


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
        _check_accuracy(self.delta, self.info_cost)
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
    _check_accuracy(delta, info_cost)
    if overrides is not None:
        return CompressionParameters(delta, info_cost, *overrides, "override")
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
# number of runs is.  A block's per-trial arrays (2 top bytes and a few
# masks per trial) then fit in a 2 MB L2 cache: on a 2-CPU Xeon VM with
# 2 MB of L2 per core, compress-mc's MC and extraction calls ran about 18 %
# faster than with blocks of 2,000,000 trials.
_CHUNK_ELEMENTS = 250_000

# Index of a uint32's most significant byte in its native-order uint8 view.
_TOP_BYTE = 3 if sys.byteorder == "little" else 0


class _Same:
    """Memo key that compares its objects by identity.  By value 0.25 ==
    Fraction(1, 4), so a value key would hand a float input the factors
    computed for an exact one; the key holds its objects, so their ids stay
    unique while it is cached."""

    __slots__ = ("objects",)

    def __init__(self, *objects) -> None:
        self.objects = objects

    def __hash__(self) -> int:
        return hash(tuple(map(id, self.objects)))

    def __eq__(self, other) -> bool:
        return all(a is b for a, b in zip(self.objects, other.objects))


@functools.lru_cache(maxsize=256)
def _experiment_cell(same: _Same, x: int, y: int, delta_exp):
    """The cell's factor functions and its read-only uint32 party rows,
    shape (2, 2, |U|): Alice's row, then Bob's (see ``_party_rows``).
    Memoized per (pi, mu, x, y, delta_exp): a scalar run would otherwise
    spend most of its time rebuilding the factorization and converting it to
    thresholds."""
    pi, mu = same.objects
    inp = ExperimentInputs.from_factorization(factorization(pi, mu, x, y), delta_exp)

    def scaled(vals):
        return [math.ldexp(float(v), -delta_exp) for v in vals]

    rows = _thresholds([(scaled(inp.p_a), inp.q_a), (inp.q_b, scaled(inp.p_b))])
    rows.flags.writeable = False
    return inp, rows


def _seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def _thresholds(probs) -> np.ndarray:
    """uint32 t = min(floor(p * 2**32), 2**32 - 1): a uniform uint32 coin is
    <= t with probability within 2**-32 of p, and always when p = 1."""
    scaled = np.floor(np.ldexp(np.asarray(probs, dtype=float), 32))
    return np.minimum(scaled, 2**32 - 1).astype(np.uint32)


@functools.lru_cache(maxsize=256)
def _party_rows(same: _Same, xs: tuple, ys: tuple, delta_exp):
    """The ``_kernel_setup`` of (pi, mu) = ``same.objects``, memoized per
    (pi, mu, xs, ys, delta_exp): a scalar run spends no time on setup.  With
    alpha, beta ~ U[0, S], S = 2**delta_exp, Alice accepts u when alpha/S <=
    p_a(u)/S and beta/S <= q_a(u); Bob when alpha/S <= q_b(u) and beta/S <=
    p_b(u)/S.  Alice's row depends on x alone and Bob's on y alone, so each
    is read off one memoized cell."""
    alice = tuple(_experiment_cell(same, x, ys[0], delta_exp)[1][0] for x in xs)
    bob = tuple(_experiment_cell(same, xs[0], y, delta_exp)[1][1] for y in ys)
    return _kernel_setup(alice, bob, same.objects[0].leaf_outputs())


def _kernel_setup(a_rows, b_rows, outputs):
    """(a_rows, b_rows, outputs, alpha_cut, beta_cut, u_dtype): each row is
    uint32 thresholds of shape (2, |U|), alpha's then beta's; the cuts are
    the largest alpha threshold of any Alice row and beta of any Bob row."""
    # Python's max over a list beats a numpy reduction on rows this short.
    alpha_cut = max(max(t_alpha.tolist()) for t_alpha, _ in a_rows)
    beta_cut = max(max(t_beta.tolist()) for _, t_beta in b_rows)
    outputs = np.array(outputs)
    outputs.flags.writeable = False  # shared by every call that hits the memo
    return a_rows, b_rows, outputs, alpha_cut, beta_cut, np.min_scalar_type(len(outputs) - 1)


def _hash_match(bitgen, count: int, hash_bits: int) -> np.ndarray:
    """``count`` hash matches h(i) == r of probability 2**-hash_bits: the low
    hash_bits bits of a word are zero.  Words are uint8 views of raw draws
    up to 8 bits, uint32 views up to 32, whole draws (64 bits each) beyond.
    It starts from the first word's compare; at hash_bits 0 nothing is drawn."""
    match = None
    for done in range(0, hash_bits, 64):
        bits = min(hash_bits - done, 64)
        dtype = np.uint8 if bits <= 8 else np.uint32 if bits <= 32 else np.uint64
        words = bitgen.random_raw(-(-count * np.dtype(dtype).itemsize // 8)).view(dtype)[:count]
        hit = (words & dtype((1 << bits) - 1)) == 0
        match = hit if match is None else match & hit
    return np.ones(count, dtype=bool) if match is None else match


def _first_per_run(hit, run):
    """The runs in which ``hit`` holds somewhere, and the candidate position
    of its first True in each; ``run`` is the candidates' sorted run index.
    Both are integer gathers, cheaper than boolean masks at dense hits."""
    pos = hit.nonzero()[0]
    runs = run[pos]
    first = np.empty(len(runs), dtype=bool)
    first[:1] = True
    np.not_equal(runs[1:], runs[:-1], out=first[1:])
    k = first.nonzero()[0]
    return runs[k], pos[k]


def _candidate_coins(bitgen, count: int, alpha_cut: int, beta_cut: int):
    """The coins of a block of ``count`` trials, at its near trials only:
    (alpha, beta, trial index), in trial order.  A trial is near when
    alpha's top byte is at most alpha_cut's or beta's top byte is at most
    beta_cut's; every trial with alpha <= alpha_cut or beta <= beta_cut is
    near.

    Each uint32 coin is 2**24 * h + l, with top byte h and low 24 bits l.
    The block draws the top bytes of every trial, 2 bytes per trial from one
    uint8 view of raw words: alpha's bytes for all ``count`` trials, then
    beta's.  Then, at the near trials only, it draws one raw word each,
    whose uint32 view gives l_alpha (first half) and l_beta (second half) as
    its low 24 bits.  A trial that is not near is accepted by no row,
    whatever its l and u, so every coin is still an exact uniform uint32
    where it is compared.  The arrays this builds over the whole block are
    freed on return.
    """
    tops = bitgen.random_raw(-(-count // 4)).view(np.uint8)[:2 * count].reshape(2, -1)
    # One mask, or-ed in place: with a third block-sized temporary, repeated
    # paper-exact calls at delta 0.8 took about 5,800 minor page faults each
    # (the pages freed by one block, faulted in again by the next).
    near = tops[0] <= alpha_cut >> 24
    near |= tops[1] <= beta_cut >> 24
    near = near.nonzero()[0]
    # Overwrite the top byte of each drawn uint32 with the trial's h, which
    # keeps its low 24 bits as l.
    coins = bitgen.random_raw(len(near)).view(np.uint32)
    coins.view(np.uint8)[_TOP_BYTE::4] = tops.take(near, axis=1).ravel()
    alpha, beta = coins.reshape(2, -1)
    return alpha, beta, near


def _party_maps(rng, n, params, setup):
    """Yield (a_maps, b_maps, candidates) for blocks of ``n`` runs; the maps
    have shape (block, rows).  ``setup`` is a ``_kernel_setup`` tuple, which
    ``_party_rows`` memoizes, so a call computes no rows, cuts or dtype.

    a_maps[r, i] is the output of Alice's first accepted trial of run r under
    row i if its hash matches, else BOT; b_maps[r, j] is the output of Bob's
    first accepted trial whose hash matches, else BOT.

    A block draws from the generator's SFC64 stream, in this order: the
    coins' top bytes at every trial, then their low bits where a top byte
    admits them (``_candidate_coins``, with the setup's alpha_cut and
    beta_cut), then u, then the hash matches, these two at those near
    trials only and in trial order.  No trial outside them is accepted by
    any row, whatever its u.  Every coin is still an independent uniform
    uint32 compared with the same thresholds, so the law of a run is the
    same as when every coin, u and hash is drawn at every trial.
    ``candidates`` counts the near trials, whose u and hash were drawn.  A
    run must fit in one block: a T above ``_CHUNK_ELEMENTS`` raises
    ``CapacityError`` before any draw.
    """
    a_rows, b_rows, outputs, alpha_cut, beta_cut, u_dtype = setup
    trials, bitgen = params.trials, rng.bit_generator
    if trials > _CHUNK_ELEMENTS:
        raise CapacityError(
            f"T ({trials.bit_length()} bits) exceeds the {_CHUNK_ELEMENTS} trials of one "
            "MC block; use the DP for larger T"
        )
    chunk = min(n, _CHUNK_ELEMENTS // trials)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        alpha, beta, cand = _candidate_coins(bitgen, m * trials, alpha_cut, beta_cut)
        count = len(cand)
        u = rng.integers(0, len(outputs), size=count, dtype=u_dtype)
        match = _hash_match(bitgen, count, params.hash_bits)
        run, u = cand // trials, u.astype(np.intp)
        a_maps, b_maps = np.empty((m, len(a_rows)), np.int64), np.empty((m, len(b_rows)), np.int64)
        a_maps.fill(BOT)
        b_maps.fill(BOT)
        for i, (t_alpha, t_beta) in enumerate(a_rows):
            runs, pos = _first_per_run((alpha <= t_alpha[u]) & (beta <= t_beta[u]), run)
            a_maps[runs, i] = np.where(match[pos], outputs[u[pos]], BOT)
        for j, (t_alpha, t_beta) in enumerate(b_rows):
            runs, pos = _first_per_run((alpha <= t_alpha[u]) & (beta <= t_beta[u]) & match, run)
            b_maps[runs, j] = outputs[u[pos]]
        # Free this block's coins before the caller runs and the next block
        # draws, so that two blocks are never resident at once.
        del alpha, beta, cand, u, match, run
        yield a_maps, b_maps, count


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
    the sampling kernel on an SFC64 stream seeded by ``seed``.
    """
    setup = _party_rows(_Same(pi, mu), (x,), (y,), params.delta_exp)
    ((a_map, b_map, _),) = _party_maps(_seeded_rng(seed), 1, params, setup)
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


def exact_output_distribution(
    pi: ProtocolTree,
    mu: InputDistribution,
    x: int,
    y: int,
    params: CompressionParameters,
    caps: Caps | None = None,
) -> ExactLaw:
    """Exact law of the run output and of each party's own output.

    Uses the independence of trials and the fact that the per-trial hash-match
    indicators are i.i.d. Bernoulli(2**-hash_bits) and independent of the
    experiment outcomes.  The run outputs z exactly when both parties reach
    z, which is a time-homogeneous chain on four states per output value z
    (k <= |U| chains, one per distinct leaf output), so the T-step law costs
    O(log T) products of k 4x4 matrices.  Each party's own law is in closed
    form.  The law is computed in float64, so a lambda below 2**-1022 (whose
    masses would be subnormal) or a T of 2**1024 or more is refused, and so
    is an experiment table with a nonzero per-trial rate below 2**-1022 (a
    category mass summed over an output value, alone or times
    2**-hash_bits), before the chain is built.  This is the one-cell case of
    ``_exact_laws``, which squares the chains of many cells in one pass.
    """
    return _exact_laws(pi, mu, [(x, y)], params, caps)[(x, y)]


_DP_CHAINS = 4096  # the most four-state chains squared in one batch


def _exact_laws(pi, mu, cells, params, caps) -> dict[tuple[int, int], ExactLaw]:
    """Exact laws of every cell of ``cells``.  The cells' chains, k per cell,
    are stacked into one (chains, 4, 4) array per batch of at most
    _DP_CHAINS chains, and each batch is squared in one pass.  The float64
    and trial-cap refusals come first, then the per-trial-rate refusal at the
    first cell whose table fails it, before any chain is built.  The masses
    and the laws take O(cells * k) memory; the arrays, O(_DP_CHAINS)."""
    if params.lambda_exponent > 1022 or params.trials > int(sys.float_info.max):
        raise CapacityError(
            "the exact law needs lambda >= 2^-1022 and T < 2^1024 in float64; got "
            f"lambda = 2^-{params.lambda_exponent} and a T of {params.trials.bit_length()} bits"
        )
    caps = caps or default_caps()
    if params.trials > caps.dp_trials:
        raise CapacityError(
            f"T={params.trials} exceeds the DP cap {caps.dp_trials}; "
            "use MC mode or raise the dp_trials cap"
        )
    same = _Same(pi, mu)
    outputs = pi.leaf_outputs()
    # Aggregate categories by the transcript's output value.  The chain runs
    # over the values some leaf outputs (at most |U| of them), not over all
    # of Z, so its size does not grow with the declared z_size.
    values = sorted(set(outputs))
    index = {z: i for i, z in enumerate(values)}
    # Every nonzero rate of the chain and of the closed forms is one of these
    # masses, or at least one of them times rho = 2^-hash_bits.  float64
    # loses a rate below 2^-1022, and a mass that is 0 only as a float; a
    # law that would drop one is refused.
    floor = math.ldexp(1.0, params.hash_bits - 1022)  # the least mass whose rate is normal
    masses = []
    for x, y in cells:
        table = experiment_probabilities(_experiment_cell(same, x, y, params.delta_exp)[0])
        both_z = [0.0] * len(values)
        aonly_z = [0.0] * len(values)
        bonly_z = [0.0] * len(values)
        for u, z in enumerate(outputs):
            both_z[index[z]] += float(table.both[u])
            aonly_z[index[z]] += float(table.alice_only[u])
            bonly_z[index[z]] += float(table.bob_only[u])
        cell_masses = both_z + aonly_z + bonly_z
        if min(cell_masses) < floor and (any(0 < m < floor for m in cell_masses) or any(
                p and not float(p) for p in (*table.both, *table.alice_only, *table.bob_only))):
            raise CapacityError(
                "the exact law needs every nonzero per-trial rate >= 2^-1022 in float64; got a "
                f"category mass below 2^-{1022 - params.hash_bits} under a hash match of "
                f"2^-{params.hash_bits}"
            )
        masses.append((both_z, aonly_z, bonly_z))

    def spread(probs: tuple[float, ...]) -> tuple[float, ...]:
        # Scatter a law from the values some leaf outputs onto all of Z.
        full = [0.0] * pi.z_size
        for z, p in zip(values, probs):
            full[z] = p
        return tuple(full) + probs[len(values):]

    # Each chain's products do not depend on its batch, so the laws do not
    # depend on _DP_CHAINS.
    laws = {}
    batch = max(1, _DP_CHAINS // len(values))
    for lo in range(0, len(cells), batch):
        for cell, law in zip(cells[lo:lo + batch], _dp_law(masses[lo:lo + batch], params)):
            laws[cell] = ExactLaw(spread(law.output), law.abort, law.not_abort, law.collision,
                                  spread(law.alice_output), spread(law.bob_output))
    return laws


def _dp_law(masses, params: CompressionParameters) -> list[ExactLaw]:
    """The laws of the cells whose per-value category masses are ``masses``,
    one (both_z, aonly_z, bonly_z) triple of k-long lists per cell, each law
    over the k values in their order, with BOT last for each party.  Every
    cell's k chains are stacked into one (cells * k, 4, 4) array, so one
    loop of O(log T) batched products serves them all."""
    rho = math.ldexp(1.0, -params.hash_bits)
    trials = params.trials
    cat = np.array(masses, dtype=float)  # (cells, 3, k)
    alice, bob = cat[:, 0] + cat[:, 1], cat[:, 0] + cat[:, 2]  # each party's per-value rates
    alice_z, bob_z = alice.tolist(), bob.tolist()
    # Pr[Alice accepts a trial], Pr[Bob does] and the Bob-only mass, summed
    # in order as Python floats.
    totals = [(sum(a), sum(b), sum(m[2])) for a, b, m in zip(alice_z, bob_z, masses)]
    alice_any, bob_any, bonly_any = np.array(totals).T

    # One chain per cell and output value z, over the states 0 nobody
    # decided, 1 Bob has z and Alice is pending, 2 Alice has z and Bob is
    # searching, 3 both have z; mass that moves toward any other outcome
    # leaves the chain.  One trial maps the law through I + gen.  Every
    # entry of gen is built directly, never as 1 - small, since rho can be
    # 2^-43.
    gen = np.zeros((len(masses), cat.shape[2], 4, 4))
    gen[..., 0, 1:] = (cat[:, ::-1] * rho).transpose(0, 2, 1)  # Bob only, Alice only, both
    gen[..., 0, 0] = -(alice_any + bonly_any * rho)[:, None]
    gen[..., 1, 3] = alice * rho
    gen[..., 1, 1] = -alice_any[:, None]
    gen[..., 2, 3] = bob * rho
    gen[..., 2, 2] = (-bob_any * rho)[:, None]

    # (I + gen)^T = I + acc by squaring, carried on the gen part alone:
    # (I + P)^2 = I + (2P + P P) and (I + R)(I + P) = I + (R + P + R P), so
    # rounding does not grow with T.  Every cell's chains share the one loop.
    power = gen.reshape(-1, 4, 4)
    acc = np.zeros_like(power)
    t = trials
    while True:
        if t & 1:
            step = acc @ power
            acc += power
            acc += step
        t >>= 1
        if not t:
            break
        step = power @ power
        power *= 2.0
        power += step
    outputs = acc[:, 0, 3].reshape(len(masses), -1).tolist()

    laws = []
    for output, (both_z, _, _), alice_z, bob_z, (alice_any, bob_any, _) in zip(
            outputs, masses, alice_z, bob_z, totals):
        not_abort = sum(output)
        # Each party's own law in closed form.  Alice outputs z when the
        # first trial she accepts is a z trial and its hash matches; Bob
        # outputs z when the first trial he accepts with a matching hash is
        # a z trial.  BOT is taken directly too: as a complement of a mass
        # near 1 it would be lost when it is tiny.
        alice_miss = trials * math.log1p(-alice_any)  # log Pr[Alice accepts no trial]
        bob_miss = trials * math.log1p(-bob_any * rho)
        alice_law = [a * rho * -math.expm1(alice_miss) / alice_any for a in alice_z]
        bob_law = [b * -math.expm1(bob_miss) / bob_any for b in bob_z]
        union = alice_any + bob_any - sum(both_z)
        laws.append(ExactLaw(
            tuple(output),
            1.0 - not_abort,
            not_abort,
            _collision(union * rho, trials),
            tuple(alice_law) + ((1.0 - rho) + rho * math.exp(alice_miss),),
            tuple(bob_law) + (math.exp(bob_miss),),
        ))
    return laws


def _collision(q: float, trials: int) -> float:
    """Pr[Binomial(trials, q) >= 2]: two trials accepted by someone match the
    hash target."""
    if trials * q >= 1:
        return max(1.0 - (1.0 - q) ** trials - trials * q * (1.0 - q) ** (trials - 1), 0.0)
    # The direct form cancels when T q << 1; sum the tail from k = 2 instead.
    # Its first term C(T, 2) q^2 (1-q)^(T-2) takes C(T, 2) q^2 as (T q)((T-1) q)
    # / 2, two factors below 1: T^2 / 2 alone can pass the float range.
    term = trials * q * ((trials - 1) * q) / 2 * math.exp((trials - 2) * math.log1p(-q))
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
    """Empirical law of the run output over Z plus BOT.

    ``candidates`` counts the near trials, whose u and hash were drawn: the
    top byte of alpha at most that of the largest alpha threshold of any
    Alice row, or the top byte of beta at most that of the largest beta
    threshold of any Bob row.  The kernel draws, from an SFC64 stream, the
    coins' top bytes at every trial, then their low 24 bits, u and the hash
    at the near trials only.  A coin's cut c admits a (floor(c * 2**-24) +
    1) / 256 share of the trials: at most 2/256 once delta_exp >= 8 and
    1/256 once delta_exp >= 9, so about 2/256 of the trials are near."""

    counts: tuple[int, ...]   # per z, then BOT last
    samples: int
    candidates: int           # near trials, whose u and hash were drawn

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.samples for c in self.counts)

    def max_standard_error(self) -> float:
        return max(
            math.sqrt(p * (1 - p) / self.samples) for p in self.frequencies
        )


def _mc_laws(pi, mu, params, xs, ys, samples, seed) -> dict[tuple[int, int], McLaw]:
    """MC output laws of every cell of xs x ys, read off one coin block."""
    if samples < 1:
        raise ParameterError(f"MC needs at least one sample, got {samples}")
    setup = _party_rows(_Same(pi, mu), tuple(xs), tuple(ys), params.delta_exp)
    nz = pi.z_size
    counts = np.zeros((len(xs), len(ys), nz + 1), dtype=np.int64)
    candidates = 0
    blocks = _party_maps(_seeded_rng(seed), samples, params, setup)
    for a_maps, b_maps, count in blocks:
        candidates += count
        for i in range(len(xs)):
            a = a_maps[:, i]
            for j in range(len(ys)):
                agreed = (a != BOT) & (a == b_maps[:, j])
                counts[i, j] += np.bincount(np.where(agreed, a, nz), minlength=nz + 1)
    return {
        (x, y): McLaw(tuple(int(c) for c in counts[i, j]), samples, candidates)
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
        if self.engine == "mc":
            header += f" rng={type(_seeded_rng(0).bit_generator).__name__}"
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
    block; each per-input check is still valid on its own.  The collision
    bound is checked only on the DP's exact collision mass: its pass is None
    under overrides and in MC mode, which computes none.
    """
    _check_accuracy(delta)
    if engine not in ("dp", "mc"):
        raise ParameterError(f"engine must be 'dp' or 'mc', got {engine!r}")
    caps = caps or default_caps()
    lam = params.lambda_
    tol = 1e-9 * lam  # float-rounding allowance on exact quantities

    xs = [x for x in range(pi.x_size) if mu.x_marginal(x) > 0]
    ys = [y for y in range(pi.y_size) if mu.y_marginal(y) > 0]
    cells = [(x, y) for x in xs for y in ys]
    if engine == "mc":
        laws = _mc_laws(pi, mu, params, xs, ys, mc_samples, seed)
    else:
        laws = _exact_laws(pi, mu, cells, params, caps)
    reports = []
    run_laws: dict[tuple[int, int], tuple[list[float], float]] = {}
    collision_ok: bool | None = True if params.mode == "paper-exact" and engine == "dp" else None
    for x, y in cells:
        law = laws[(x, y)]
        if engine == "dp":
            out, not_abort, collision = list(law.output), law.not_abort, law.collision
            se = None
        else:
            out = [c / law.samples for c in law.counts[:-1]]
            not_abort = sum(out)
            collision = float("nan")
            se = law.max_standard_error()
        eq5 = not_abort <= (1 + delta) * lam + (tol if engine == "dp" else 5 * (se or 0))
        reports.append(InputReport(x, y, not_abort, eq5, collision, se))
        run_laws[(x, y)] = (out, not_abort)
        if collision_ok and collision > (delta / 16) * lam + tol:
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
    _check_accuracy(delta)
    mu.check_compatible(f)

    nx, ny, nz = pi.x_size, pi.y_size, pi.z_size
    setup = _party_rows(_Same(pi, mu), tuple(range(nx)), tuple(range(ny)), params.delta_exp)
    blocks = _party_maps(_seeded_rng(seed), seed_count, params, setup)
    a_blocks, b_blocks, _ = zip(*blocks)
    a_maps, b_maps = np.concatenate(a_blocks), np.concatenate(b_blocks)

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
    strategy = LabeledRectangleStrategy(entries, efficiency, nx, ny)
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
    return measured <= bound + _slack((measured, bound), 1e-12), measured, bound
