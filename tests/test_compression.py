"""Zero-communication compression: experiments, exact law, MC, extraction."""

import itertools
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from commlb.bounds import LabeledRectangleStrategy
from commlb.caps import default_caps
from commlb import compression
from commlb.compression import (
    BOT,
    _dp_law,
    _first_per_run,
    _hash_match,
    _kernel_setup,
    _mc_laws,
    _party_maps,
    _party_rows,
    _seeded_rng,
    _thresholds,
    CompressionParameters,
    ExperimentInputs,
    compression_parameters,
    conditional_distance_check,
    exact_output_distribution,
    experiment_probabilities,
    extract_strategy,
    mc_output_distribution,
    run_zero_comm,
    verify_compression,
)
from commlb.core import (
    EMPTY_RECTANGLE,
    FiniteDistribution,
    InputDistribution,
    PartialFunction,
    Rectangle,
)
from commlb.corpus import corpus_triples, make_distribution, make_function, make_protocol
from commlb.errors import (
    CapacityError,
    ConditioningError,
    DimensionError,
    ParameterError,
)
from commlb.protocol import Leaf, Node, ProtocolTree, factorization, information_cost

UNIFORM_2x2 = InputDistribution(
    ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)))
)

ONE = Fraction(1)


def _trivial_inputs(delta_exp=1) -> ExperimentInputs:
    return ExperimentInputs((ONE,), (ONE,), (ONE,), (ONE,), delta_exp)


# ---------------------------------------------------------------------------
# Single sampling experiment
# ---------------------------------------------------------------------------


def test_experiment_inputs_validation():
    with pytest.raises(ParameterError):
        ExperimentInputs((ONE,), (ONE,), (ONE,), (ONE,), 0)
    with pytest.raises(ParameterError):
        # p_a*p_b sums to 1/2, not 1
        ExperimentInputs((Fraction(1, 2),), (ONE,), (ONE,), (ONE,), 1)
    with pytest.raises(DimensionError):
        ExperimentInputs((ONE,), (ONE, ONE), (ONE,), (ONE,), 1)
    for factor in (Fraction(3, 2), Fraction(-1, 2), 1.5):
        with pytest.raises(ParameterError):
            ExperimentInputs((ONE,), (factor,), (ONE,), (ONE,), 1)
    # A float product sum passes within 1e-9 of 1 and fails past it; an
    # exact one must be 1 exactly.
    half = (0.5, 0.5)
    ExperimentInputs(half, (1.0, 1.0), (1.0, 1.0 - 1e-10), half, 1)
    with pytest.raises(ParameterError):
        ExperimentInputs(half, (1.0, 1.0), (1.0, 1.0 - 1e-8), half, 1)
    with pytest.raises(ParameterError):
        ExperimentInputs(half, (1.0, 1.0), (1.0, 1.0), (0.5, 0.5 - 1e-8), 1)
    exact_half = (Fraction(1, 2),) * 2
    with pytest.raises(ParameterError):
        ExperimentInputs(exact_half, (ONE, ONE), (ONE, ONE - Fraction(1, 10**12)),
                         exact_half, 1)


def test_experiment_probabilities_point_universe():
    table = experiment_probabilities(_trivial_inputs(1))
    assert table.both == (Fraction(1, 4),)
    assert table.alice_only == (Fraction(1, 4),)
    assert table.bob_only == (Fraction(1, 4),)
    assert table.neither == Fraction(1, 4)
    assert table.alice_accept_total() == Fraction(1, 2)
    assert table.accepted_distribution().weights == (1,)


def test_alice_accept_identity_exact():
    # Sum of Alice-accept probabilities is exactly 1 / (|U| * 2**delta_exp).
    rng = random.Random(23)
    for _ in range(20):
        size = rng.randint(1, 4)
        delta_exp = rng.randint(1, 6)
        # Build exact factor pairs: tau = p_a * p_b with p_b = tau / p_a.
        raw = [Fraction(rng.randint(1, 8)) for _ in range(size)]
        tau = [r / sum(raw) for r in raw]
        p_a = [min(1, t + Fraction(rng.randint(0, 4), 8) * (1 - t)) for t in tau]
        p_b = [t / a for t, a in zip(tau, p_a)]
        q_a = [t / a for t, a in zip(tau, p_a)]
        q_b = [t / b for t, b in zip(tau, p_b)]
        inp = ExperimentInputs(tuple(p_a), tuple(q_a), tuple(p_b), tuple(q_b), delta_exp)
        table = experiment_probabilities(inp)
        assert table.alice_accept_total() == Fraction(1, size * 2**delta_exp)
        # Both-accept never exceeds the hashing-scale budget.
        assert sum(table.both) <= Fraction(1, size * 4**delta_exp)


def _run_experiment(inp: ExperimentInputs, rng: np.random.Generator) -> str:
    """One experiment drawn directly from its definition: u uniform, alpha
    and beta uniform on [0, 2**delta_exp]; its category."""
    scale = 2.0 ** inp.delta_exp
    u = int(rng.integers(inp.universe_size))
    alpha = rng.random() * scale
    beta = rng.random() * scale
    alice = alpha <= float(inp.p_a[u]) and beta <= scale * float(inp.q_a[u])
    bob = alpha <= scale * float(inp.q_b[u]) and beta <= float(inp.p_b[u])
    if alice and bob:
        return "both"
    return "alice_only" if alice else "bob_only" if bob else "neither"


def test_run_experiment_matches_table():
    inp = _trivial_inputs(1)
    table = experiment_probabilities(inp)
    rng = _seeded_rng(42)
    counts = {"both": 0, "alice_only": 0, "bob_only": 0, "neither": 0}
    n = 40_000
    for _ in range(n):
        counts[_run_experiment(inp, rng)] += 1
    for kind, p in (("both", sum(table.both)), ("alice_only", sum(table.alice_only)),
                    ("bob_only", sum(table.bob_only)), ("neither", table.neither)):
        # each category has probability 1/4; 5 sigma band
        assert p == Fraction(1, 4)
        assert abs(counts[kind] / n - 0.25) < 5 * math.sqrt(0.25 * 0.75 / n)


def test_accepted_distribution_requires_acceptance():
    # Alice's estimate vanishes wherever Bob's factor lives, so the two
    # parties never accept the same sample.
    zero = Fraction(0)
    table = experiment_probabilities(
        ExperimentInputs((ONE, ONE), (zero, ONE), (ONE, zero), (ONE, zero), 1)
    )
    assert sum(table.both) == 0
    with pytest.raises(ConditioningError):
        table.accepted_distribution()


def test_float_table_refuses_a_scale_square_past_the_float_range():
    # S^2 = 2^1024 with float factors: no float64 both-accept mass.
    with pytest.raises(CapacityError, match="2\\^\\(2 delta_exp\\)"):
        experiment_probabilities(ExperimentInputs((1.0,), (1.0,), (1.0,), (1.0,), 512))


# ---------------------------------------------------------------------------
# Parameter derivation
# ---------------------------------------------------------------------------


def test_parameters_pinned_small():
    p = compression_parameters(0.9, 0.01, 2)
    assert (p.delta_exp, p.trials, p.hash_bits) == (5, 140, 14)
    assert p.lambda_exponent == 19
    assert p.lambda_exact == Fraction(1, 2**19)
    assert p.lambda_ == math.ldexp(1.0, -19)
    assert p.mode == "paper-exact"


def test_parameters_delta_exp_growth():
    assert compression_parameters(0.5, 1.0, 1).delta_exp == 136


def test_parameters_overrides():
    p = compression_parameters(0.5, 1.0, 1, overrides=(3, 30, 2))
    assert (p.delta_exp, p.trials, p.hash_bits) == (3, 30, 2)
    assert p.mode == "override"
    assert p.lambda_exact == Fraction(1, 32)


def test_parameters_validation():
    with pytest.raises(ParameterError):
        compression_parameters(1.5, 1.0, 1)
    with pytest.raises(ParameterError):
        compression_parameters(0.5, -1.0, 1)
    with pytest.raises(ParameterError):
        compression_parameters(0.5, 1.0, 0)
    with pytest.raises(ParameterError):
        compression_parameters(0.5, 1.0, 1, overrides=(0, 1, 0))
    for fields in ((0.5, 1.0, 1, 0, 0), (1.0, 1.0, 1, 1, 0), (0.0, 1.0, 1, 1, 0),
                   (0.5, -1.0, 1, 1, 0), (0.5, 1.0, 0, 1, 0), (0.5, 1.0, 1, 1, -1)):
        with pytest.raises(ParameterError):
            CompressionParameters(*fields, "override")


# ---------------------------------------------------------------------------
# Exact law: closed cases and a brute-force oracle
# ---------------------------------------------------------------------------


def _categories(pi, mu, x, y, params):
    """Per-output-value category probabilities, as floats."""
    inp = ExperimentInputs.from_factorization(
        factorization(pi, mu, x, y), params.delta_exp
    )
    table = experiment_probabilities(inp)
    outputs = pi.leaf_outputs()
    nz = pi.z_size
    both = [0.0] * nz
    aonly = [0.0] * nz
    bonly = [0.0] * nz
    for u, z in enumerate(outputs):
        both[z] += float(table.both[u])
        aonly[z] += float(table.alice_only[u])
        bonly[z] += float(table.bob_only[u])
    return both, aonly, bonly


def _brute_force_law(both, aonly, bonly, trials, hash_bits, nz):
    """Enumerate every per-trial (category, hash-match) assignment."""
    rho = math.ldexp(1.0, -hash_bits)
    cats = (
        [("b", z, both[z]) for z in range(nz)]
        + [("a", z, aonly[z]) for z in range(nz)]
        + [("o", z, bonly[z]) for z in range(nz)]
        + [("n", None, 1.0 - sum(both) - sum(aonly) - sum(bonly))]
    )
    out = [0.0] * nz
    abort = 0.0
    for assignment in itertools.product(cats, repeat=trials):
        for matches in itertools.product((True, False), repeat=trials):
            p = 1.0
            for (_, _, cp), m in zip(assignment, matches):
                p *= cp * (rho if m else 1.0 - rho)
            if p == 0.0:
                continue
            a_out = BOT
            for (kind, z, _), m in zip(assignment, matches):
                if kind in ("b", "a"):
                    a_out = z if m else BOT
                    break
            b_out = BOT
            for (kind, z, _), m in zip(assignment, matches):
                if kind in ("b", "o") and m:
                    b_out = z
                    break
            if a_out != BOT and a_out == b_out:
                out[a_out] += p
            else:
                abort += p
    return out, abort


@pytest.mark.parametrize("trials,hash_bits", [(1, 0), (2, 1), (3, 2), (4, 1)])
def test_dp_matches_brute_force(trials, hash_bits):
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, trials, hash_bits))
    for x, y in ((0, 0), (1, 0)):
        law = exact_output_distribution(pi, UNIFORM_2x2, x, y, params)
        both, aonly, bonly = _categories(pi, UNIFORM_2x2, x, y, params)
        out, abort = _brute_force_law(both, aonly, bonly, trials, hash_bits, 2)
        assert law.output == pytest.approx(tuple(out), abs=1e-12)
        assert law.abort == pytest.approx(abort, abs=1e-12)
        assert law.not_abort + law.abort == pytest.approx(1.0, abs=1e-12)


def test_single_trial_law_closed_form():
    # With T=1 and hash_bits=0 the run outputs z exactly when the one trial
    # lands in the both-accept category for z.
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 1, 0))
    both, _, _ = _categories(pi, UNIFORM_2x2, 0, 0, params)
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 0, params)
    assert law.output == pytest.approx(tuple(both), abs=1e-15)


def test_dp_caps_enforced():
    pi = make_protocol("trivial_const")
    params = compression_parameters(0.5, 1.0, 1, overrides=(1, 10_000, 2))
    with pytest.raises(CapacityError):
        exact_output_distribution(pi, UNIFORM_2x2, 0, 0, params)


def _linear_dp_law(both_z, aonly_z, bonly_z, trials, hash_bits, nz):
    """Reference: step the (Alice, Bob) state law through the T trials one at
    a time.  Returns (output, abort, alice law, bob law), BOT last."""
    pending, aborted, searching = -2, -1, -2
    rho = math.ldexp(1.0, -hash_bits)
    alice_any = sum(both_z) + sum(aonly_z)
    bob_any_z = [b + o for b, o in zip(both_z, bonly_z)]
    bob_any = sum(bob_any_z)
    state = {(pending, searching): 1.0}
    for _ in range(trials):
        nxt = {}

        def add(key, p):
            if p:
                nxt[key] = nxt.get(key, 0.0) + p

        for (a, b), p in state.items():
            if a != pending and b != searching:
                add((a, b), p)
                continue
            if a == pending and b == searching:
                for z in range(nz):
                    add((z, z), p * both_z[z] * rho)
                    add((z, searching), p * aonly_z[z] * rho)
                    add((pending, z), p * bonly_z[z] * rho)
                add((aborted, searching), p * alice_any * (1.0 - rho))
                stay_p = 1.0 - alice_any - bob_any + sum(both_z)
                stay_p += sum(bonly_z) * (1.0 - rho)
                add((pending, searching), p * stay_p)
            elif a == pending:
                for z in range(nz):
                    add((z, b), p * (both_z[z] + aonly_z[z]) * rho)
                add((aborted, b), p * alice_any * (1.0 - rho))
                add((pending, b), p * (1.0 - alice_any))
            else:
                for z in range(nz):
                    add((a, z), p * bob_any_z[z] * rho)
                add((a, searching), p * (1.0 - bob_any * rho))
        state = nxt
    output = [0.0] * nz
    alice_law = [0.0] * (nz + 1)
    bob_law = [0.0] * (nz + 1)
    for (a, b), p in state.items():
        alice_law[a if a >= 0 else nz] += p
        bob_law[b if b >= 0 else nz] += p
        if a >= 0 and a == b:
            output[a] += p
    return output, 1.0 - sum(output), alice_law, bob_law


@pytest.mark.parametrize("nz", [1, 2, 3, 16])
@pytest.mark.parametrize("hash_bits", [0, 1, 3])
def test_dp_matches_linear_reference(nz, hash_bits):
    rng = random.Random(100 * nz + hash_bits)
    for trials in (1, 2, 7, 64, rng.randint(100, 500), 500):
        # Category mass from nearly nothing to nearly everything.
        mass = rng.choice((1e-6, 0.01, rng.random(), 0.999))
        raw = [rng.random() for _ in range(3 * nz)]
        scaled = [mass * r / sum(raw) for r in raw]
        both, aonly, bonly = scaled[:nz], scaled[nz:2 * nz], scaled[2 * nz:]
        params = compression_parameters(0.5, 1.0, 1, overrides=(1, trials, hash_bits))
        (law,) = _dp_law([(both, aonly, bonly)], params)
        out, abort, alice, bob = _linear_dp_law(both, aonly, bonly, trials, hash_bits, nz)
        # Output probabilities and both laws, BOT included, agree relatively;
        # abort is a complement of a mass near 1, so it agrees to 1e-12
        # absolutely.
        assert law.output == pytest.approx(tuple(out), rel=1e-12, abs=0)
        assert law.alice_output == pytest.approx(tuple(alice), rel=1e-12, abs=0)
        assert law.bob_output == pytest.approx(tuple(bob), rel=1e-12, abs=0)
        assert law.abort == pytest.approx(abort, rel=0, abs=1e-12)


def test_dp_tiny_bot_entries():
    # With hash_bits = 0 and T = 406 both parties almost surely output a
    # value: BOT has probability about 1e-60, which a complement of a mass
    # near 1 reads as 0.
    nz, trials = 3, 406
    both, aonly, bonly = ([0.43 / 9] * nz for _ in range(3))
    params = compression_parameters(0.5, 1.0, 1, overrides=(1, trials, 0))
    (law,) = _dp_law([(both, aonly, bonly)], params)
    _, _, alice, bob = _linear_dp_law(both, aonly, bonly, trials, 0, nz)
    assert 0 < alice[nz] < 1e-50 and 0 < bob[nz] < 1e-50
    assert law.alice_output[nz] == pytest.approx(alice[nz], rel=1e-12, abs=0)
    assert law.bob_output[nz] == pytest.approx(bob[nz], rel=1e-12, abs=0)


def test_dp_size_follows_leaf_outputs_not_z_size():
    # Two leaves under a declared z_size of 200: the chain runs over the two
    # values the leaves output, and the law is scattered back onto Z.
    pi = ProtocolTree(Node("A", (0.25, 0.75), Leaf(17), Leaf(150)), 2, 2, 200)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 64, 2))
    both, aonly, bonly = _categories(pi, UNIFORM_2x2, 0, 1, params)
    out, abort, alice, bob = _linear_dp_law(both, aonly, bonly, 64, 2, 200)
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params)
    assert (len(law.output), len(law.alice_output), len(law.bob_output)) == (200, 201, 201)
    assert law.output == pytest.approx(tuple(out), rel=1e-12, abs=0)
    assert law.alice_output[:200] == pytest.approx(tuple(alice[:200]), rel=1e-12, abs=0)
    assert law.bob_output[:200] == pytest.approx(tuple(bob[:200]), rel=1e-12, abs=0)
    assert law.abort == pytest.approx(abort, rel=0, abs=1e-12)
    assert law.alice_output[200] == pytest.approx(alice[200], rel=1e-12, abs=0)
    assert law.bob_output[200] == pytest.approx(bob[200], rel=1e-12, abs=0)

    big = compression_parameters(0.5, 1.0, 2, overrides=(2, 10**10, 2))
    caps = default_caps().with_overrides(dp_trials=big.trials)
    start = time.perf_counter()
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 1, big, caps)
    assert time.perf_counter() - start < 1.0
    assert sum(law.alice_output) == pytest.approx(1.0, abs=1e-12)
    assert sum(law.bob_output) == pytest.approx(1.0, abs=1e-12)


def _paper_exact(delta, flip=0.25):
    pi = make_protocol("noisy_bit", flip=flip)
    ic = information_cost(pi, UNIFORM_2x2)
    params = compression_parameters(delta, ic, pi.universe_size)
    return pi, params, default_caps().with_overrides(dp_trials=params.trials)


@pytest.mark.parametrize("delta", [0.9, 0.7, 0.5])
def test_dp_marginals_closed_form_paper_exact(delta):
    # Alice outputs the first trial she accepts when its hash matches; Bob
    # outputs the first trial he accepts whose hash matches.  With a = Pr[Alice
    # accepts a trial] and b = Pr[Bob does]:
    #   Pr[A=z] = (a_z/a) rho (1 - (1-a)^T),  Pr[B=z] = (b_z/b) (1 - (1-b rho)^T).
    pi, params, caps = _paper_exact(delta)
    rho = math.ldexp(1.0, -params.hash_bits)
    trials = params.trials
    for x, y in ((0, 0), (0, 1), (1, 0)):
        both, aonly, bonly = _categories(pi, UNIFORM_2x2, x, y, params)
        a_z = [p + q for p, q in zip(both, aonly)]
        b_z = [p + q for p, q in zip(both, bonly)]
        a, b = sum(a_z), sum(b_z)
        alice_hit = -math.expm1(trials * math.log1p(-a))
        bob_hit = -math.expm1(trials * math.log1p(-b * rho))
        law = exact_output_distribution(pi, UNIFORM_2x2, x, y, params, caps)
        alice = [az / a * rho * alice_hit for az in a_z]
        bob = [bz / b * bob_hit for bz in b_z]
        assert law.alice_output[:2] == pytest.approx(tuple(alice), rel=1e-12, abs=0)
        assert law.bob_output[:2] == pytest.approx(tuple(bob), rel=1e-12, abs=0)


def _decimal_collision(q: float, trials: int) -> float:
    """Pr[Binomial(trials, q) >= 2] by the direct form at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        dq = Decimal(q)
        miss = 1 - dq
        value = 1 - miss**trials - trials * dq * miss ** (trials - 1)
        return float(value)


@pytest.mark.parametrize("delta", [0.9, 0.7, 0.5, None])
def test_collision_matches_decimal_reference(delta):
    if delta is None:  # T q >= 1: the direct form
        pi = make_protocol("noisy_bit", flip=0.25)
        params = compression_parameters(0.5, 1.0, 2, overrides=(2, 400, 0))
        caps = None
    else:  # T q << 1: the binomial tail
        pi, params, caps = _paper_exact(delta)
    both, aonly, bonly = _categories(pi, UNIFORM_2x2, 0, 1, params)
    q = (sum(both) + sum(aonly) + sum(bonly)) * math.ldexp(1.0, -params.hash_bits)
    expected = _decimal_collision(q, params.trials)
    assert expected > 0
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params, caps)
    assert law.collision == pytest.approx(expected, rel=1e-9, abs=0)


def test_collision_past_the_float_range_of_t_squared():
    # At T = 10^200, T^2 / 2 is past the float range, but lambda = 2^-701 and
    # the collision probability, about (T q)^2 / 2, are normal floats.
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(1, 10**200, 700))
    caps = default_caps().with_overrides(dp_trials=params.trials)
    both, aonly, bonly = _categories(pi, UNIFORM_2x2, 0, 1, params)
    q = (sum(both) + sum(aonly) + sum(bonly)) * math.ldexp(1.0, -params.hash_bits)
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params, caps)
    assert math.isfinite(law.collision) and law.collision > 0
    assert law.collision == pytest.approx((params.trials * q) ** 2 / 2, rel=1e-9, abs=0)
    assert compression._collision(0.0, params.trials) == 0.0


@pytest.mark.parametrize("delta_exp,trials,hash_bits", [
    (1, 10, 1022),        # lambda = 2^-1023: subnormal masses
    (1, 2**1024, 0),      # T past the float range
    (1, 2**1024 - 2**970, 0),  # rounds to 2^1024 as a float
], ids=["lambda", "trials", "trials-rounding"])
def test_dp_refuses_what_float64_cannot_hold(delta_exp, trials, hash_bits):
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(delta_exp, trials, hash_bits))
    caps = default_caps().with_overrides(dp_trials=trials)
    with pytest.raises(CapacityError, match="float64"):
        exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params, caps)


@pytest.mark.parametrize("prot,delta,overrides", [
    ("send_x", 0.3, None),  # both * rho is about 2^-1121
    ("noisy_bit", 0.5, (1, 10, 1021)),  # lambda = 2^-1022, a one-party rate below it
    ("send_x", 0.5, (700, 10, 0)),  # the both-accept mass itself is below 2^-1074
], ids=["send_x-delta0.3", "one-party-rate", "both-mass"])
def test_dp_refuses_a_rate_past_the_float_range(prot, delta, overrides):
    # Every nonzero per-trial rate must be a normal float64, or the chain
    # drops it; lambda itself is within range in all three cases.
    pi = make_protocol(prot) if prot == "send_x" else make_protocol(prot, flip=0.25)
    ic = information_cost(pi, UNIFORM_2x2)
    params = compression_parameters(delta, ic, pi.universe_size, overrides=overrides)
    assert params.lambda_exponent <= 1022
    caps = default_caps().with_overrides(dp_trials=params.trials)
    with pytest.raises(CapacityError, match="per-trial rate"):
        exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params, caps)


def test_dp_keeps_rates_within_the_float_range():
    # At delta 0.35 the smallest rate is about 2^-831: the law is computed,
    # and its mass is close to lambda.
    pi = make_protocol("send_x")
    params = compression_parameters(0.35, information_cost(pi, UNIFORM_2x2), pi.universe_size)
    caps = default_caps().with_overrides(dp_trials=params.trials)
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params, caps)
    assert law.not_abort / params.lambda_ == pytest.approx(0.95698, abs=1e-5)


@pytest.mark.parametrize("delta", [0.7, 0.5])
def test_verify_compression_paper_exact_small_delta(delta):
    # T = 2,554,454 at delta 0.7 and 47,632,711,550 at delta 0.5.
    pi, params, caps = _paper_exact(delta)
    f = make_function("EQ,1")
    start = time.perf_counter()
    report = verify_compression(pi, f, UNIFORM_2x2, delta, params, caps=caps)
    assert time.perf_counter() - start < 1.0
    assert report.all_pass
    assert report.collision_bound_pass is True


def test_verify_compression_paper_exact_on_a_64_element_universe():
    # GHD,3,1 under exchange_all: |U| = 64, IC = 6 bits and T near 2^249,
    # one four-state chain per output value.
    f = make_function("GHD,3,1")
    pi = make_protocol("exchange_all", f=f)
    mu = make_distribution("uniform", f)
    params = compression_parameters(0.9, information_cost(pi, mu), pi.universe_size)
    assert pi.universe_size == 64 and params.trials.bit_length() == 250
    caps = default_caps().with_overrides(dp_trials=params.trials)
    report = verify_compression(pi, f, mu, 0.9, params, caps=caps)
    assert report.all_pass
    assert report.collision_bound_pass is True


# ---------------------------------------------------------------------------
# Scalar runs and the Monte Carlo engine
# ---------------------------------------------------------------------------


def test_run_zero_comm_deterministic():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 20, 2))
    outs = [run_zero_comm(pi, UNIFORM_2x2, 0, 1, params, seed=s) for s in range(8)]
    assert outs == [run_zero_comm(pi, UNIFORM_2x2, 0, 1, params, seed=s) for s in range(8)]
    assert set(outs) <= {BOT, 0, 1}


def test_run_zero_comm_memoizes_the_factorization(monkeypatch):
    calls, conversions = [], []
    monkeypatch.setattr(compression, "factorization",
                        lambda *args: calls.append(args) or factorization(*args))
    monkeypatch.setattr(compression, "_thresholds",
                        lambda probs: conversions.append(probs) or _thresholds(probs))
    pi = make_protocol("noisy_bit", flip=Fraction(1, 4))
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 20, 1))
    # The exact law here is (0.160, 0.058) over z = (0, 1) and 0.781 on BOT,
    # so 100 runs all give one output with probability below 0.79**100 + 0.17**100
    # + 0.06**100 < 1e-10.
    outs = [run_zero_comm(pi, UNIFORM_2x2, 0, 1, params, seed=s) for s in range(100)]
    assert len(calls) == 1 and len(set(outs)) > 1
    # The cell's threshold rows are converted once, on the first run.
    assert len(conversions) == 1
    run_zero_comm(pi, UNIFORM_2x2, 1, 1, params, seed=0)
    assert len(calls) == len(conversions) == 2
    cell = compression._experiment_cell
    exact = cell(compression._Same(pi, UNIFORM_2x2), 0, 1, params.delta_exp)[0]
    assert exact == ExperimentInputs.from_factorization(factorization(pi, UNIFORM_2x2, 0, 1), 2)
    # Equal in value but not in number type: the float input gets its own
    # factors, not the exact ones.
    float_mu = InputDistribution(((0.25, 0.25), (0.25, 0.25)))
    assert float_mu == UNIFORM_2x2
    rounded = cell(compression._Same(pi, float_mu), 0, 1, params.delta_exp)[0]
    assert len(calls) == 3
    assert all(isinstance(v, Fraction) for v in exact.q_a)
    assert all(isinstance(v, float) for v in rounded.q_a)


def test_run_zero_comm_frequencies_match_dp():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 12, 1))
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 0, params)
    n = 3000
    counts = [0, 0, 0]  # z=0, z=1, BOT
    for s in range(n):
        out = run_zero_comm(pi, UNIFORM_2x2, 0, 0, params, seed=s)
        counts[2 if out == BOT else out] += 1
    expect = [law.output[0], law.output[1], law.abort]
    for got, p in zip(counts, expect):
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(got / n - p) < 5 * se + 1e-9


def test_mc_matches_dp():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 15, 1))
    law = exact_output_distribution(pi, UNIFORM_2x2, 1, 1, params)
    mc = mc_output_distribution(pi, UNIFORM_2x2, 1, 1, params, samples=200_000, seed=5)
    freqs = mc.frequencies
    assert sum(mc.counts) == mc.samples
    expect = list(law.output) + [law.abort]
    for got, p in zip(freqs, expect):
        se = math.sqrt(max(p * (1 - p), 1e-12) / mc.samples)
        assert abs(got - p) < 5 * se + 1e-9
    assert mc.max_standard_error() > 0


def test_mc_matches_dp_sparse_regime():
    # At delta_exp 6 about 3.9 % of the trials are near, so a cut that
    # dropped accepting trials would show in the law here.
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(6, 200, 2))
    laws = _mc_laws(pi, UNIFORM_2x2, params, [0, 1], [0, 1], 100_000, seed=6)
    for (x, y), mc in laws.items():
        law = exact_output_distribution(pi, UNIFORM_2x2, x, y, params)
        for got, p in zip(mc.frequencies, list(law.output) + [law.abort]):
            se = math.sqrt(max(p * (1 - p), 1e-12) / mc.samples)
            assert abs(got - p) < 5 * se
        assert 0 < mc.candidates < 0.05 * mc.samples * params.trials


def test_mc_matches_dp_when_near_trials_outnumber_candidates():
    # At delta_exp 9 both cuts are below 2**24, so every trial with a zero
    # top byte is near: 1 - (255/256)**2 = 0.78 % of the trials, against
    # 0.34 % whose coins are at most their cuts.  u and the hash are drawn at
    # all of them, and the law must not move.
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(9, 4000, 0))
    mc = mc_output_distribution(pi, UNIFORM_2x2, 1, 0, params, samples=10_000, seed=9)
    caps = default_caps().with_overrides(dp_trials=params.trials)
    law = exact_output_distribution(pi, UNIFORM_2x2, 1, 0, params, caps)
    assert 0.4 < law.not_abort < 0.6
    for got, p in zip(mc.frequencies, list(law.output) + [law.abort]):
        assert abs(got - p) < 5 * math.sqrt(p * (1 - p) / mc.samples)
    a_rows, b_rows, *_ = _party_rows(compression._Same(pi, UNIFORM_2x2), (1,), (0,),
                                     params.delta_exp)
    alpha_share = (int(a_rows[0][0].max()) + 1) / 2**32
    beta_share = (int(b_rows[0][1].max()) + 1) / 2**32
    cut_share = 1 - (1 - alpha_share) * (1 - beta_share)
    assert mc.candidates > 2 * cut_share * mc.samples * params.trials


def test_mc_matches_dp_when_most_trials_are_near():
    # At delta_exp 1 the cuts are 3/8 and 1/2 of 2**32, so 1 - (159/256) *
    # (127/256) = 69 % of the trials are near: the compaction keeps most.
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(1, 30, 0))
    mc = mc_output_distribution(pi, UNIFORM_2x2, 0, 1, params, samples=100_000, seed=30)
    law = exact_output_distribution(pi, UNIFORM_2x2, 0, 1, params)
    assert 0.6 < mc.candidates / (mc.samples * params.trials) < 0.75
    for got, p in zip(mc.frequencies, list(law.output) + [law.abort]):
        assert abs(got - p) < 5 * math.sqrt(p * (1 - p) / mc.samples)


def test_mc_memory_bounded_by_trials():
    # Blocks hold at most a fixed number of draws, so paper-exact T does not
    # scale the arrays by the sample count.
    pi, params, _ = _paper_exact(0.9)
    assert params.trials == 17_898
    tracemalloc.start()
    try:
        mc = mc_output_distribution(pi, UNIFORM_2x2, 0, 1, params, samples=500, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(mc.counts) == 500
    assert peak < 160 * 2**20


# ---------------------------------------------------------------------------
# The sampling kernel
# ---------------------------------------------------------------------------


def _coin_threshold(p: float) -> int:
    return min(math.floor(Fraction(p) * 2**32), 2**32 - 1)


def _reference_maps(seed, n, trials, size, hash_bits, a_rows, b_rows, outputs):
    """The party maps by a plain loop over the coins, drawn in the kernel's
    documented order.  First the top bytes of every trial, from a uint8 view
    of raw words: alpha's bytes for all trials, then beta's.  Then, at the
    near trials, where h_alpha <= alpha_cut >> 24 or h_beta <= beta_cut >>
    24, one raw word each, whose uint32 view gives the low 24 bits of alpha
    (first half) and of beta (second half); then, at the same trials, u and
    then the hash-match words.  alpha_cut is the largest alpha threshold of
    any Alice row and beta_cut the largest beta threshold of any Bob row.
    Rows are [alpha thresholds, beta thresholds] over u, as integers."""
    rng = _seeded_rng(seed)
    count = n * trials
    tops = rng.bit_generator.random_raw(-(-2 * count // 8)).view(np.uint8).tolist()
    top_alpha, top_beta = tops[:count], tops[count:2 * count]
    alpha_cut = max(max(t_alpha) for t_alpha, _ in a_rows)
    beta_cut = max(max(t_beta) for _, t_beta in b_rows)
    near = [k for k in range(count)
            if top_alpha[k] <= alpha_cut // 2**24 or top_beta[k] <= beta_cut // 2**24]
    lows = rng.bit_generator.random_raw(len(near)).view(np.uint32).tolist()
    u = rng.integers(0, size, size=len(near), dtype=np.min_scalar_type(size - 1)).tolist()
    match = [True] * len(near)
    for done in range(0, hash_bits, 64):
        bits = min(hash_bits - done, 64)
        dtype = np.uint8 if bits <= 8 else np.uint32 if bits <= 32 else np.uint64
        per_draw = 8 // np.dtype(dtype).itemsize
        words = rng.bit_generator.random_raw(-(-len(near) // per_draw)).view(dtype)
        match = [m and w % 2**bits == 0 for m, w in zip(match, words[:len(near)].tolist())]
    # Each run's near trials in trial order, as (alpha, beta, u, match).  A
    # trial that is not near has both top bytes above their cut's, so alpha
    # above every Alice row's alpha threshold and beta above every Bob row's
    # beta threshold: no row accepts it.
    runs = [[] for _ in range(n)]
    for i, k in enumerate(near):
        runs[k // trials].append((top_alpha[k] * 2**24 + lows[i] % 2**24,
                                  top_beta[k] * 2**24 + lows[len(near) + i] % 2**24,
                                  u[i], match[i]))

    a_maps = [[BOT] * len(a_rows) for _ in range(n)]
    b_maps = [[BOT] * len(b_rows) for _ in range(n)]
    for r, coins in enumerate(runs):
        for i, (t_alpha, t_beta) in enumerate(a_rows):
            for alpha, beta, v, hit in coins:
                if alpha <= t_alpha[v] and beta <= t_beta[v]:
                    if hit:
                        a_maps[r][i] = outputs[v]
                    break
        for j, (t_alpha, t_beta) in enumerate(b_rows):
            for alpha, beta, v, hit in coins:
                if hit and alpha <= t_alpha[v] and beta <= t_beta[v]:
                    b_maps[r][j] = outputs[v]
                    break
    return a_maps, b_maps, len(near), max(u, default=0)


def _check_kernel(seed, n, trials, size, hash_bits, a_rows, b_rows, outputs):
    """Run the kernel on one block and assert it equals the loop reference;
    returns the maps, the candidate count and the reference's largest u."""
    a_rows, b_rows = (np.array(rows, dtype=np.uint32) for rows in (a_rows, b_rows))
    params = compression_parameters(0.5, 0.0, size, overrides=(1, trials, hash_bits))
    ((a_maps, b_maps, count),) = _party_maps(_seeded_rng(seed), n, params,
                                             _kernel_setup(a_rows, b_rows, outputs))
    ref_a, ref_b, ref_count, max_u = _reference_maps(
        seed, n, trials, size, hash_bits, a_rows.tolist(), b_rows.tolist(), outputs)
    assert a_maps.tolist() == ref_a
    assert b_maps.tolist() == ref_b
    assert count == ref_count
    return a_maps, b_maps, count, max_u


def test_thresholds_edge_cases():
    got = _thresholds([0.0, 2.0**-40, 0.5, 1 - 2.0**-40, 1.0])
    assert got.dtype == np.uint32
    assert got.tolist() == [0, 0, 2**31, 2**32 - 1, 2**32 - 1]
    rng = random.Random(3)
    probs = [rng.random() for _ in range(1000)]
    for p, t in zip(probs, _thresholds(probs).tolist()):
        # Pr[coin <= t] = (t + 1) / 2**32 lies in [p, p + 2**-32].
        assert 0 <= Fraction(t + 1, 2**32) - Fraction(p) <= Fraction(1, 2**32)


def test_kernel_threshold_extremes():
    # Dense: p = 1 on every u makes every trial near, and each party
    # accepts its first trial.  p = 0: a party accepts only when both its
    # coins are 0, Pr 2**-64 per trial.
    rows = _thresholds([[[1.0] * 3, [1.0] * 3], [[0.0] * 3, [0.0] * 3]])
    n, trials = 2000, 5
    params = compression_parameters(0.5, 0.0, 3, overrides=(1, trials, 0))
    ((a_maps, b_maps, count),) = _party_maps(_seeded_rng(8), n, params,
                                             _kernel_setup(rows, rows, (2, 0, 1)))
    assert count == n * trials
    # Every top byte is at most 255, so every trial gets its low bits before u.
    rng = _seeded_rng(8)
    rng.bit_generator.random_raw(n * trials // 4)
    rng.bit_generator.random_raw(n * trials)
    u = rng.integers(0, 3, size=(n, trials), dtype=np.uint8)
    first = np.array((2, 0, 1))[u[:, 0]]
    assert (a_maps[:, 0] == first).all() and (b_maps[:, 0] == first).all()
    assert (a_maps[:, 1] == BOT).all() and (b_maps[:, 1] == BOT).all()
    # p = 0 on the cut coin of every row: both cuts are 0, so the near
    # trials are those with a zero top byte, about 2/256 of them.  u and the
    # hash are drawn there, and no row accepts any trial.
    rows = _thresholds([[[0.0] * 3, [1.0] * 3]])
    ((a_maps, b_maps, count),) = _party_maps(_seeded_rng(8), n, params,
                                             _kernel_setup(rows, rows[:, ::-1], (2, 0, 1)))
    tops = _seeded_rng(8).bit_generator.random_raw(n * trials // 4).view(np.uint8)
    assert count == ((tops[:n * trials] == 0) | (tops[n * trials:] == 0)).sum() > 0
    assert (a_maps == BOT).all() and (b_maps == BOT).all()


def test_kernel_cut_is_max_over_rows():
    # Sparse rows that differ: Alice's largest alpha threshold sits in her
    # middle row at one u, Bob's largest beta threshold in his last row.  A
    # cut taken from any one row, or from the other coin, draws u at other
    # trials and so gives other maps.
    small, size = _coin_threshold(1 / 64), 3
    a_rows = [[[small] * size, [2**32 - 1] * size],
              [[small, 4 * small, small], [2**32 - 1] * size],
              [[small // 2] * size, [2**31] * size]]
    b_rows = [[[2**31] * size, [small] * size],
              [[2**32 - 1] * size, [small, small, 8 * small]]]
    a_maps, b_maps, count, _ = _check_kernel(21, 3000, 6, size, 1, a_rows, b_rows, (0, 1, 2))
    # The cuts 2**28 and 2**29 have top bytes 16 and 32, so about
    # 1 - (239/256)(223/256) = 18.7 % of the trials are near.
    assert 0.1 < count / (3000 * 6) < 0.2
    # Every row outputs a value in some run.
    assert (a_maps != BOT).any(axis=0).all() and (b_maps != BOT).any(axis=0).all()


@pytest.mark.parametrize("k", [1, 9, 128])
def test_kernel_top_byte_edges(k):
    # Each party's cut sits on a top-byte edge in turn: k * 2**24 - 1 has top
    # byte k - 1, k * 2**24 and k * 2**24 + 1 have top byte k, and 2**32 - 1
    # has 255.  A kernel whose top-byte cut is off by one draws low bits at
    # other trials, and so gives other maps than the reference.
    size, full = 2, 2**32 - 1
    for alpha_cut, beta_cut in [(k * 2**24 - 1, k * 2**24), (k * 2**24, k * 2**24 + 1),
                                (k * 2**24 + 1, k * 2**24 - 1), (k * 2**24, full)]:
        a_rows = [[[alpha_cut, alpha_cut // 3], [full, 2**31]]]
        b_rows = [[[full, 2**31], [beta_cut // 5, beta_cut]],
                  [[full] * size, [beta_cut // 2] * size]]
        _, _, count, _ = _check_kernel(k, 400, 5, size, 1, a_rows, b_rows, (0, 1))
        assert count > 0


@pytest.mark.parametrize(
    "size, hash_bits, trials, n",
    [(3, 0, 6, 600), (4, 3, 8, 600), (300, 1, 4, 600), (5, 9, 10, 4000), (4, 2, 30, 1000),
     (300, 2, 12, 300)],
)
def test_kernel_matches_loop_reference(size, hash_bits, trials, n):
    # Alice's alpha and Bob's beta thresholds are scaled by 1/8, like p/S at
    # delta_exp 3, so that most trials are not near.
    rng = random.Random(size * 100 + hash_bits)

    def row(scaled):
        probs = [[rng.choice((0.0, 1.0, rng.random(), rng.random() / 8)) for _ in range(size)]
                 for _ in range(2)]
        probs[scaled] = [p / 8 for p in probs[scaled]]
        return [[_coin_threshold(p) for p in coin] for coin in probs]

    a_rows = [row(0) for _ in range(3)]
    b_rows = [row(1) for _ in range(2)]
    outputs = [rng.randrange(4) for _ in range(size)]
    a_maps, b_maps, count, max_u = _check_kernel(17, n, trials, size, hash_bits, a_rows, b_rows,
                                                 outputs)
    assert (a_maps != BOT).any() and (b_maps != BOT).any()
    assert 0 < count < n * trials / 4
    if size > 256:
        assert max_u > 255  # the uint16 u dtype reaches past a byte


def _random_kernel_case(rng):
    """Kernel arguments with |U| up to 300 and thresholds that mix 0,
    2**32 - 1, sparse values below 2**32 >> d and any uint32."""
    size = rng.choice((1, 2, 3, rng.randrange(1, 301)))
    sparse = rng.randrange(9)

    def threshold():
        return rng.choice((0, 2**32 - 1, rng.randrange(2**32 >> sparse), rng.randrange(2**32)))

    def rows():
        return [[[threshold() for _ in range(size)] for _ in range(2)]
                for _ in range(rng.randrange(1, 4))]

    return (rng.randrange(2**32), rng.randrange(1, 40), rng.randrange(1, 13), size,
            rng.choice((0, 3, 9, 40, 70)), rows(), rows(),
            [rng.randrange(5) for _ in range(size)])


def test_seeded_kernel_property():
    rng = random.Random(20120406)
    counts = [_check_kernel(*_random_kernel_case(rng))[2] for _ in range(60)]
    assert min(counts) == 0 and max(counts) > 0


def test_hypothesis_kernel_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False))
    def check(rng):
        _check_kernel(*_random_kernel_case(rng))

    check()


class _Words:
    """A stand-in bit generator that hands out fixed raw uint64 words."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random_raw(self, count):
        words = np.asarray(self.draws.pop(0), dtype=np.uint64)
        assert len(words) == count
        return words


def test_hash_match_word_layout():
    assert _hash_match(_Words(), 4, 0).tolist() == [True] * 4
    # <= 8 bits: one byte per trial, 8 trials per raw word.
    data = np.array([8, 1, 0, 7, 16, 255, 24, 4, 0, 3] + [0] * 6, dtype=np.uint8)
    got = _hash_match(_Words(data.view(np.uint64)), 10, 3)
    assert got.tolist() == [True, False, True, False, True, False, True, False, True, False]
    # <= 32 bits: one uint32 half per trial.
    data = np.array([4096, 4095, 0, 7], dtype=np.uint32)
    assert _hash_match(_Words(data.view(np.uint64)), 3, 12).tolist() == [True, False, True]
    # Up to 64 bits: one raw word per trial.
    assert _hash_match(_Words([2**40, 2**40 - 1]), 2, 40).tolist() == [True, False]
    # Beyond 64: a whole zero word, then the remaining bits of a further draw.
    tail = np.array([64, 1] + [0] * 6, dtype=np.uint8).view(np.uint64)
    assert _hash_match(_Words([0, 0], tail), 2, 70).tolist() == [True, False]
    assert _hash_match(_Words([0, 5], tail), 2, 70).tolist() == [True, False]


def test_first_per_run_matches_a_loop():
    # The first hit of each run, by a plain loop over sorted run indices, on
    # empty and full hit masks, one hit, one run, and hit densities from 0.02
    # to 0.9.
    def reference(hit, run):
        firsts = {}
        for k, (h, r) in enumerate(zip(hit.tolist(), run.tolist())):
            if h and r not in firsts:
                firsts[r] = k
        return list(firsts), list(firsts.values())

    rng = np.random.default_rng(27)
    run = np.sort(rng.integers(0, 300, size=2000))
    cases = [(np.zeros(2000, dtype=bool), run), (np.ones(2000, dtype=bool), run),
             (rng.random(50) < 0.5, np.full(50, 7)), (np.zeros(0, dtype=bool), run[:0]),
             (np.arange(2000) == 1234, run)]
    cases += [(rng.random(2000) < density, run) for density in (0.02, 0.1, 0.5, 0.9)]
    for hit, run in cases:
        runs, pos = _first_per_run(hit, run)
        assert (runs.tolist(), pos.tolist()) == reference(hit, run)


def test_mc_cell_counts_equal_all_cells_block(monkeypatch):
    # A small block size makes the runs span many blocks.
    monkeypatch.setattr(compression, "_CHUNK_ELEMENTS", 1000)
    pi = make_protocol("and_protocol")  # both parties' rows differ by input
    params = compression_parameters(0.5, 1.0, pi.universe_size, overrides=(2, 15, 1))
    block = _mc_laws(pi, UNIFORM_2x2, params, [0, 1], [0, 1], 20_000, seed=11)
    report = verify_compression(pi, None, UNIFORM_2x2, 0.5, params, engine="mc",
                                mc_samples=20_000, seed=11)
    for rep in report.inputs:
        one = mc_output_distribution(pi, UNIFORM_2x2, rep.x, rep.y, params, 20_000, seed=11)
        assert one.counts == block[(rep.x, rep.y)].counts
        assert rep.not_abort == sum(c / 20_000 for c in one.counts[:-1])
    assert len(report.inputs) == 4


def test_mc_needs_a_sample():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 10, 1))
    for samples in (0, -5):
        with pytest.raises(ParameterError, match="at least one sample"):
            mc_output_distribution(pi, UNIFORM_2x2, 0, 1, params, samples, seed=0)
        with pytest.raises(ParameterError, match="at least one sample"):
            verify_compression(pi, None, UNIFORM_2x2, 0.5, params, engine="mc",
                               mc_samples=samples)


def test_mc_refuses_a_run_past_one_block(monkeypatch):
    # A run must fit in one block of _CHUNK_ELEMENTS trials; a small block
    # size tests the rule without drawing a large T.
    monkeypatch.setattr(compression, "_CHUNK_ELEMENTS", 1000)
    pi = make_protocol("noisy_bit", flip=0.25)
    f = make_function("EQ,1")
    fits = compression_parameters(0.5, 1.0, 2, overrides=(2, 1000, 1))
    assert sum(mc_output_distribution(pi, UNIFORM_2x2, 0, 1, fits, 3, seed=0).counts) == 3
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 1001, 1))
    rows = _thresholds([[[1.0, 1.0], [1.0, 1.0]]])
    # _Words holds no draws, so any draw fails with IndexError, not the refusal.
    blocks = _party_maps(SimpleNamespace(bit_generator=_Words()), 1, params,
                         _kernel_setup(rows, rows, (0, 1)))
    with pytest.raises(CapacityError, match="MC block"):
        next(blocks)
    for call in (lambda: mc_output_distribution(pi, UNIFORM_2x2, 0, 1, params, 3, seed=0),
                 lambda: run_zero_comm(pi, UNIFORM_2x2, 0, 1, params, seed=0),
                 lambda: extract_strategy(pi, f, UNIFORM_2x2, 0.5, params, 3)):
        with pytest.raises(CapacityError, match="MC block"):
            call()


def test_run_zero_comm_is_one_run_of_the_kernel():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 12, 1))
    outs = set()
    for s in range(40):
        out = run_zero_comm(pi, UNIFORM_2x2, 1, 0, params, seed=s)
        mc = mc_output_distribution(pi, UNIFORM_2x2, 1, 0, params, samples=1, seed=s)
        assert mc.counts[pi.z_size if out == BOT else out] == 1
        outs.add(out)
    assert len(outs) > 1


# ---------------------------------------------------------------------------
# Compression verification
# ---------------------------------------------------------------------------


def test_verify_compression_paper_exact_trivial_protocol():
    pi = make_protocol("trivial_const")
    params = compression_parameters(0.9, 0.0, pi.universe_size)
    assert (params.delta_exp, params.trials, params.hash_bits) == (5, 70, 14)
    report = verify_compression(pi, None, UNIFORM_2x2, 0.9, params)
    assert report.all_pass
    assert report.collision_bound_pass
    lam = params.lambda_
    assert (1 - 0.9) * lam <= report.aggregate_not_abort <= (1 + 0.9) * lam
    assert report.eq4_distance <= 0.9


def test_verify_compression_mc_reports_no_collision_result():
    # MC computes no collision mass (each input's is NaN), so even at
    # paper-exact parameters it reports no collision-bound result.
    pi = make_protocol("trivial_const")
    params = compression_parameters(0.9, 0.0, pi.universe_size)
    assert params.mode == "paper-exact"
    report = verify_compression(pi, make_function("CONST,1"), UNIFORM_2x2, 0.9, params,
                                engine="mc", mc_samples=1000)
    assert all(math.isnan(r.collision) for r in report.inputs)
    assert report.collision_bound_pass is None


def test_verify_compression_override_informational():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 10, 1))
    report = verify_compression(pi, None, UNIFORM_2x2, 0.5, params)
    assert report.collision_bound_pass is None
    assert len(report.inputs) == 4
    rows = report.csv_rows()
    assert rows[0].startswith("# engine=dp mode=override")
    assert rows[1] == "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass"
    assert rows[-1].startswith("eq4,")
    assert rows[-2].startswith("aggregate,")


def test_csv_header_names_the_mc_stream():
    # The MC header ends with the generator the kernel draws from; the DP
    # header and the columns name none.
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 1.0, 2, overrides=(2, 10, 1))
    dp = verify_compression(pi, None, UNIFORM_2x2, 0.5, params).csv_rows()
    mc = verify_compression(pi, None, UNIFORM_2x2, 0.5, params, engine="mc",
                            mc_samples=1000).csv_rows()
    assert dp[0] == ("# engine=dp mode=override delta=0.5 delta_exp=2 trials=10 hash_bits=1 "
                     "lambda=0.125")
    assert mc[0] == dp[0].replace("engine=dp", "engine=mc") + " rng=SFC64"
    assert mc[1] == dp[1] and len(mc) == len(dp)


def test_verify_compression_skips_zero_marginals():
    pi = make_protocol("trivial_const")
    mu = InputDistribution(((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0))))
    params = compression_parameters(0.9, 0.0, 1)
    report = verify_compression(pi, None, mu, 0.9, params)
    assert {(r.x, r.y) for r in report.inputs} == {(0, 0), (0, 1)}


def test_verify_compression_rejects_bad_delta():
    pi = make_protocol("trivial_const")
    params = compression_parameters(0.9, 0.0, 1)
    with pytest.raises(ParameterError):
        verify_compression(pi, None, UNIFORM_2x2, 1.0, params)


@pytest.mark.parametrize("engine", ["MC", "exact", None])
def test_verify_compression_rejects_an_unknown_engine(monkeypatch, engine):
    # Refused by name before any law is computed, not an UnboundLocalError.
    def no_law(*args, **kwargs):
        raise AssertionError("a law was computed")

    monkeypatch.setattr(compression, "exact_output_distribution", no_law)
    monkeypatch.setattr(compression, "_exact_laws", no_law)
    monkeypatch.setattr(compression, "_mc_laws", no_law)
    pi = make_protocol("trivial_const")
    params = compression_parameters(0.9, 0.0, 1)
    with pytest.raises(ParameterError, match=repr(engine)):
        verify_compression(pi, None, UNIFORM_2x2, 0.9, params, engine=engine)


def _all_cells_cases():
    for label, f, mu, pi in corpus_triples():
        ic = information_cost(pi, mu)
        for delta in (0.9, 0.7, 0.5):
            yield f"{label}@{delta}", f, mu, pi, delta, compression_parameters(
                delta, ic, pi.universe_size)
    eq1 = make_function("EQ,1")
    mu = make_distribution("uniform", eq1)
    pi = make_protocol("noisy_bit", flip=0.25)
    ic = information_cost(pi, mu)
    for overrides in ((1, 30, 0), (3, 30, 2), (6, 500, 40)):
        yield f"noisy_bit,0.25@{overrides}", eq1, mu, pi, 0.5, compression_parameters(
            0.5, ic, pi.universe_size, overrides=overrides)
    # A both-accept rate of about 2^-1121: refused by the per-trial-rate check.
    pi = make_protocol("send_x")
    yield "send_x@0.3", eq1, mu, pi, 0.3, compression_parameters(
        0.3, information_cost(pi, mu), pi.universe_size)


def test_all_cells_law_equals_the_per_cell_law():
    # The one squaring pass over every cell's stacked chains gives each
    # cell's law bit for bit; a law the per-cell call refuses is refused for
    # the whole report too.
    laws_checked = refused = 0
    for name, f, mu, pi, delta, params in _all_cells_cases():
        caps = default_caps().with_overrides(dp_trials=max(500, params.trials))
        cells = [(x, y) for x in range(pi.x_size) for y in range(pi.y_size)
                 if mu.x_marginal(x) > 0 and mu.y_marginal(y) > 0]
        try:
            per_cell = {(x, y): exact_output_distribution(pi, mu, x, y, params, caps)
                        for x, y in cells}
        except CapacityError as exc:
            refused += 1
            for call in (lambda: compression._exact_laws(pi, mu, cells, params, caps),
                         lambda: verify_compression(pi, f, mu, delta, params, caps=caps)):
                with pytest.raises(CapacityError, match=re.escape(str(exc))):
                    call()
            continue
        assert compression._exact_laws(pi, mu, cells, params, caps) == per_cell, name
        report = verify_compression(pi, f, mu, delta, params, engine="dp", caps=caps)
        assert [(r.x, r.y) for r in report.inputs] == cells, name
        for rep in report.inputs:
            law = per_cell[(rep.x, rep.y)]
            assert (rep.not_abort, rep.collision) == (law.not_abort, law.collision), name
        assert report.aggregate_not_abort == sum(
            float(mu.prob(x, y)) * law.not_abort for (x, y), law in per_cell.items()), name
        laws_checked += len(cells)
    # exchange_all on the five 2-bit functions is refused at delta 0.5
    # (lambda below 2^-1022), and send_x at 0.3; the rest run.
    # Cells: 4 on each 2x2 grid (7 triples x 3 deltas, 3 overrides), 16 on
    # each 4x4 grid (5 triples x 2 deltas).
    assert refused == 6 and laws_checked == 4 * (7 * 3 + 3) + 16 * 5 * 2


@pytest.mark.parametrize("chains", [1, 5, 16])
def test_exact_laws_do_not_depend_on_the_batch_size(monkeypatch, chains):
    # Batches of one cell, of cells split across k, and of several cells
    # give the laws of the one-batch pass bit for bit.
    for label, _, mu, pi in corpus_triples():
        params = compression_parameters(0.9, information_cost(pi, mu), pi.universe_size)
        caps = default_caps().with_overrides(dp_trials=max(500, params.trials))
        cells = [(x, y) for x in range(pi.x_size) for y in range(pi.y_size)]
        whole = compression._exact_laws(pi, mu, cells, params, caps)
        with monkeypatch.context() as patch:
            patch.setattr(compression, "_DP_CHAINS", chains)
            assert compression._exact_laws(pi, mu, cells, params, caps) == whole, label


# ---------------------------------------------------------------------------
# Strategy extraction
# ---------------------------------------------------------------------------


def test_extract_strategy_trivial_protocol():
    pi = make_protocol("trivial_const")
    f = make_function("CONST,1")
    params = compression_parameters(0.9, 0.0, 1, overrides=(1, 30, 0))
    strategy, report = extract_strategy(pi, f, UNIFORM_2x2, 0.9, params, 1000, seed=3)
    assert isinstance(strategy, LabeledRectangleStrategy)
    assert report.weight_total == 1
    assert report.seeds == 1000
    # hash_bits=0 means every accepted trial matches; with 30 trials both
    # parties output 1 near-certainly, so half the weight (1/|Z| per seed)
    # sits on the full rectangle labeled 1.
    weight = Counter()
    for rect, z, w in strategy.entries:
        weight[rect, z] += w
    full = Rectangle(0b11, 0b11)
    assert weight.get((full, 1), 0) >= Fraction(49, 100)
    assert weight.get((EMPTY_RECTANGLE, 0), 0) >= Fraction(49, 100)
    assert report.eps == 0.0


def test_extract_strategy_tally_matches_counter():
    f = make_function("EQ,2")
    mu = InputDistribution(tuple(tuple(Fraction(1, 16) for _ in range(4)) for _ in range(4)))
    pi = make_protocol("exchange_all", f=f)
    params = compression_parameters(0.5, 1.0, pi.universe_size, overrides=(1, 40, 1))
    seeds = 300
    strategy, report = extract_strategy(pi, f, mu, 0.5, params, seeds, seed=4)
    assert report.weight_total == 1
    assert sum(w for *_, w in strategy.entries) == 1
    setup = _party_rows(compression._Same(pi, mu), tuple(range(4)), tuple(range(4)),
                        params.delta_exp)
    ((a_maps, b_maps, _),) = _party_maps(_seeded_rng(4), seeds, params, setup)
    tally = Counter()
    for a, b in zip(a_maps.tolist(), b_maps.tolist()):
        for z in range(pi.z_size):
            rows = sum(1 << x for x, v in enumerate(a) if v == z)
            cols = sum(1 << y for y, v in enumerate(b) if v == z)
            tally[(Rectangle(rows, cols), z)] += 1
    assert len(tally) > 4
    weight = Counter()
    for rect, z, w in strategy.entries:
        weight[rect, z] += w
    assert weight == {k: Fraction(c, seeds * pi.z_size) for k, c in tally.items()}
    keys = [(z, rect.row_mask, rect.col_mask) for rect, z, _ in strategy.entries]
    assert keys == sorted(set(keys))


def test_extract_strategy_rejects_grids_past_the_key_width():
    f = PartialFunction.from_rows([[0, 0]] * 62, z_size=1)
    mu = InputDistribution(tuple((Fraction(1, 124),) * 2 for _ in range(62)))
    pi = ProtocolTree(Leaf(0), 62, 2, 1)
    params = compression_parameters(0.9, 0.0, 1, overrides=(1, 5, 0))
    with pytest.raises(CapacityError):
        extract_strategy(pi, f, mu, 0.9, params, 10)


def test_extract_strategy_validation():
    pi = make_protocol("trivial_const")
    f = make_function("CONST,1")
    params = compression_parameters(0.9, 0.0, 1, overrides=(1, 5, 0))
    with pytest.raises(ParameterError):
        extract_strategy(pi, f, UNIFORM_2x2, 0.9, params, 0)
    with pytest.raises(ParameterError):
        extract_strategy(pi, f, UNIFORM_2x2, 1.5, params, 10)
    with pytest.raises(CapacityError):
        extract_strategy(pi, f, UNIFORM_2x2, 0.9, params, 10,
                         caps=default_caps().with_overrides(grid_cells=3))


# ---------------------------------------------------------------------------
# Conditional-distance utility
# ---------------------------------------------------------------------------


def test_conditional_distance_trivial_events():
    pi_dist = FiniteDistribution((Fraction(1, 2), Fraction(1, 2)))
    weights = (Fraction(1, 4),) * 4
    value_map = (0, 1, 0, 1)
    # H = whole space, F empty: conditional law equals pi exactly, bound = c.
    holds, measured, bound = conditional_distance_check(
        pi_dist, weights, value_map, 0b0000, 0b1111, Fraction(0)
    )
    assert holds and measured == 0 and bound == 0


def test_conditional_distance_with_bad_event():
    pi_dist = FiniteDistribution((Fraction(1, 2), Fraction(1, 2)))
    weights = (Fraction(1, 4),) * 4
    value_map = (0, 0, 0, 1)
    # H = {0, 3} gives the right law; H = {0, 1, 3} skews it by the mass of
    # the bad point 1, which F absorbs.
    holds, measured, bound = conditional_distance_check(
        pi_dist, weights, value_map, 0b0010, 0b1011, Fraction(0)
    )
    assert holds
    assert measured == Fraction(1, 6)
    assert bound == Fraction(1, 3)


def test_conditional_distance_errors():
    pi_dist = FiniteDistribution((Fraction(1), Fraction(0)))
    with pytest.raises(ConditioningError):
        conditional_distance_check(pi_dist, (Fraction(1),), (0,), 0, 0, 0)
    with pytest.raises(DimensionError):
        conditional_distance_check(pi_dist, (Fraction(1),), (0, 0), 0, 1, 0)
