"""The sampling kernel's seeded outputs, pinned to literals.

Speed work on the kernel must keep its draws and their order, so every
seeded output stays byte-identical.  A test of the law alone would pass with
an extra or a missing draw (a hash word drawn at hash_bits 0, say), but the
draws of every later block would move, and the literals here would not hold.
Each case that spans several blocks is there to catch such a shift.
"""

import hashlib
from fractions import Fraction

import pytest

from commlb.compression import (
    compression_parameters,
    extract_strategy,
    mc_output_distribution,
    run_zero_comm,
    verify_compression,
)
from commlb.core import InputDistribution
from commlb.corpus import make_function, make_protocol

UNIFORM_2x2 = InputDistribution(((Fraction(1, 4),) * 2,) * 2)
UNIFORM_4x4 = InputDistribution(((Fraction(1, 16),) * 4,) * 4)

# (delta_exp, T, hash_bits), (x, y), samples, seed, then counts (z = 0, 1,
# BOT) and near trials.  The first four are the benchmark's MC overrides, in one
# block each; the last three span 3, 4 and 8 blocks, at hash_bits 0 (where
# about 69 % of the trials are near), 40 and 70.
MC_PINS = [
    ((3, 30, 2), (0, 1), 3000, 100, (124, 54, 2822), 19087),
    ((3, 60, 2), (1, 0), 3000, 101, (60, 217, 2723), 38619),
    ((4, 100, 3), (0, 1), 3000, 102, (57, 14, 2929), 33975),
    ((5, 160, 3), (1, 0), 3000, 103, (13, 37, 2950), 29437),
    ((1, 30, 0), (0, 1), 20_000, 104, (8761, 3629, 7610), 414751),
    ((6, 50, 40), (1, 0), 20_000, 105, (0, 0, 20_000), 34565),
    ((7, 90, 70), (0, 1), 20_000, 106, (0, 0, 20_000), 35109),
]


def _ids(pins):
    return ["-".join(map(str, pin[0])) for pin in pins]


@pytest.mark.parametrize("overrides, cell, samples, seed, counts, near", MC_PINS,
                         ids=_ids(MC_PINS))
def test_mc_law_is_pinned(overrides, cell, samples, seed, counts, near):
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 0.2, pi.universe_size, overrides=overrides)
    law = mc_output_distribution(pi, UNIFORM_2x2, *cell, params, samples, seed=seed)
    assert (law.counts, law.candidates) == (counts, near)


def test_scalar_runs_are_pinned():
    pi = make_protocol("noisy_bit", flip=0.25)
    params = compression_parameters(0.5, 0.2, pi.universe_size, overrides=(2, 20, 1))
    outs = [run_zero_comm(pi, UNIFORM_2x2, 0, 1, params, seed=s) for s in range(50)]
    zeros = [3, 17, 21, 32, 33, 36, 40, 43]  # the other runs abort (BOT = -1)
    assert outs == [0 if s in zeros else -1 for s in range(50)]


def test_mc_verification_is_pinned():
    pi = make_protocol("and_protocol")
    params = compression_parameters(0.5, 1.0, pi.universe_size, overrides=(2, 15, 1))
    report = verify_compression(pi, None, UNIFORM_2x2, 0.5, params, engine="mc",
                                mc_samples=5000, seed=11)
    assert [rep.not_abort for rep in report.inputs] == [0.1432, 0.1022, 0.1092, 0.1164]


# (delta_exp, T, hash_bits), then the SHA-256 of the sorted strategy entries
# (z, row mask, column mask, weight numerator), the correctness estimate and
# the largest coverage; one case per hash word layout: none, uint8, uint64,
# and uint64 then uint8.  6,000 seeds span 2 blocks at T = 50 and 3 at
# T = 90; at hash_bits 40 and 70 no run outputs, so every map is empty.
EXTRACT_PINS = [
    ((1, 50, 0), "9d422cb3d7e34be2ba3c5efb579310fc62103222811dc6bb13fadef7eca39d56",
     0.14956770833333333, 0.23066666666666666),
    ((3, 50, 5), "ec68d24730fbee325ebc224ab8c6d744672ff7c3d6cec54ac5081701d7ebf1f3",
     0.0006875, 0.001),
    ((6, 50, 40), "85a801693e8aef0175712deb7b9e2217f9c035308df3dbfeb3ce969d94b7cfc1", 0.0, 0.0),
    ((7, 90, 70), "85a801693e8aef0175712deb7b9e2217f9c035308df3dbfeb3ce969d94b7cfc1", 0.0, 0.0),
]


@pytest.mark.parametrize("overrides, digest, correctness, coverage", EXTRACT_PINS,
                         ids=_ids(EXTRACT_PINS))
def test_extraction_is_pinned(overrides, digest, correctness, coverage):
    f = make_function("EQ,2")
    pi = make_protocol("exchange_all", f=f)
    params = compression_parameters(0.5, 1.0, pi.universe_size, overrides=overrides)
    strategy, report = extract_strategy(pi, f, UNIFORM_4x4, 0.5, params, 6000, seed=7)
    entries = sorted((z, r.row_mask, r.col_mask, w.numerator) for r, z, w in strategy.entries)
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest
    assert (report.correctness_lhs, report.max_coverage) == (correctness, coverage)
