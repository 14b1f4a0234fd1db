"""Acceptance battery: one test per numbered criterion.

Each test runs the corresponding check from commlb.verify, prints its
PASS/FAIL line with the measured quantities, and asserts it passed.  The
stated tolerances live inside the checks: exact rational identities where the
math is exact, 1e-6 for LP duality and inequality chains, 1e-9 float
rounding on the compression equalities, and 3-5 standard errors for Monte
Carlo comparisons.
"""

import pytest

from commlb import verify
from commlb.caps import default_caps
from commlb.errors import CapacityError


def _assert(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_acceptance_probability_identity():
    # 500 random exact experiment inputs; per-party accept probability is
    # exactly 1/(|U| * 2**delta_exp), float mode within 1e-12.
    _assert(verify.check_accept_identity(seed=0, instances=500))


def test_criterion_02_acceptance_bounds_and_closeness():
    # Same instance family: (1-gamma)/(|U| 4**delta_exp) <= Pr[both] <=
    # 1/(|U| 4**delta_exp) and |tau - tau'| <= gamma, exactly.
    _assert(verify.check_accept_bounds(seed=0, instances=500))


def test_criterion_03_bad_set_mass_bound():
    # tau(Bad) <= (D(tau||nu) + 1)/delta_exp over 1000 random pairs.
    _assert(verify.check_bad_set_bound(seed=0, instances=1000))


def test_criterion_04_bound_chain():
    # srec <= bprt <= prt within 1e-6 over the corpus sweep, plus the exact
    # rational pins prt_0(EQ_1) = 4 and bprt_eps(CONST) = 1 - eps.
    _assert(verify.check_chain())


def test_corpus_sweep_cache_respects_caps():
    # A sweep computed under the default caps must not answer for caps
    # that the corpus LPs exceed.
    _assert(verify.check_chain())
    with pytest.raises(CapacityError):
        verify.check_chain(default_caps().with_overrides(lp_vars_float=10))


def test_criterion_05_lp_duality():
    # Primal = dual within 1e-6 (sharing the criterion-4 sweep in-process).
    _assert(verify.check_duality())


def test_criterion_06_dp_versus_monte_carlo():
    # Exact DP law vs 10^7-sample empirical law, per input, TV below 5 SE.
    result = verify.check_dp_vs_mc(samples=10_000_000, seed=0)
    _assert(result)
    # Alice's alpha cut is 0.75/8 and Bob's beta cut 1/8 at delta_exp 3, so
    # 1 - (1 - 0.75/8)(1 - 1/8) = 20.7 % of the trials are candidates.
    assert "candidate trials 20.7%" in result.detail


def test_criterion_07_compression_guarantees():
    # Derived parameters at delta = 0.9, 0.7 and 0.5 on noisy_bit(0.25):
    # per-input Pr[not abort] <= (1+delta)lambda, aggregate >=
    # (1-delta)lambda, statistical distance <= delta and the collision bound,
    # all exact up to 1e-9 float rounding.
    result = verify.check_compression_guarantee()
    _assert(result)
    for delta in ("0.9", "0.7", "0.5"):
        assert f"delta={delta} T=" in result.detail


def test_criterion_08_information_cost_lower_bound():
    # IC >= (delta^2/64)(log2 bprt - log2 |Z|) - delta on every corpus
    # triple at delta in {0.1, 0.25}; zero violations.
    _assert(verify.check_ic_lower_bound())


def test_criterion_09_strategy_extraction():
    # 10^5 seeds at delta=0.3, overrides (2, 3, 1): weights sum to 1
    # exactly; empirical correctness and coverage consistent with
    # eta = (1+delta)lambda/|Z| within 3 SE, coverage within 5 SE of the DP.
    _assert(verify.check_extraction(seed=0))


def test_criterion_10_conditional_distance_property():
    # 1000 random spaces, zero violations of the conditioning inequality.
    _assert(verify.check_conditional_distance(seed=0, instances=1000))


def test_criterion_11_information_cost_paths():
    # Both IC computation paths agree within 1e-9; 0 <= IC <= depth.
    _assert(verify.check_ic_paths(seed=0, instances=200))
