"""Acceptance battery: one test per numbered criterion.

Each test runs its check through ``verify.run_checks(only=name)``, the
dispatch that ``commlb verify`` uses, prints its PASS/FAIL line with the
measured quantities, and asserts it passed with its battery number.  The
stated tolerances live inside the checks: exact rational identities where the
math is exact, 1e-6 for LP duality and inequality chains, 1e-9 float
rounding on the compression equalities, and 3-5 standard errors for Monte
Carlo comparisons.
"""

import dataclasses

import pytest

from commlb import bounds, verify
from commlb.caps import default_caps
from commlb.errors import CapacityError


def _check(number, name, **kwargs):
    [result] = verify.run_checks(only=name, **kwargs)
    print(result.line())
    assert (result.number, result.name) == (number, name)
    assert result.passed, result.line()
    return result


def test_criterion_01_acceptance_probability_identity():
    # 500 random exact experiment inputs; per-party accept probability is
    # exactly 1/(|U| * 2**delta_exp), float mode within 1e-12.
    _check(1, "accept-identity")


def test_criterion_02_acceptance_bounds_and_closeness():
    # Same instance family: (1-gamma)/(|U| 4**delta_exp) <= Pr[both] <=
    # 1/(|U| 4**delta_exp) and |tau - tau'| <= gamma, exactly.
    _check(2, "accept-bounds")


def test_criterion_03_bad_set_mass_bound():
    # tau(Bad) <= (D(tau||nu) + 1)/delta_exp over 1000 random pairs.
    _check(3, "bad-set-bound")


def test_criterion_04_bound_chain():
    # srec <= bprt <= prt within 1e-6 over the corpus sweep, plus the exact
    # rational pins prt_0(EQ_1) = 4 and bprt_eps(CONST) = 1 - eps.
    _check(4, "bound-chain")


def test_corpus_sweep_cache_respects_caps():
    # The chain passing under the default caps must not let it pass under
    # caps that the corpus LPs exceed.
    _check(4, "bound-chain")
    with pytest.raises(CapacityError):
        verify.run_checks(only="bound-chain", caps=default_caps().with_overrides(lp_vars_float=10))


@pytest.mark.parametrize("bound, message", [("bprt_mu", "bprt_mu"), ("rect_dual", "rect_")])
def test_bound_chain_fails_on_a_broken_link(monkeypatch, bound, message):
    # A uniform bprt_mu above bprt, or a rect above its label's srec, breaks
    # the chain that check 4 reads off the sweep.
    solve = getattr(bounds, bound)

    def raised(*args):
        result = solve(*args)
        return dataclasses.replace(result, value=result.value + 100)

    monkeypatch.setattr(bounds, bound, raised)
    [result] = verify.run_checks(only="bound-chain")
    assert not result.passed and f" {message}" in result.detail, result.line()


def test_criterion_05_lp_duality():
    # Primal = dual within 1e-6 on every LP of the corpus sweep.
    result = _check(5, "lp-duality")
    assert result.detail.startswith("216 LPs,")


def test_checks_4_and_5_share_one_sweep(monkeypatch):
    # One battery run solves each corpus LP of checks 4 and 5 once: the
    # sweep's 216, the 5 pinned rational LPs and check 8's 22.
    calls = []
    solve = bounds.lp_solve
    monkeypatch.setattr(bounds, "lp_solve", lambda *args: calls.append(1) or solve(*args))
    assert all(r.passed for r in verify.run_checks(mc_samples=1000))
    assert len(calls) == 243


def test_criterion_06_dp_versus_monte_carlo():
    # Exact DP law vs 10^7-sample empirical law, per input, TV below 5 SE.
    result = _check(6, "dp-vs-mc", mc_samples=10_000_000)
    # Alice's alpha cut is 0.75/8 and Bob's beta cut 1/8 at delta_exp 3, with
    # top bytes 24 and 32, so 1 - (231/256)(223/256) = 21.4 % of the trials
    # are near and draw u and the hash.
    assert "candidate trials 21.4%" in result.detail


def test_criterion_07_compression_guarantees():
    # Derived parameters at delta = 0.9, 0.7 and 0.5 on noisy_bit(0.25) over
    # EQ,1 and on the 200-round buzzer over AND,1: per-input Pr[not abort]
    # <= (1+delta)lambda, aggregate >= (1-delta)lambda, statistical distance
    # <= delta and the collision bound, all exact up to 1e-9 float rounding.
    result = _check(7, "compression-guarantee")
    for label in ("noisy_bit", "buzzer,200"):
        for delta in ("0.9", "0.7", "0.5"):
            assert f"{label} delta={delta} T=" in result.detail


def test_criterion_08_information_cost_lower_bound():
    # IC >= (delta^2/64)(log2 bprt - log2 |Z|) - delta on every corpus
    # triple at delta in {0.1, 0.25}; zero violations.
    _check(8, "ic-lower-bound")


def test_criterion_09_strategy_extraction():
    # 10^5 seeds at delta=0.3, overrides (2, 3, 1): weights sum to 1
    # exactly; empirical correctness and coverage consistent with
    # eta = (1+delta)lambda/|Z| within 3 SE, coverage within 5 SE of the DP.
    _check(9, "extraction")


def test_criterion_10_conditional_distance_property():
    # 1000 random spaces, zero violations of the conditioning inequality.
    _check(10, "conditional-distance")


def test_criterion_11_information_cost_paths():
    # Both IC computation paths agree within 1e-9; 0 <= IC <= depth.
    _check(11, "ic-paths")


def test_filtered_checks_keep_their_battery_numbers():
    # "ic" names checks 8 and 11 only; a filter keeps each check's number.
    assert [(r.number, r.name) for r in verify.run_checks("ic")] == [
        (8, "ic-lower-bound"), (11, "ic-paths")]
