"""Primitives: partial functions, distributions, rectangles, divergences."""

import importlib
import math
import pkgutil
import random
from fractions import Fraction

import pytest

import commlb
from commlb.caps import Caps, default_caps
from commlb.core import (
    BadSet,
    EMPTY_RECTANGLE,
    FiniteDistribution,
    InputDistribution,
    PartialFunction,
    Rectangle,
    bad_set,
    enumerate_rectangles,
    kl_divergence,
    rectangle_count,
    stat_distance,
)
from commlb.errors import (
    CapacityError,
    DimensionError,
    FormatError,
    ParameterError,
)


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(commlb.__path__):
        module = importlib.import_module(f"commlb.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


# ---------------------------------------------------------------------------
# PartialFunction
# ---------------------------------------------------------------------------


def test_partial_function_basics():
    f = PartialFunction.from_rows([[1, 0], [None, 1]], z_size=2)
    assert f.value(0, 0) == 1
    assert f.value(1, 0) is None
    assert not f.is_defined(1, 0)
    assert f.domain() == [(0, 0), (0, 1), (1, 1)]
    assert f.preimage(1) == [(0, 0), (1, 1)]


def test_partial_function_rejects_bad_output():
    with pytest.raises(ParameterError):
        PartialFunction.from_rows([[2, 0], [0, 0]], z_size=2)


def test_partial_function_rejects_all_undefined():
    with pytest.raises(ParameterError):
        PartialFunction.from_rows([[None, None]], z_size=2)


def test_partial_function_rejects_ragged():
    with pytest.raises(DimensionError):
        PartialFunction(2, 2, 2, ((0, 1), (0,)))


def test_commfn_round_trip():
    f = PartialFunction.from_rows([[1, None, 0], [0, 1, None]], z_size=2)
    again = PartialFunction.from_text(f.to_text())
    assert again == f


def test_commfn_rejects_bad_magic():
    with pytest.raises(FormatError):
        PartialFunction.from_text("WRONG 1\n1 1 1\n0\n")


def test_commfn_rejects_short_file():
    with pytest.raises(FormatError):
        PartialFunction.from_text("COMMFN 1\n2 2 2\n0 1\n")


# ---------------------------------------------------------------------------
# InputDistribution
# ---------------------------------------------------------------------------


def test_distribution_marginals_exact():
    mu = InputDistribution(((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 8), Fraction(1, 8))))
    assert mu.x_marginal(0) == Fraction(3, 4)
    assert mu.y_marginal(1) == Fraction(3, 8)
    assert mu.prob(1, 0) == Fraction(1, 8)


def test_distribution_renormalizes_small_drift():
    mu = InputDistribution(((0.25, 0.25), (0.25, 0.25 + 1e-12),))
    assert abs(sum(sum(r) for r in mu.mass) - 1) < 1e-15


def test_distribution_rejects_large_drift():
    with pytest.raises(ParameterError):
        InputDistribution(((0.3, 0.3), (0.3, 0.3)))


def test_distribution_rejects_negative():
    with pytest.raises(ParameterError):
        InputDistribution(((-0.5, 0.5), (0.5, 0.5)))


def test_commdist_round_trip():
    mu = InputDistribution(((0.1, 0.2), (0.3, 0.4)))
    again = InputDistribution.from_text(mu.to_text())
    assert again.mass == mu.mass


def test_compatibility_check():
    f = PartialFunction.from_rows([[0, 1]], z_size=2)
    mu = InputDistribution(((0.5, 0.5), (0.0, 0.0)))
    with pytest.raises(DimensionError):
        mu.check_compatible(f)


# ---------------------------------------------------------------------------
# Rectangles
# ---------------------------------------------------------------------------


def test_rectangle_canonical_empty():
    assert Rectangle(0b11, 0) == EMPTY_RECTANGLE
    assert Rectangle(0, 0b1) == EMPTY_RECTANGLE
    assert EMPTY_RECTANGLE.is_empty


def test_rectangle_membership():
    r = Rectangle(0b101, 0b10)
    assert r.contains(0, 1)
    assert r.contains(2, 1)
    assert not r.contains(1, 1)
    assert not r.contains(0, 0)
    assert list(r.cells(3, 2)) == [(0, 1), (2, 1)]


def test_enumerate_rectangles_count():
    # (2^2 - 1)^2 nonempty products plus the empty rectangle.
    rects = list(enumerate_rectangles(2, 2))
    assert len(rects) == rectangle_count(2, 2) == 10
    assert len(set(rects)) == 10
    assert rects[-1] == EMPTY_RECTANGLE


def test_enumerate_rectangles_cap():
    with pytest.raises(CapacityError):
        list(enumerate_rectangles(9, 2))
    caps = Caps(rect_side=9)
    assert len(list(enumerate_rectangles(9, 1, caps))) == rectangle_count(9, 1)


# ---------------------------------------------------------------------------
# FiniteDistribution, distances, divergences
# ---------------------------------------------------------------------------


def test_finite_distribution_exactness():
    d = FiniteDistribution.uniform(4)
    assert d.is_exact
    assert d.mass(0b0101) == Fraction(1, 2)
    with pytest.raises(ParameterError):
        FiniteDistribution((Fraction(1, 2), Fraction(1, 3)))


def test_stat_distance_exact():
    a = FiniteDistribution((Fraction(1, 2), Fraction(1, 2)))
    b = FiniteDistribution((Fraction(1, 4), Fraction(3, 4)))
    assert stat_distance(a, b) == Fraction(1, 4)
    assert stat_distance(a, a) == 0


def test_stat_distance_is_half_l1():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        raw_a = [rng.random() for _ in range(n)]
        raw_b = [rng.random() for _ in range(n)]
        a = FiniteDistribution(tuple(v / sum(raw_a) for v in raw_a))
        b = FiniteDistribution(tuple(v / sum(raw_b) for v in raw_b))
        half_l1 = 0.5 * sum(abs(x - y) for x, y in zip(a.weights, b.weights))
        assert abs(stat_distance(a, b) - half_l1) < 1e-12


def test_kl_divergence_known_value():
    # D((1/2,1/2) || (1/4,3/4)) = 1 - (1/2) log2 3
    a = FiniteDistribution((0.5, 0.5))
    b = FiniteDistribution((0.25, 0.75))
    assert abs(kl_divergence(a, b) - (1 - 0.5 * math.log2(3))) < 1e-12
    assert kl_divergence(a, a) == 0.0


def test_kl_divergence_infinite():
    a = FiniteDistribution((0.5, 0.5))
    b = FiniteDistribution((1.0, 0.0))
    assert kl_divergence(a, b) == math.inf
    # but mass only where b lives is fine
    c = FiniteDistribution((1.0, 0.0))
    assert kl_divergence(c, a) == 1.0


def test_bad_set_exact():
    tau = FiniteDistribution((Fraction(1, 2), Fraction(1, 2)))
    nu = FiniteDistribution((Fraction(9, 10), Fraction(1, 10)))
    # 2^1 * 1/10 = 1/5 < 1/2: element 1 is bad at delta_exp = 1.
    bs = bad_set(tau, nu, 1)
    assert bs == BadSet(0b10, Fraction(1, 2))
    # at delta_exp = 3 the ratio 8 * 1/10 exceeds 1/2: nothing is bad.
    assert bad_set(tau, nu, 3).members == 0


def test_bad_set_fractional_exponent():
    tau = FiniteDistribution((0.5, 0.5))
    nu = FiniteDistribution((0.9, 0.1))
    bs = bad_set(tau, nu, 2.3)
    assert bs.members == 0b10 and abs(bs.mass_under_tau - 0.5) < 1e-12


def test_bad_set_rejects_nonpositive_exponent():
    tau = FiniteDistribution((1.0,))
    with pytest.raises(ParameterError):
        bad_set(tau, tau, 0)


def test_size_mismatch_raises():
    with pytest.raises(DimensionError):
        stat_distance(FiniteDistribution((1.0,)), FiniteDistribution((0.5, 0.5)))


# ---------------------------------------------------------------------------
# Caps plumbing
# ---------------------------------------------------------------------------


def test_caps_env_override(monkeypatch):
    monkeypatch.setenv("CCLB_CAPS", "rect_side=10, dp_trials=999")
    caps = default_caps()
    assert caps.rect_side == 10
    assert caps.dp_trials == 999
    assert caps.dp_universe == Caps().dp_universe


@pytest.mark.parametrize(
    "raw",
    ["rect_sides=10", "rect_side=-1", "rect_side=0", "grid_cells=0,rect_side=9",
     "rect_side=ten", "rect_side", "dp_trials=1.5"],
)
def test_caps_env_rejects_bad_entries(monkeypatch, raw):
    monkeypatch.setenv("CCLB_CAPS", raw)
    with pytest.raises(ParameterError):
        default_caps()


def test_caps_with_overrides():
    caps = Caps().with_overrides(grid_cells=512)
    assert caps.grid_cells == 512
    assert Caps().grid_cells == 256


@pytest.mark.parametrize(
    "overrides",
    [{"bogus": 1}, {"rect_side": 0}, {"rect_side": -3}, {"rect_side": 2.5},
     {"rect_side": "8"}, {"rect_side": True}, {"grid_cells": 512, "lp_rows": 10}],
)
def test_caps_with_overrides_rejects_bad_values(overrides):
    with pytest.raises(ParameterError):
        Caps().with_overrides(**overrides)
