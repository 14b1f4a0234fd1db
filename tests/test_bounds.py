"""Lower-bound LPs: pinned values, orderings, witnesses, and CSV output."""

import copy
import dataclasses
import random
import time
from fractions import Fraction

import pytest

from commlb import bounds, solver
from commlb.bounds import (
    CSV_HEADER,
    LabeledRectangleStrategy,
    bprt,
    bprt_mu,
    check_witness,
    corruption_witness,
    csv_label,
    csv_row,
    discrepancy,
    prt,
    rect_dual,
    srec,
    verify_bound_chain,
)
from commlb.caps import Caps
from commlb.core import (
    InputDistribution,
    PartialFunction,
    Rectangle,
    enumerate_rectangles,
)
from commlb.corpus import corpus_functions, make_distribution, make_function
from commlb.errors import CapacityError, DegenerateInputError, DimensionError, ParameterError
from commlb.solver import LpProblem, lp_solve

EQ1 = make_function("EQ,1")
AND1 = make_function("AND,1")
CONST1 = make_function("CONST,1")
UNIFORM_2x2 = InputDistribution(
    ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)))
)


def _uniform(f: PartialFunction) -> InputDistribution:
    w = Fraction(1, f.x_size * f.y_size)
    return InputDistribution(tuple((w,) * f.y_size for _ in range(f.x_size)))


def _random_mu(rng: random.Random, x_size: int, y_size: int) -> InputDistribution:
    raw = [[Fraction(rng.randint(1, 12)) for _ in range(y_size)] for _ in range(x_size)]
    total = sum(map(sum, raw))
    return InputDistribution(tuple(tuple(v / total for v in row) for row in raw))


def _brute_rectangle_sums(grid) -> list:
    """The total of `grid` on every rectangle, by explicit row/column masks."""
    x_size, y_size = len(grid), len(grid[0])
    return [
        sum(grid[x][y] for x in range(x_size) for y in range(y_size)
            if rows >> x & 1 and cols >> y & 1)
        for rows in range(1 << x_size)
        for cols in range(1 << y_size)
    ]


def _alpha_beta_bprt(f: PartialFunction, eps, mode: str):
    """bprt in its dual (alpha, beta) form, the reference for the weight-form
    LP: maximize (1-eps)*sum(alpha) - sum(beta) with, for every (rectangle,
    label), alpha over its correctly answered cells minus beta over all its
    cells at most 1."""
    one = Fraction(1) if mode == "rational" else 1.0
    rects = [r for r in enumerate_rectangles(f.x_size, f.y_size) if not r.is_empty]
    cells = [(x, y) for x in range(f.x_size) for y in range(f.y_size)]
    rows = [
        [one if r.contains(*c) and f.value(*c) in (None, z) else 0 * one for c in cells]
        + [-one if r.contains(*c) else 0 * one for c in cells]
        for r in rects
        for z in range(f.z_size)
    ]
    objective = [one - eps] * len(cells) + [-one] * len(cells)
    problem = LpProblem.build("max", objective, rows, ["<="] * len(rows), [one] * len(rows))
    return lp_solve(problem, mode).objective_value


def _alpha_rect(f: PartialFunction, eps, z: int, mu, mode: str):
    """rect in its alpha form, the reference for the weight-form LP:
    maximize (1-eps)*alpha(f^{-1}(z)) - eps*alpha(rest of promise) over alpha
    on the promise cells mu charges, with alpha(R on the z side) - alpha(R
    off it) at most 1 for every rectangle meeting them."""
    one = Fraction(1) if mode == "rational" else 1.0
    cells = [c for c in f.domain() if mu is None or mu.prob(*c) > 0]
    signs = [one if f.value(*c) == z else -one for c in cells]
    rects = [r for r in enumerate_rectangles(f.x_size, f.y_size) if not r.is_empty]
    rows = [
        [s if r.contains(*c) else 0 * one for s, c in zip(signs, cells)]
        for r in rects
        if any(r.contains(*c) for c in cells)
    ]
    objective = [one - eps if s > 0 else -eps for s in signs]
    problem = LpProblem.build("max", objective, rows, ["<="] * len(rows), [one] * len(rows))
    return lp_solve(problem, mode).objective_value


# ---------------------------------------------------------------------------
# bprt_mu
# ---------------------------------------------------------------------------


def test_bprt_mu_constant_function():
    r = bprt_mu(CONST1, UNIFORM_2x2, 0.1)
    assert abs(r.value - 0.9) < 1e-9
    exact = bprt_mu(CONST1, UNIFORM_2x2, Fraction(1, 10), mode="rational")
    assert exact.value == Fraction(9, 10)


def test_bprt_mu_eq1_bracketed():
    r = bprt_mu(EQ1, UNIFORM_2x2, Fraction(0), mode="rational")
    assert 1 <= r.value <= 4


def test_bprt_mu_single_defined_cell():
    f = PartialFunction.from_rows([[1, None], [None, None]], z_size=2)
    mu = InputDistribution(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    r = bprt_mu(f, mu, Fraction(0), mode="rational")
    assert r.value == 1


def test_bprt_mu_duality_gap():
    for f in (EQ1, AND1):
        r = bprt_mu(f, _uniform(f), 0.05)
        assert r.dual_value is not None
        assert abs(r.value - r.dual_value) < 1e-6


# ---------------------------------------------------------------------------
# bprt (distribution-free)
# ---------------------------------------------------------------------------


def test_bprt_constant_function():
    assert abs(bprt(CONST1, 0.1).value - 0.9) < 1e-9


def test_bprt_dominates_sampled_mu():
    # bprt = max over mu of bprt_mu; sampled distributions must never exceed
    # it, and the best sample should come close for this small function.
    rng = random.Random(13)
    top = bprt(EQ1, 0).value
    best = 0.0
    for _ in range(200):
        v = bprt_mu(EQ1, _random_mu(rng, 2, 2), 0).value
        assert v <= top + 1e-6
        best = max(best, float(v))
    assert top <= best + 1e-6


def test_bprt_at_least_one_at_zero_error():
    for _, f in corpus_functions():
        assert bprt(f, 0).value >= 1 - 1e-9


def test_bprt_matches_alpha_beta_form():
    for label, f in corpus_functions():
        if f.x_size == 2:
            for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 4)):
                ref = _alpha_beta_bprt(f, eps, "rational")
                assert bprt(f, eps, mode="rational").value == ref, (label, eps)
        else:
            for eps in (0.0, 0.1):
                ref = _alpha_beta_bprt(f, eps, "float")
                assert abs(bprt(f, eps).value - ref) < 1e-9, (label, eps)


def test_bprt_eq2_rational_pinned():
    f = make_function("EQ,2")
    start = time.perf_counter()
    r = bprt(f, Fraction(1, 10), mode="rational")
    assert time.perf_counter() - start < 1.0
    assert r.value == Fraction(11, 2)
    assert r.dual_value == r.value
    assert check_witness(r, f) == (True, Fraction(11, 2))


def test_bprt_strategy_witness_structure():
    r = bprt(EQ1, 0.1)
    strat = r.primal_witness
    assert isinstance(strat, LabeledRectangleStrategy)
    total = sum(w for _, _, w in strat.entries)
    assert abs(total - 1) < 1e-9
    # value = 1/eta for the optimal normalized strategy
    assert abs(1 / strat.efficiency - r.value) < 1e-6


# ---------------------------------------------------------------------------
# prt
# ---------------------------------------------------------------------------


def test_prt_constant_function():
    for eps in (0, 0.1, 0.4):
        assert abs(prt(CONST1, eps).value - 1) < 1e-9


def test_prt_eq1_exact():
    assert prt(EQ1, Fraction(0), mode="rational").value == 4


def test_prt_eq1_quarter_error():
    v = prt(EQ1, 0.25).value
    assert v <= 4 + 1e-9
    assert v >= bprt(EQ1, 0.25).value - 1e-6


# ---------------------------------------------------------------------------
# srec
# ---------------------------------------------------------------------------


def test_srec_constant_function():
    assert abs(srec(CONST1, 0, 1).value - 1) < 1e-9


def test_srec_below_bprt():
    assert srec(EQ1, 0, 1).value <= bprt(EQ1, 0).value + 1e-6


def test_srec_empty_preimage_rejected():
    with pytest.raises(DegenerateInputError):
        srec(CONST1, 0, 0)


def test_srec_reduces_to_cover_lp_without_other_labels():
    # Only z0-cells defined: the off-label constraint family is vacuous and
    # srec equals the plain rectangle-cover LP, solved here directly.
    f = PartialFunction.from_rows([[1, None], [None, 1]], z_size=2)
    eps = 0.1
    rects = [r for r in enumerate_rectangles(2, 2) if not r.is_empty]
    cells = [(0, 0), (1, 1)]
    rows, rels, rhs = [], [], []
    for x, y in cells:
        cover = [1 if r.contains(x, y) else 0 for r in rects]
        rows.append(cover)
        rels.append(">=")
        rhs.append(1 - eps)
        rows.append(cover)
        rels.append("<=")
        rhs.append(1)
    oracle = lp_solve(LpProblem.build("min", [1] * len(rects), rows, rels, rhs))
    assert abs(srec(f, eps, 1).value - oracle.objective_value) < 1e-9


# ---------------------------------------------------------------------------
# rect_dual and corruption
# ---------------------------------------------------------------------------


def test_rect_dual_constant_function():
    assert abs(rect_dual(CONST1, 0.1, 1).value - 0.9) < 1e-9


def test_rect_dual_empty_preimage_is_zero():
    f = PartialFunction.from_rows([[0, 0], [0, 0]], z_size=2)
    assert abs(rect_dual(f, 0.1, 1).value) < 1e-9


def test_rect_dual_without_cells_is_zero():
    # mu charges only cells off the promise: an LP with no rows and no
    # rectangles, whose optimum is 0.
    f = PartialFunction.from_rows([[0, None], [None, 1]], z_size=2)
    mu = InputDistribution(((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))))
    for mode in ("float", "rational"):
        r = rect_dual(f, 0, 0, mu, mode)
        assert r.value == 0 and r.primal_witness == {} and r.dual_witness == ()
    assert check_witness(r, f) == (True, 0)


def test_rect_matches_dual_form():
    ghd = make_function("GHD,2,1")
    # Charges only the first two columns, so alpha's support shrinks.
    sparse = InputDistribution(tuple(
        (Fraction(1, 8), Fraction(1, 8), Fraction(0), Fraction(0)) for _ in range(4)
    ))
    for label, f in corpus_functions():
        for z in range(f.z_size):
            if f.x_size == 2:
                for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 4)):
                    ref = _alpha_rect(f, eps, z, None, "rational")
                    r = rect_dual(f, eps, z, None, "rational")
                    assert r.value == ref, (label, eps, z)
                    assert check_witness(r, f) == (True, ref), (label, eps, z)
                continue
            mus = (None, sparse) if f == ghd else (None,)
            for mu in mus:
                for eps in (0.0, 0.1):
                    ref = _alpha_rect(f, eps, z, mu, "float")
                    r = rect_dual(f, eps, z, mu)
                    assert abs(r.value - ref) < 1e-9, (label, eps, z, mu)
                    feasible, objective = check_witness(r, f)
                    assert feasible and abs(objective - ref) < 1e-9, (label, eps, z, mu)


def test_rect_dual_below_srec_on_corpus():
    for label, f in corpus_functions():
        for z in range(f.z_size):
            if not f.preimage(z):
                continue
            r = rect_dual(f, 0.1, z)
            s = srec(f, 0.1, z)
            assert r.value <= s.value + 1e-6, label


def test_corruption_constant_function():
    alpha, feasible, objective = corruption_witness(CONST1, UNIFORM_2x2, 1, 1, 1)
    assert feasible
    assert abs(objective - 1) < 1e-12
    assert sum(alpha.values()) == 1


def test_corruption_eq2():
    f = make_function("EQ,2")
    mu = _uniform(f)
    alpha, feasible, objective = corruption_witness(
        f, mu, Fraction(1, 8), Fraction(1, 2), 1
    )
    if feasible:
        assert objective <= rect_dual(f, 0, 1).value + 1e-6


def test_corruption_never_beats_rect_dual():
    rng = random.Random(29)
    for label, f in corpus_functions():
        if f.z_size != 2:
            continue
        mu = _random_mu(rng, f.x_size, f.y_size)
        beta = Fraction(rng.randint(1, 4), 4)
        _, feasible, objective = corruption_witness(f, mu, beta, Fraction(1, 2), 1)
        if feasible:
            assert objective <= rect_dual(f, 0, 1, mode="float").value + 1e-6, label


def test_corruption_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        corruption_witness(CONST1, UNIFORM_2x2, 0, 1, 1)
    with pytest.raises(ParameterError):
        corruption_witness(CONST1, UNIFORM_2x2, 1, -1, 1)


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------


def test_discrepancy_constant_function():
    f = make_function("CONST,0")
    assert discrepancy(f, UNIFORM_2x2) == 1


def test_discrepancy_and():
    assert discrepancy(AND1, UNIFORM_2x2) == Fraction(1, 2)


def test_discrepancy_matches_enumeration_oracle():
    # Independent enumeration over explicit row/column subsets.
    functions = [make_function("GT,1")] + [f for _, f in corpus_functions()]
    for f in functions:
        mu = _uniform(f)
        best = Fraction(0)
        for rows in range(1, 1 << f.x_size):
            for cols in range(1, 1 << f.y_size):
                bal = Fraction(0)
                for x in range(f.x_size):
                    for y in range(f.y_size):
                        if rows >> x & 1 and cols >> y & 1:
                            fz = f.value(x, y)
                            if fz == 0:
                                bal += mu.prob(x, y)
                            elif fz == 1:
                                bal -= mu.prob(x, y)
                best = max(best, abs(bal))
        assert discrepancy(f, mu) == best


def test_best_rectangle_matches_brute_force():
    rng = random.Random(41)
    for _ in range(60):
        x_size, y_size = rng.randint(1, 4), rng.randint(1, 4)
        grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(y_size)]
                for _ in range(x_size)]
        sums = _brute_rectangle_sums(grid)
        assert bounds._best_rectangle(grid, Caps()) == (max(sums), min(sums))


def test_best_rectangle_enforces_rect_side_cap():
    grid = [[Fraction(1)] * 3 for _ in range(3)]
    with pytest.raises(CapacityError):
        bounds._best_rectangle(grid, Caps(rect_side=2))
    with pytest.raises(CapacityError):
        discrepancy(EQ1, UNIFORM_2x2, Caps(rect_side=1))


def test_discrepancy_eq1_value():
    # Best rectangle is a single off-diagonal cell; the full square balances.
    assert discrepancy(EQ1, UNIFORM_2x2) == Fraction(1, 4)


def test_discrepancy_requires_two_outputs():
    f = PartialFunction.from_rows([[0, 1], [2, 0]], z_size=3)
    with pytest.raises(ParameterError):
        discrepancy(f, _uniform(f))


# ---------------------------------------------------------------------------
# Orderings, monotonicity, witnesses
# ---------------------------------------------------------------------------


def test_chain_report_on_corpus():
    for label, f in corpus_functions():
        report = verify_bound_chain(f, 0.1)
        assert report.passed, (label, report.failures)
        assert report.bprt_value <= report.prt_value + 1e-6


def test_bounds_decrease_with_eps():
    for fn in (bprt, prt):
        values = [fn(EQ1, e).value for e in (0, 0.05, 0.1, 0.25)]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-9


def test_bprt_mu_never_exceeds_bprt():
    rng = random.Random(17)
    for label, f in corpus_functions():
        top = bprt(f, 0.1).value
        for _ in range(3):
            mu = _random_mu(rng, f.x_size, f.y_size)
            assert bprt_mu(f, mu, 0.1).value <= top + 1e-6, label


def test_check_witness_round_trip():
    cases = [
        (bprt(EQ1, 0.1), None),
        (prt(EQ1, 0.25), None),
        (bprt_mu(AND1, UNIFORM_2x2, 0.05), UNIFORM_2x2),
        (srec(EQ1, 0.1, 1), None),
        (rect_dual(AND1, 0.1, 1), None),
    ]
    for result, mu in cases:
        feasible, objective = check_witness(result, EQ1 if mu is None else AND1, mu)
        assert feasible, result.bound_name
        assert abs(objective - result.value) < 1e-6


def _unchecked(witness, **fields):
    """A copy of `witness` with `fields` replaced, past its constructor's
    checks."""
    out = copy.copy(witness)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_check_witness_rejects_tampered_witnesses(mode):
    # Each witness checks out, then is broken in one condition.
    def eps(p, q):
        return Fraction(p, q) if mode == "rational" else p / q

    eq2 = make_function("EQ,2")
    b = bprt(EQ1, eps(1, 10), mode)
    p = prt(EQ1, eps(1, 4), mode)
    m = bprt_mu(AND1, UNIFORM_2x2, eps(1, 20), mode)
    s = srec(EQ1, eps(1, 10), 1, mode)
    s_other = srec(EQ1, eps(1, 10), 0, mode)
    r = rect_dual(eq2, eps(1, 10), 1, mode=mode)
    r_and = rect_dual(AND1, eps(1, 10), 1, mode=mode)

    def wrong_labels(strategy):
        entries = [(rect, 1 - z, w) for rect, z, w in strategy.entries]
        return LabeledRectangleStrategy(entries, strategy.efficiency, 2, 2)

    raised = dict(s.primal_witness)
    raised[next(iter(raised))] += 1
    alpha = dict(r.primal_witness)
    alpha[(0, 0)] += 2  # the 1x1 rectangle on f^-1(1) now exceeds 1
    alpha_and = dict(r_and.primal_witness)
    alpha_and[(1, 1)] += 1  # 1 -> 2 on the only cell of f^-1(1); alpha still fits label 0
    cases = [
        (b, _unchecked(b.primal_witness, efficiency=b.primal_witness.efficiency / 2), EQ1, None),
        (b, wrong_labels(b.primal_witness), EQ1, None),
        (p, _unchecked(p.primal_witness, entries=p.primal_witness.entries[1:]), EQ1, None),
        (m, wrong_labels(m.primal_witness), AND1, UNIFORM_2x2),
        (s, raised, EQ1, None),
        (s, s_other.primal_witness, EQ1, None),  # fits label 0 only
        (r, alpha, eq2, None),
        (r_and, alpha_and, AND1, None),
    ]
    for result, tampered, f, mu in cases:
        assert check_witness(result, f, mu)[0] is True, result.bound_name
        tampered_result = dataclasses.replace(result, primal_witness=tampered)
        assert check_witness(tampered_result, f, mu)[0] is False, result.bound_name


def test_check_witness_needs_the_label():
    for result in (srec(EQ1, 0.1, 1), rect_dual(AND1, 0.1, 1)):
        assert result.label == 1
        with pytest.raises(ParameterError):
            check_witness(dataclasses.replace(result, label=None), EQ1)


def test_check_witness_bprt_mu_requires_mu():
    r = bprt_mu(AND1, UNIFORM_2x2, 0.05)
    with pytest.raises(ParameterError):
        check_witness(r, AND1)
    # mu, f and the strategy's grid must all have one shape.
    eq2 = make_function("EQ,2")
    mu4 = make_distribution("uniform", eq2)
    r4 = bprt_mu(eq2, mu4, 0.05)
    for result, f, mu in [(r, AND1, mu4), (r4, eq2, UNIFORM_2x2), (r, eq2, mu4)]:
        with pytest.raises(DimensionError):
            check_witness(result, f, mu)


def test_lp_bounds_check_caps_before_building(monkeypatch):
    # EQ,3 is over the float LP caps; each bound must say so before it
    # assembles the rectangle incidence its LP columns are read off.
    def no_build(*args, **kwargs):
        raise AssertionError("rectangle incidence built before the cap check")

    monkeypatch.setattr(bounds, "_rect_incidence", no_build)
    f = make_function("EQ,3")
    mu = make_distribution("uniform", f)
    calls = [
        lambda: bprt(f, 0.0),
        lambda: bprt_mu(f, mu, 0.0),
        lambda: prt(f, 0.0),
        lambda: srec(f, 0.0, 1),
        lambda: rect_dual(f, 0.0, 1),
    ]
    for call in calls:
        with pytest.raises(CapacityError):
            call()


# (pivots in phase 1 and 2, value) of float corpus LPs at eps = 0.1, with z = 1
# for srec and rect: a change to the pricing or ratio-test rule moves them.
_PINNED_LPS = {
    ("prt", "EQ,2"): ((101, 19), Fraction(11, 2)),
    ("bprt", "EQ,2"): ((69, 28), Fraction(11, 2)),
    ("bprt_mu", "EQ,2"): ((30, 16), Fraction(23, 5)),
    ("srec", "EQ,2"): ((23, 1), 3),
    ("rect", "EQ,2"): ((23, 1), 3),
    ("prt", "IP,2"): ((101, 26), Fraction(161, 30)),
    ("bprt", "IP,2"): ((60, 26), Fraction(161, 30)),
    ("bprt_mu", "IP,2"): ((35, 18), Fraction(68, 15)),
    ("srec", "IP,2"): ((10, 2), Fraction(5, 2)),
    ("rect", "IP,2"): ((10, 2), Fraction(5, 2)),
}


_PINNED_CALLS = {
    "prt": lambda f: prt(f, 0.1),
    "bprt": lambda f: bprt(f, 0.1),
    "bprt_mu": lambda f: bprt_mu(f, make_distribution("uniform", f), 0.1),
    "srec": lambda f: srec(f, 0.1, 1),
    "rect": lambda f: rect_dual(f, 0.1, 1),
}


def test_float_corpus_pivots_pinned(monkeypatch):
    solutions = []
    solve = bounds.lp_solve

    def recorded(*args):
        solutions.append(solve(*args))
        return solutions[-1]

    monkeypatch.setattr(bounds, "lp_solve", recorded)
    for (name, label), (pivots, value) in _PINNED_LPS.items():
        _PINNED_CALLS[name](make_function(label))
        sol = solutions[-1]
        assert (sol.pivots, sol.bland_pivots) == (pivots, 0), (name, label)
        assert abs(sol.objective_value - value) < 1e-9, (name, label)


def test_rect_incidence_memo_is_read_only():
    # One incidence per grid shape, shared by every LP: it cannot be written
    # to, and rect_dual's subset of the rectangles meeting alpha's support
    # is filtered from it without changing it.
    arrays = bounds._rect_incidence(4, 4)
    assert arrays[2].shape == (16, 15 * 15)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[2][0, 0] = False
    copies = [a.copy() for a in arrays]
    sparse = InputDistribution(tuple(
        (Fraction(1, 8), Fraction(1, 8), Fraction(0), Fraction(0)) for _ in range(4)
    ))
    ghd = make_function("GHD,2,1")
    rect_dual(ghd, 0.1, 0, sparse)
    assert bounds._rect_incidence(4, 4) is arrays
    assert all((a == b).all() for a, b in zip(arrays, copies))


def _highs_weight_form(f: PartialFunction, n_labels: int, rows) -> float:
    """min sum(w) over weights w_{R,z} >= 0, one per nonempty rectangle R and
    label z < n_labels, subject to `rows`: (cell, labels, lower, upper) bounds
    the total weight of the pairs (R, z) with R containing the cell and z in
    `labels`.  Built from the definitions and solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    rects = [r for r in enumerate_rectangles(f.x_size, f.y_size) if not r.is_empty]
    a_ub, b_ub = [], []
    for (x, y), labels, lower, upper in rows:
        row = [float(r.contains(x, y) and z in labels) for r in rects for z in range(n_labels)]
        if lower is not None:
            a_ub.append([-v for v in row])
            b_ub.append(-lower)
        if upper is not None:
            a_ub.append(row)
            b_ub.append(upper)
    res = linprog([1.0] * (len(rects) * n_labels), A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res.fun


def test_wide_grid_lps_solve(monkeypatch):
    # The weight-form LPs of 4x8 and 5x8 grids fit the float caps, and the
    # revised simplex finishes them, refactorizing its basis inverse on the
    # way.
    solutions = []

    def recording_lp_solve(problem, mode="float", caps=None):
        solutions.append(lp_solve(problem, mode, caps))
        return solutions[-1]

    monkeypatch.setattr(bounds, "lp_solve", recording_lp_solve)
    wide = PartialFunction.from_rows([[int(x == y % 4) for y in range(8)] for x in range(4)], 2)
    wider = PartialFunction.from_rows([[int(x == y % 5) for y in range(8)] for x in range(5)], 2)
    p, b = prt(wide, 0.1), bprt(wide, 0.1)
    for r in (p, b):
        assert abs(r.value - 5.5) < 1e-9
        feasible, objective = check_witness(r, wide)
        assert feasible and abs(objective - r.value) < 1e-6
    for sol in solutions:
        assert sum(sol.pivots) > solver._REFACTOR_EVERY
        assert sol.refactorizations == sum(sol.pivots) // solver._REFACTOR_EVERY
    exact = prt(wide, Fraction(1, 10), "rational", Caps().with_overrides(lp_vars_rational=8000))
    assert exact.value == Fraction(11, 2) and solutions[-1].path == "certified"
    assert check_witness(exact, wide) == (True, Fraction(11, 2))
    r = rect_dual(wider, 0.1, 1)
    assert check_witness(r, wider) == (True, pytest.approx(r.value, abs=1e-6))

    pytest.importorskip("scipy")
    cells = [(x, y) for x in range(4) for y in range(8)]
    every = range(2)
    prt_rows = [(c, {wide.value(*c)}, 0.9, None) for c in cells]
    prt_rows += [(c, every, 1, 1) for c in cells]
    bprt_rows = [(c, {wide.value(*c)}, 0.9, None) for c in cells]
    bprt_rows += [(c, every, None, 1) for c in cells]
    rect_rows = [(c, every, 0.9, None) if wider.value(*c) == 1 else (c, every, None, 0.1)
                 for c in wider.domain()]
    assert p.value == pytest.approx(_highs_weight_form(wide, 2, prt_rows), abs=1e-6)
    assert b.value == pytest.approx(_highs_weight_form(wide, 2, bprt_rows), abs=1e-6)
    assert r.value == pytest.approx(_highs_weight_form(wider, 1, rect_rows), abs=1e-6)


def test_lp_shape_checked_is_the_shape_solved(monkeypatch):
    # The early cap check must accept and reject exactly what lp_solve's own
    # check would, so it has to see the shape of the LP that gets built.
    checked, solved = [], []
    real_check, real_solve = bounds.check_lp_caps, bounds.lp_solve

    def check(num_vars, num_rows, mode, caps):
        checked.append((num_vars, num_rows))
        real_check(num_vars, num_rows, mode, caps)

    def solve(problem, mode="float", caps=None):
        solved.append((problem.num_vars, problem.num_rows))
        return real_solve(problem, mode, caps)

    monkeypatch.setattr(bounds, "check_lp_caps", check)
    monkeypatch.setattr(bounds, "lp_solve", solve)
    ghd = make_function("GHD,2,1")
    # mu charges only the first two columns, so rect_dual drops some rows.
    sparse = InputDistribution(tuple(
        (Fraction(1, 8), Fraction(1, 8), Fraction(0), Fraction(0)) for _ in range(4)
    ))
    for f, mu in ((EQ1, UNIFORM_2x2), (ghd, _uniform(ghd)), (ghd, sparse)):
        bprt(f, 0.1)
        prt(f, 0.1)
        bprt_mu(f, mu, 0.1)
        for z in range(f.z_size):
            srec(f, 0.1, z)
            rect_dual(f, 0.1, z, mu)
    assert checked == solved


def test_rational_matches_float():
    for f in (EQ1, AND1, CONST1):
        for fn in (bprt, prt):
            fv = fn(f, 0.1).value
            rv = fn(f, Fraction(1, 10), mode="rational").value
            assert abs(fv - float(rv)) < 1e-6


def _exact_bound_calls():
    """(f, mu, call) for the rational LPs of the bounds-exact benchmark
    workload: all five bounds on the 2x2 functions, and ten 4x4 LPs."""
    calls = []
    for label in ("CONST,1", "AND,1", "EQ,1"):
        f = make_function(label)
        mu = _uniform(f)
        labels = [z for z in range(f.z_size) if f.preimage(z)]
        for eps in (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
            calls += [
                (f, mu, lambda f=f, eps=eps: bprt(f, eps, mode="rational")),
                (f, mu, lambda f=f, eps=eps: prt(f, eps, mode="rational")),
                (f, mu, lambda f=f, mu=mu, eps=eps: bprt_mu(f, mu, eps, mode="rational")),
            ]
            calls += [(f, mu, lambda f=f, eps=eps, z=z: srec(f, eps, z, mode="rational"))
                      for z in labels]
            calls += [(f, mu, lambda f=f, eps=eps, z=z: rect_dual(f, eps, z, None, "rational"))
                      for z in labels]
    for label, eps, z in (("GT,2", 0, 0), ("DISJ,2", 0, 1), ("IP,2", 0, 1), ("EQ,2", 0, 1),
                          ("GT,2", Fraction(1, 10), 1), ("GHD,2,1", Fraction(1, 10), 0),
                          ("GHD,2,1", 0, 0)):
        f = make_function(label)
        calls.append((f, None, lambda f=f, eps=Fraction(eps), z=z: srec(f, eps, z, mode="rational")))
    ghd = make_function("GHD,2,1")
    calls.append((ghd, None, lambda: rect_dual(ghd, Fraction(0), 0, None, "rational")))
    for label in ("GT,2", "DISJ,2"):
        f = make_function(label)
        mu = _uniform(f)
        calls.append((f, mu, lambda f=f, mu=mu: bprt_mu(f, mu, Fraction(0), mode="rational")))
    return calls


def test_exact_bound_lps_certify_without_fallback(monkeypatch, fail_float_simplex):
    solutions = []

    def recording_lp_solve(problem, mode="float", caps=None):
        solutions.append(lp_solve(problem, mode, caps))
        return solutions[-1]

    monkeypatch.setattr(bounds, "lp_solve", recording_lp_solve)
    calls = _exact_bound_calls()
    results = [call() for _, _, call in calls]
    assert len(calls) == 86
    assert [s.path for s in solutions] == ["certified"] * len(calls)
    for (f, mu, _), r in zip(calls, results):
        assert isinstance(r.value, Fraction) and r.dual_value == r.value
        assert check_witness(r, f, mu) == (True, r.value)

    # The exact simplex alone reaches the same values.
    solutions.clear()
    fail_float_simplex()
    assert [call().value for _, _, call in calls] == [r.value for r in results]
    assert [s.path for s in solutions] == ["exact"] * len(calls)


def test_rect_dual_eq2_rational_pinned():
    f = make_function("EQ,2")
    start = time.perf_counter()
    r = rect_dual(f, Fraction(1, 10), 0, None, "rational")
    assert time.perf_counter() - start < 1.0
    assert r.value == Fraction(5, 2)
    assert check_witness(r, f) == (True, Fraction(5, 2))


def test_eps_validation():
    for fn in (bprt, prt):
        with pytest.raises(ParameterError):
            fn(EQ1, 1.0)
        with pytest.raises(ParameterError):
            fn(EQ1, -0.1)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_row_format():
    r = prt(CONST1, 0.0)
    row = csv_row(r, "const", CONST1)
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.startswith("prt,const,2,2,2,")
    assert row.endswith(",optimal")
    quoted = csv_row(r, "corpus:CONST,1", CONST1)
    assert quoted.startswith('prt,"corpus:CONST,1",2,2,2,')


def test_csv_label_quoting():
    assert csv_label("plain") == "plain"
    assert csv_label("corpus:EQ,1") == '"corpus:EQ,1"'


def test_strategy_invariants_enforced():
    full = Rectangle((1 << 2) - 1, (1 << 2) - 1)
    with pytest.raises(ParameterError):
        LabeledRectangleStrategy([(full, 1, Fraction(1, 2))], Fraction(1), 2, 2)
    with pytest.raises(ParameterError):
        LabeledRectangleStrategy(
            [(full, 1, Fraction(1))], Fraction(1, 2), 2, 2
        )
