"""Lower-bound LPs: pinned values, orderings, witnesses, and CSV output."""

import copy
import dataclasses
import random
import time
from fractions import Fraction

import numpy as np
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


def _column_sums_reference(grid):
    """Yield, for every nonempty row set A, the column sums of `grid` over
    A; each is an earlier sum plus one row, so the rows are added highest
    first."""
    sums = [None] * (1 << len(grid))
    sums[0] = [v * 0 for v in grid[0]]
    for a in range(1, len(sums)):
        low = a & -a
        sums[a] = [s + v for s, v in zip(sums[a ^ low], grid[low.bit_length() - 1])]
        yield sums[a]


def _best_rectangle_reference(grid) -> tuple:
    """(max, min) rectangle total of `grid`, summed in Python over the row
    sets of `_column_sums_reference`."""
    hi = lo = 0
    for sums in _column_sums_reference(grid):
        hi = max(hi, sum(s for s in sums if s > 0))
        lo = min(lo, sum(s for s in sums if s < 0))
    return hi, lo


def test_best_rectangle_matches_brute_force():
    # Exact grids are summed in int64, or in Python ints when the scaled
    # sums could pass 2^62 (large denominators); float grids bit for bit as
    # the Python sums add them.
    rng = random.Random(41)
    dtypes = set()
    for _ in range(60):
        x_size, y_size = rng.randint(1, 4), rng.randint(1, 4)
        for top, den in ((9, 6), (10**6, 2**40)):
            grid = [[Fraction(rng.randint(-top, top), rng.randint(1, den)) for _ in range(y_size)]
                    for _ in range(x_size)]
            sums = _brute_rectangle_sums(grid)
            assert bounds._best_rectangle(grid, Caps()) == (max(sums), min(sums))
            dtypes.add(bounds._row_set_sums(grid)[0].dtype)
        cells = [(x, y) for x in range(x_size) for y in range(y_size) if rng.random() < 0.4]
        f = PartialFunction.from_rows([[0] * y_size for _ in range(x_size)], 1)
        assert bounds._rects_meeting(f, cells) == sum(
            1 for r in enumerate_rectangles(x_size, y_size)
            if not r.is_empty and any(r.contains(*c) for c in cells))
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    for _ in range(200):
        x_size, y_size = rng.randint(1, 5), rng.randint(1, 4)
        grid = [[rng.choice((0, -0.0)) if rng.random() < 0.15
                 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3)
                 for _ in range(y_size)] for _ in range(x_size)]
        got, want = bounds._best_rectangle(grid, Caps()), _best_rectangle_reference(grid)
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want], grid


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
# for srec and rect: a change to the pricing or ratio-test rule, or to the
# reduction of the LP solved, moves them.
_PINNED_LPS = {
    ("prt", "EQ,2"): ((6, 5), Fraction(11, 2)),
    ("bprt", "EQ,2"): ((5, 5), Fraction(11, 2)),
    ("bprt_mu", "EQ,2"): ((3, 3), Fraction(23, 5)),
    ("srec", "EQ,2"): ((3, 2), 3),
    ("rect", "EQ,2"): ((3, 2), 3),
    ("prt", "IP,2"): ((13, 6), Fraction(161, 30)),
    ("bprt", "IP,2"): ((9, 8), Fraction(161, 30)),
    ("bprt_mu", "IP,2"): ((9, 4), Fraction(68, 15)),
    ("srec", "IP,2"): ((3, 3), Fraction(5, 2)),
    ("rect", "IP,2"): ((3, 3), Fraction(5, 2)),
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


# A 4x8 table whose LPs colour refinement leaves at full size.
_ASYMMETRIC_4X8 = PartialFunction.from_rows([
    [0, 1, 0, 1, 1, 0, 0, 0], [0, 1, 1, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 1, 0, 0], [1, 1, 1, 0, 1, 1, 0, 0],
], 2)


def test_wide_grid_lps_solve(monkeypatch):
    # The weight-form LPs of 4x8 and 5x8 grids fit the float caps, and the
    # revised simplex finishes them; on a table that colour refinement does
    # not reduce it solves the full 64 x 7,650 LPs, refactorizing its basis
    # inverse on the way.  prt on the wide table folds from 64 x 7,650 to
    # 4 x 100 (4 x 214 over the orbits of its grid symmetries).
    solutions = []

    def recording_lp_solve(problem, mode="float", caps=None):
        solutions.append(lp_solve(problem, mode, caps))
        return solutions[-1]

    monkeypatch.setattr(bounds, "lp_solve", recording_lp_solve)
    wide = PartialFunction.from_rows([[int(x == y % 4) for y in range(8)] for x in range(4)], 2)
    wider = PartialFunction.from_rows([[int(x == y % 5) for y in range(8)] for x in range(5)], 2)
    p, b = prt(wide, 0.1), bprt(wide, 0.1)
    assert p.lp_shape == (4, 100)
    for r in (p, b):
        assert abs(r.value - 5.5) < 1e-9
        feasible, objective = check_witness(r, wide)
        assert feasible and abs(objective - r.value) < 1e-6
    solutions.clear()
    full = [fn(_ASYMMETRIC_4X8, 0.1) for fn in (prt, bprt)]
    for r, sol in zip(full, solutions):
        assert r.lp_shape == (64, 7650)
        assert sum(sol.pivots) > solver._REFACTOR_EVERY
        assert sol.refactorizations == sum(sol.pivots) // solver._REFACTOR_EVERY
        feasible, objective = check_witness(r, _ASYMMETRIC_4X8)
        assert feasible and abs(objective - r.value) < 1e-6
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
    f = _ASYMMETRIC_4X8
    prt_rows = [(c, {f.value(*c)}, 0.9, None) for c in cells] + [(c, every, 1, 1) for c in cells]
    bprt_rows = [(c, {f.value(*c)}, 0.9, None) for c in cells]
    bprt_rows += [(c, every, None, 1) for c in cells]
    assert full[0].value == pytest.approx(_highs_weight_form(f, 2, prt_rows), abs=1e-9)
    assert full[1].value == pytest.approx(_highs_weight_form(f, 2, bprt_rows), abs=1e-9)


def test_lp_shape_checked_is_the_shape_solved(monkeypatch):
    # The early cap check sees the shape of the full LP, and the LP solved
    # over its classes is no larger: so the caps accept and reject
    # by the full shape, and lp_solve's own check never refuses what the
    # early check let through.
    checked, solved, results = [], [], []
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
    full = []  # (vars, rows) of each full LP, counted from the definitions

    def rectangles(f, cells):
        return sum(1 for r in enumerate_rectangles(f.x_size, f.y_size)
                   if not r.is_empty and any(r.contains(*c) for c in cells))

    for f, mu in ((EQ1, UNIFORM_2x2), (ghd, _uniform(ghd)), (ghd, sparse)):
        grid = [(x, y) for x in range(f.x_size) for y in range(f.y_size)]
        n = len(grid)
        results += [bprt(f, 0.1), prt(f, 0.1), bprt_mu(f, mu, 0.1)]
        full += [(rectangles(f, grid) * f.z_size, rows)
                 for rows in (2 * n, len(f.domain()) + n, 1 + n)]
        for z in range(f.z_size):
            charged = [c for c in f.domain() if mu.prob(*c) > 0]
            results += [srec(f, 0.1, z), rect_dual(f, 0.1, z, mu)]
            full += [(rectangles(f, grid), len(f.domain()) + len(f.preimage(z))),
                     (rectangles(f, charged), len(charged))]
    assert checked == full
    assert [(v, r) for r, v in (res.lp_shape for res in results)] == solved
    assert all(v <= fv and r <= fr for (v, r), (fv, fr) in zip(solved, checked))
    assert any(v < fv for (v, _), (fv, _) in zip(solved, checked))


# ---------------------------------------------------------------------------
# The equitable partition of the weight-form LP
# ---------------------------------------------------------------------------


def _recorded_weight_forms(monkeypatch) -> list:
    """Record every weight-form LP the bounds build: (f, mode, rows,
    n_labels, meet, its full-size solution, stats)."""
    records, build = [], bounds._weight_form

    def recording(name, f, mode, caps, rows, n_labels=1, meet=None):
        out = build(name, f, mode, caps, rows, n_labels, meet)
        records.append((f, mode, rows, n_labels, meet, out[0], out[3]))
        return out

    monkeypatch.setattr(bounds, "_weight_form", recording)
    return records


def _full_lp(f: PartialFunction, n_labels: int, rows, meet):
    """The weight-form LP at full size, from its definition: one column per
    (nonempty rectangle meeting `meet`, all when None, label z), in
    enumeration order; a (cell, c) term of a row adds c to every column
    whose rectangle contains the cell and whose label the row counts.
    Returns the columns, the cell x column incidence and the matrix (an
    object array of the rows' own numbers)."""
    rects = [r for r in enumerate_rectangles(f.x_size, f.y_size) if not r.is_empty
             and (meet is None or any(r.contains(*c) for c in meet))]
    columns = [(r, z) for r in rects for z in range(n_labels)]
    cells = [(x, y) for x in range(f.x_size) for y in range(f.y_size)]
    inside = np.array([[r.contains(*c) for r, _ in columns] for c in cells], dtype=bool)
    inside = inside.reshape(len(cells), len(columns))
    labels = np.array([z for _, z in columns], dtype=int)
    matrix = np.zeros((len(rows), len(columns)), dtype=object)
    for i, (terms, correct, _, _) in enumerate(rows):
        for (x, y), c in terms:
            counted = inside[x * f.y_size + y]
            if correct and f.value(x, y) is not None:
                counted = counted & (labels == f.value(x, y))
            matrix[i] += np.where(counted, c, 0)
    return columns, inside, matrix


def _class_sums(matrix: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The columns of `matrix` summed within each class of `ids` (numbered
    0, 1, ..., each class nonempty): one column per class."""
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(ids.max(initial=-1) + 1))
    if not matrix.size:
        return np.zeros((matrix.shape[0], len(starts)), dtype=object)
    return np.add.reduceat(matrix[:, order], starts, axis=1)


def _check_equitable(f: PartialFunction, rows, n_labels: int, meet, mode: str, stats,
                     full) -> None:
    """The classes of the reduced LP are numbered in the order of their first
    member, and the LP solved has one row per row class and one column per
    column class.  The rows of a class share their relation and rhs and
    have equal sums over each column class; the columns of a class have
    equal sums over each row class: the partition is equitable, in exact
    arithmetic on the full LP's own numbers."""
    classes = bounds._lp_classes(f, rows, n_labels, meet, mode, Caps(lp_vars_rational=50_000))
    columns, _, matrix = full
    row_ids, col_ids = np.array(classes.row_class, int), np.array(classes.columns, int)
    assert len(row_ids) == len(rows) and len(col_ids) == len(columns)
    for ids in (row_ids, col_ids):
        values, first = np.unique(ids, return_index=True)
        assert values.tolist() == list(range(len(values))) and (np.diff(first) > 0).all()
    assert classes.reps == np.unique(row_ids, return_index=True)[1].tolist()
    assert stats["lp_shape"] == (row_ids.max(initial=-1) + 1, col_ids.max(initial=-1) + 1)
    if mode == "float":  # the exact value of every float coefficient
        distinct, at = np.unique(matrix.astype(float), return_inverse=True)
        matrix = np.array([Fraction(v) for v in distinct], dtype=object)[at.reshape(-1)]
        matrix = matrix.reshape(len(rows), len(columns))
    over_columns = _class_sums(matrix, col_ids)
    over_rows = _class_sums(matrix.T, row_ids)
    for ids, sums in ((row_ids, over_columns), (col_ids, over_rows)):
        for members in (np.flatnonzero(ids == k) for k in range(ids.max(initial=-1) + 1)):
            assert (sums[members] == sums[members[0]]).all()
    for i, q in enumerate(row_ids):
        first = rows[classes.reps[q]]
        assert (rows[i][2], rows[i][3]) == (first[2], first[3])


def _check_full_solution(mode: str, rows, sol, full) -> None:
    """Float: the value within 1e-9 of HiGHS on the full LP.  Rational: the
    expanded primal and dual are exactly feasible on the full LP, over all
    its rectangles, and both reach the value."""
    columns, _, matrix = full
    rels, rhs = [rel for _, _, rel, _ in rows], [b for _, _, _, b in rows]
    x, y = sol.primal, sol.dual
    assert len(x) == len(columns) and len(y) == len(rows)
    if mode == "float":
        pytest.importorskip("scipy")
        from scipy.optimize import linprog

        a = matrix.astype(float)
        ub = [i for i, rel in enumerate(rels) if rel != "="]
        eq = [i for i, rel in enumerate(rels) if rel == "="]
        flip = np.array([-1.0 if rels[i] == ">=" else 1.0 for i in ub])
        if columns:
            res = linprog(np.ones(len(columns)),
                          A_ub=a[ub] * flip[:, None] if ub else None,
                          b_ub=np.array([rhs[i] for i in ub], dtype=float) * flip if ub else None,
                          A_eq=a[eq] if eq else None,
                          b_eq=[rhs[i] for i in eq] if eq else None,
                          bounds=(0, None), method="highs")
            assert res.status == 0 and abs(res.fun - sol.objective_value) < 1e-9
        else:
            assert sol.objective_value == 0
        return
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, rel, b, yi in zip(matrix, rels, rhs, y):
        lhs = sum(a * v for a, v in zip(row, x) if a)
        assert {"<=": lhs <= b, ">=": lhs >= b, "=": lhs == b}[rel]
        assert {"<=": yi <= 0, ">=": yi >= 0, "=": True}[rel]
    reduced = np.ones(len(columns), dtype=object)  # each column's reduced cost 1 - y.A_j
    for row, yi in zip(matrix, y):
        if yi:
            nz = row.nonzero()[0]
            reduced[nz] -= yi * row[nz]
    assert (reduced >= 0).all()
    assert sum(x) == sum(yi * b for yi, b in zip(y, rhs)) == sol.objective_value


def _random_table(rng: random.Random, x_size: int, y_size: int) -> PartialFunction:
    cells = [[rng.choice((0, 1, 2)) for _ in range(y_size)] for _ in range(x_size)]
    cells[0][0] = None
    return PartialFunction.from_rows(cells, 3)


def _meet_off_the_rows(mode: str, eps) -> list:
    """A weight form over the rectangles meeting two cells, one of which no
    row mentions: its columns are the rectangles meeting either cell."""
    bounds._weight_form("rect_dual", EQ1, mode, None, [([((0, 0), 1)], False, ">=", 1 - eps)],
                        meet=[(0, 0), (0, 1)])
    return []


_REDUCTION_CASES = {
    # A random table: no grid symmetry, but some identical columns.
    "random 4x4": lambda mode, eps: (
        lambda f: [bprt(f, eps, mode), prt(f, eps, mode), srec(f, eps, 1, mode),
                   rect_dual(f, eps, 2, None, mode)])(_random_table(random.Random(5), 4, 4)),
    # Symmetric under the transpose, composed with reversals for GT.
    "AND,1": lambda mode, eps: [bprt(AND1, eps, mode), srec(AND1, eps, 1, mode),
                                rect_dual(AND1, eps, 1, None, mode)],
    "GT,2": lambda mode, eps: [bprt(make_function("GT,2"), eps, mode),
                               srec(make_function("GT,2"), eps, 1, mode)],
    # A partial function.
    "GHD,2,1": lambda mode, eps: [
        fn(make_function("GHD,2,1"), eps, mode) for fn in (bprt, prt)] + [
        srec(make_function("GHD,2,1"), eps, 0, mode),
        rect_dual(make_function("GHD,2,1"), eps, 0, None, mode)],
    # A mu that breaks EQ,2's symmetry, and one that leaves rect_dual only
    # the cells of two columns.
    "skewed mu": lambda mode, eps: [
        bprt_mu(make_function("EQ,2"), _random_mu(random.Random(3), 4, 4), eps, mode)],
    "sparse mu": lambda mode, eps: [rect_dual(make_function("GHD,2,1"), eps, 0, InputDistribution(
        tuple((Fraction(1, 8), Fraction(1, 8), Fraction(0), Fraction(0)) for _ in range(4))),
        mode)],
    "4x8": lambda mode, eps: (
        lambda f, caps=Caps().with_overrides(lp_vars_rational=8000): [
            srec(f, eps, 1, mode, caps), rect_dual(f, eps, 0, None, mode, caps)])(
            PartialFunction.from_rows([[int(x == y % 4) for y in range(8)] for x in range(4)], 2)),
    # The same table transposed.
    "8x4": lambda mode, eps: [srec(PartialFunction.from_rows(
        [[int(x % 4 == y) for y in range(4)] for x in range(8)], 2), eps, 1, mode,
        Caps().with_overrides(lp_vars_rational=8000))],
    "meet off the rows": lambda mode, eps: _meet_off_the_rows(mode, eps),
    # No row at all: mu charges only cells off the promise.
    "no rows": lambda mode, eps: [rect_dual(
        PartialFunction.from_rows([[0, None], [None, 1]], z_size=2), eps, 0,
        InputDistribution(((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))),
        mode)],
}


# The (rows, vars) of each LP of a case as solved over the orbits of its
# group of grid symmetries: no LP of the equitable partition is larger.
_ORBIT_SHAPES = {
    "random 4x4": [(32, 675), (31, 675), (11, 137), (15, 224)],
    "AND,1": [(6, 12), (4, 6), (3, 6)],
    "GT,2": [(20, 240), (14, 120)],
    "GHD,2,1": [(6, 56), (5, 56), (3, 28), (2, 25)],
    "skewed mu": [(17, 450)],
    "sparse mu": [(2, 63)],
    "4x8": [(3, 107), (2, 107)],
    "8x4": [(3, 107)],
    "meet off the rows": [(1, 6)],
    "no rows": [(0, 0)],
}


@pytest.mark.parametrize("case", list(_REDUCTION_CASES))
def test_reduced_lp_is_the_full_lp(monkeypatch, case):
    # The partition of each LP is equitable, and the reduced LP's expanded
    # solution is optimal for the full LP: within 1e-9 of HiGHS in float,
    # exactly feasible and at the value in rational mode.
    records = _recorded_weight_forms(monkeypatch)
    for mode, eps in (("float", 0.1), ("rational", Fraction(1, 10))):
        for r in _REDUCTION_CASES[case](mode, eps):
            assert r.lp_shape is not None
    shapes = {"float": [], "rational": []}
    for f, mode, rows, n_labels, meet, sol, stats in records:
        full = _full_lp(f, n_labels, rows, meet)
        _check_equitable(f, rows, n_labels, meet, mode, stats, full)
        _check_full_solution(mode, rows, sol, full)
        shapes[mode].append(stats["lp_shape"])
    assert shapes["float"] == shapes["rational"]
    assert len(shapes["float"]) == len(_ORBIT_SHAPES[case])
    assert all(r <= orbit_r and v <= orbit_v for (r, v), (orbit_r, orbit_v)
               in zip(shapes["float"], _ORBIT_SHAPES[case])), shapes["float"]


def test_label_swaps_and_identical_columns_fold():
    # Classes need no grid symmetry: EQ,1's bprt folds its two labels into
    # one (4 x 8 over the orbits of its grid symmetries), and GHD,2,1's
    # bprt folds label swaps and identical columns (6 x 56 over the orbits).
    for mode, eps in (("float", 0.1), ("rational", Fraction(1, 10))):
        assert bprt(EQ1, eps, mode).lp_shape == (2, 4)
        assert bprt(make_function("GHD,2,1"), eps, mode).lp_shape == (4, 25)


def test_reduction_is_exact_on_random_tables(monkeypatch):
    # On random partial 2x2 to 3x4 tables with 2 or 3 labels, every bound's
    # partition is equitable and its expanded solution is optimal for the
    # full LP, in both arithmetics.
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("scipy")
    st = hypothesis.strategies
    records = _recorded_weight_forms(monkeypatch)

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False))
    def check(rng):
        x_size, y_size, z_size = rng.randint(2, 3), rng.randint(2, 4), rng.randint(2, 3)
        table = [[rng.choice((None, *range(z_size))) for _ in range(y_size)]
                 for _ in range(x_size)]
        table[rng.randrange(x_size)][rng.randrange(y_size)] = rng.randrange(z_size)
        f = PartialFunction.from_rows(table, z_size)
        mu = _random_mu(rng, x_size, y_size)
        eps = Fraction(rng.randint(0, 3), 10)
        records.clear()
        for mode in ("float", "rational"):
            e = eps if mode == "rational" else float(eps)
            bprt(f, e, mode), prt(f, e, mode), bprt_mu(f, mu, e, mode)
            for z in range(z_size):
                if f.preimage(z):
                    srec(f, e, z, mode), rect_dual(f, e, z, mu, mode)
        for g, mode, rows, n_labels, meet, sol, stats in records:
            full = _full_lp(g, n_labels, rows, meet)
            _check_equitable(g, rows, n_labels, meet, mode, stats, full)
            _check_full_solution(mode, rows, sol, full)

    check()


def test_orbit_memo_is_bounded(monkeypatch):
    # The memo of reduced LPs keeps at most _MEMO_ENTRIES entries and
    # _MEMO_BYTES, its matrices included, dropping the oldest first; a
    # dropped LP is solved the same way again.
    memo = {}
    monkeypatch.setattr(bounds, "_MEMO", memo)
    monkeypatch.setattr(bounds, "_MEMO_BYTES", 70_000)  # a GT,2 bprt or prt entry takes 47 kB
    gt = make_function("GT,2")
    calls = [lambda: bprt(gt, 0.1), lambda: prt(gt, 0.1), lambda: srec(gt, 0.1, 1),
             lambda: srec(AND1, 0.1, 1), lambda: rect_dual(EQ1, 0.1, 1)]
    first = [call() for call in calls]
    assert sum(o.nbytes for o in memo.values()) <= 70_000
    assert [k[:3] for k in memo] == [(4, 4, 2), (4, 4, 1), (2, 2, 1), (2, 2, 1)]
    for entry in memo.values():
        assert entry.nbytes > entry.matrix.nbytes + entry.objective.nbytes
    monkeypatch.setattr(bounds, "_MEMO_ENTRIES", 2)
    again = [call() for call in calls]
    assert [k[:3] for k in memo] == [(2, 2, 1), (2, 2, 1)]  # the most recent, in order
    assert [(r.value, r.lp_shape) for r in again] == [(r.value, r.lp_shape) for r in first]
    # An entry larger than the bound alone is solved but not kept, and the
    # memo keeps what it held.
    monkeypatch.setattr(bounds, "_MEMO_ENTRIES", 256)
    monkeypatch.setattr(bounds, "_MEMO_BYTES", 40_000)
    kept = dict(memo)
    assert bprt(gt, 0.1) == first[0]
    assert memo == kept
    # A rational entry counts its object arrays at least at pointer size.
    rational = bprt(gt, Fraction(1, 10), "rational")
    assert memo == kept and rational.lp_shape == first[0].lp_shape
    monkeypatch.setattr(bounds, "_MEMO_BYTES", 16 << 20)
    bprt(gt, Fraction(1, 10), "rational")
    entry = memo[next(reversed(memo))]
    assert entry.matrix.dtype == object and entry.nbytes >= 8 * (
        entry.matrix.size + entry.objective.size)


# ---------------------------------------------------------------------------
# The memoized reduced LP
# ---------------------------------------------------------------------------


_FIVE_BOUNDS = {
    "bprt": lambda f, eps, mode: bprt(f, eps, mode),
    "prt": lambda f, eps, mode: prt(f, eps, mode),
    "bprt_mu": lambda f, eps, mode: bprt_mu(f, _uniform(f), eps, mode),
    "srec": lambda f, eps, mode: srec(f, eps, 1, mode),
    "rect": lambda f, eps, mode: rect_dual(f, eps, 1, None, mode),
}


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_memo_hit_builds_only_the_rhs(monkeypatch, mode):
    # An LP of a structure already in the memo, at another eps, builds no
    # matrix, and its result equals that of a cold memo.
    builds = []
    build = bounds._reduced_matrix

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(bounds, "_reduced_matrix", counted)
    gt = make_function("GT,2")
    eps = (0.1, 0.2) if mode == "float" else (Fraction(1, 10), Fraction(1, 5))
    for name, call in _FIVE_BOUNDS.items():
        monkeypatch.setattr(bounds, "_MEMO", {})
        call(gt, eps[0], mode)
        assert len(builds) == 1, name
        warm = call(gt, eps[1], mode)
        assert len(builds) == 1, name
        monkeypatch.setattr(bounds, "_MEMO", {})
        assert call(gt, eps[1], mode) == warm, name
        assert len(builds) == 2, name
        builds.clear()


def test_memo_matrices_are_read_only(monkeypatch):
    monkeypatch.setattr(bounds, "_MEMO", {})
    gt = make_function("GT,2")
    bprt(gt, 0.1)
    bprt(gt, Fraction(1, 10), "rational")
    (_, floats), (_, exact) = bounds._MEMO.items()
    assert floats.matrix.dtype == floats.objective.dtype == np.float64
    assert exact.matrix.dtype == exact.objective.dtype == object
    assert {type(v) for v in (*exact.matrix.flat, *exact.objective)} <= {int, Fraction}
    for entry in (floats, exact):
        for array in (entry.matrix, entry.objective):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("first", ["float", "rational"])
def test_float_and_rational_lps_keep_apart(monkeypatch, first):
    # A float and a rational LP of one structure have equal memo structures
    # (1.0 == 1 and 0.0625 == Fraction(1, 16)); each is solved in its own
    # arithmetic, as with a cold memo.
    gt = make_function("GT,2")
    mu = _uniform(gt)
    calls = {
        "float": lambda: [bprt(gt, 0.1), bprt_mu(gt, mu, 0.1)],
        "rational": lambda: [bprt(gt, Fraction(1, 10), "rational"),
                             bprt_mu(gt, mu, Fraction(1, 10), "rational")],
    }
    second = "rational" if first == "float" else "float"
    solved = []
    solve = bounds.lp_solve

    def recorded(problem, mode, caps):
        sol = solve(problem, mode, caps)
        solved.append((problem.matrix.dtype, sol.path))
        return sol

    monkeypatch.setattr(bounds, "lp_solve", recorded)
    monkeypatch.setattr(bounds, "_MEMO", {})
    calls[first]()
    solved.clear()
    results = calls[second]()
    monkeypatch.setattr(bounds, "_MEMO", {})
    assert results == calls[second]()
    if second == "rational":
        assert all(isinstance(r.value, Fraction) for r in results)
        assert solved[:2] == [(np.dtype(object), "certified")] * 2
    else:
        assert all(type(r.value) is float for r in results)
        assert solved[:2] == [(np.dtype(np.float64), "float")] * 2


def test_memo_hit_checks_the_full_shape(monkeypatch):
    # A memo hit checks the caps against the full LP's shape, read from its
    # entry, before anything is solved: GT,2's bprt is 450 vars x 32 rows,
    # solved at 240 x 20.
    monkeypatch.setattr(bounds, "_MEMO", {})
    gt = make_function("GT,2")
    assert bprt(gt, 0.1).lp_shape == (20, 240)
    assert len(bounds._MEMO) == 1

    def refuse(*args):
        raise AssertionError("called on a memo hit over the caps")

    monkeypatch.setattr(bounds, "lp_solve", refuse)
    monkeypatch.setattr(bounds, "_rects_meeting", refuse)
    for caps in (Caps(lp_vars_float=449), Caps(lp_rows_float=31), Caps(rect_side=3)):
        with pytest.raises(CapacityError):
            bprt(gt, 0.2, caps=caps)


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
