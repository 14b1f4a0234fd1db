"""LP engine: optimality, duality, degeneracy, and exact-mode agreement."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from commlb import solver
from commlb.caps import Caps
from commlb.errors import CapacityError, DimensionError, ParameterError
from commlb.solver import LpProblem, LpSolution, lp_solve


def _solve(sense, c, rows, rels, rhs, mode="float"):
    return lp_solve(LpProblem.build(sense, c, rows, rels, rhs), mode)


def test_simple_min():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 6; optimum at (1.6, 1.2).
    sol = _solve("min", [1, 1], [[1, 2], [3, 1]], [">=", ">="], [4, 6])
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 2.8) < 1e-9
    assert abs(sol.primal[0] - 1.6) < 1e-9 and abs(sol.primal[1] - 1.2) < 1e-9


def test_simple_max():
    # max 3x + 2y s.t. x + y <= 4, x <= 2; optimum (2, 2) value 10.
    sol = _solve("max", [3, 2], [[1, 1], [1, 0]], ["<=", "<="], [4, 2])
    assert abs(sol.objective_value - 10) < 1e-9


def test_equality_rows():
    sol = _solve("min", [1, 2], [[1, 1]], ["="], [3])
    assert abs(sol.objective_value - 3) < 1e-9
    assert abs(sol.primal[0] - 3) < 1e-9


def test_empty_lp():
    # No variables and no rows: the optimum is 0 at the empty point.
    for mode in ("float", "rational"):
        sol = _solve("min", [], [], [], [], mode)
        assert sol.status == "optimal" and sol.objective_value == 0
        assert sol.primal == () and sol.dual == ()


def test_infeasible():
    sol = _solve("min", [1], [[1], [1]], ["<=", ">="], [1, 2])
    assert sol.status == "infeasible"


def test_unbounded():
    sol = _solve("max", [1], [[1]], [">="], [0])
    assert sol.status == "unbounded"


def test_negative_rhs_normalization():
    # x >= 1 written as -x <= -1.
    sol = _solve("min", [1], [[-1]], ["<="], [-1])
    assert abs(sol.objective_value - 1) < 1e-9


def test_duals_strong_duality_min():
    problem = LpProblem.build(
        "min", [2, 3], [[1, 1], [1, 2]], [">=", ">="], [4, 6]
    )
    sol = lp_solve(problem)
    dual_obj = sum(y * b for y, b in zip(sol.dual, problem.rhs))
    assert abs(dual_obj - sol.objective_value) < 1e-9
    assert all(y >= -1e-9 for y in sol.dual)  # >= rows of a min problem


def test_duals_strong_duality_max():
    problem = LpProblem.build(
        "max", [3, 5], [[1, 0], [0, 2], [3, 2]], ["<=", "<=", "<="], [4, 12, 18]
    )
    sol = lp_solve(problem)
    assert abs(sol.objective_value - 36) < 1e-9
    dual_obj = sum(y * b for y, b in zip(sol.dual, problem.rhs))
    assert abs(dual_obj - 36) < 1e-9
    assert all(y >= -1e-9 for y in sol.dual)  # <= rows of a max problem


def test_rational_exact():
    sol = _solve(
        "min",
        [Fraction(1), Fraction(1)],
        [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]],
        [">=", ">="],
        [Fraction(4), Fraction(6)],
        mode="rational",
    )
    assert sol.objective_value == Fraction(14, 5)
    assert sol.primal == (Fraction(8, 5), Fraction(6, 5))
    dual_obj = sum(y * b for y, b in zip(sol.dual, (4, 6)))
    assert dual_obj == Fraction(14, 5)


def test_rational_matches_float_on_random_lps():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        c = [rng.randint(1, 5) for _ in range(n)]
        rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(1, 6) for _ in range(m)]
        rels = [rng.choice(["<=", ">="]) for _ in range(m)]
        problem = LpProblem.build("min", c, rows, rels, rhs)
        fsol = lp_solve(problem, "float")
        rsol = lp_solve(problem, "rational")
        assert fsol.path == "float"
        assert fsol.status == rsol.status
        if fsol.status == "optimal":
            assert abs(fsol.objective_value - float(rsol.objective_value)) < 1e-7


def test_badly_scaled_columns_match_rational():
    # Feasible, bounded LPs with each column (objective and rows) multiplied
    # by 10^k, k in [-6, 6].  The float simplex prices equilibrated columns;
    # its value must match the exact one, its primal must be feasible for
    # the rows as given (so the scaling is undone), and dual . rhs must
    # equal the value.
    rng = random.Random(19)
    for _ in range(100):
        n, m = rng.randint(2, 6), rng.randint(1, 5)
        point = [rng.randint(1, 3) for _ in range(n)]  # feasible once unscaled
        rows = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(m)]
        rels = [rng.choice(("<=", ">=", "=")) for _ in range(m)]
        rhs = [sum(a * v for a, v in zip(row, point)) + {"<=": 1, ">=": -1, "=": 0}[rel]
               * rng.randint(1, 2) for row, rel in zip(rows, rels)]
        sense = rng.choice(("min", "max"))
        scales = [Fraction(10) ** rng.randint(-6, 6) for _ in range(n)]
        cost = [rng.randint(1, 5) * (1 if sense == "min" else -1) * s for s in scales]
        problem = LpProblem.build(
            sense, cost, [[a * s for a, s in zip(row, scales)] for row in rows], rels, rhs
        )
        exact, sol = lp_solve(problem, "rational"), lp_solve(problem)
        assert exact.status == sol.status == "optimal"
        value = float(exact.objective_value)
        assert sol.objective_value == pytest.approx(value, rel=1e-7, abs=1e-12)
        A, b = problem.matrix.astype(float), problem.rhs.astype(float)
        x = np.array(sol.primal)
        lhs, tol = A @ x, 1e-7 * (abs(A) @ x + abs(b))
        for lhs_i, b_i, tol_i, rel in zip(lhs, b, tol, rels):
            assert {"<=": lhs_i <= b_i + tol_i, ">=": lhs_i >= b_i - tol_i,
                    "=": abs(lhs_i - b_i) <= tol_i}[rel]
        assert np.dot(sol.dual, b) == pytest.approx(value, rel=1e-7, abs=1e-12)


def test_float_simplex_holds_one_working_matrix():
    # A 66 x 8,000 LP of 30 % 0/1 entries with every third row negated
    # against rhs -1, so the simplex flips it back.  The float path scales
    # and flips its one working copy in place: the solve peaks under 1.5
    # times the matrix by tracemalloc (three copies before).
    rng = np.random.default_rng(0)
    matrix = (rng.random((66, 8000)) < 0.3).astype(float)
    rhs = np.ones(66)
    matrix[::3] *= -1
    rhs[::3] = -1
    problem = LpProblem("min", np.ones(8000), matrix, (">=",) * 66, rhs)
    tracemalloc.start()
    try:
        sol = lp_solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak <= 1.5 * matrix.nbytes, peak / matrix.nbytes


def test_degenerate_lp_terminates(fail_float_simplex):
    # Beale's cycling example: Dantzig pricing cycles on it when ratio ties
    # go to the least index; taking the largest pivot among them does not.
    sol = _solve(
        "min",
        [-0.75, 150, -0.02, 6],
        [
            [0.25, -60, -0.04, 9],
            [0.5, -90, -0.02, 3],
            [0, 0, 1, 0],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
    )
    assert sol.status == "optimal"
    assert abs(sol.objective_value - (-0.05)) < 1e-9
    # Every row starts with its slack basic, so phase 1 pivots nothing.
    assert sol.pivots[0] == 0 < sol.pivots[1]

    fail_float_simplex()
    problem = LpProblem.build(
        "min",
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
    )
    sol = lp_solve(problem, "rational")
    assert sol.path == "exact"
    assert sol.objective_value == Fraction(-1, 20)
    assert sol.pivots[0] == 0 < sol.pivots[1]
    _assert_exact_certificate(problem, sol)


def test_dantzig_cycle_ends_under_bland(fail_float_simplex, monkeypatch):
    # Hall and McKinnon's example ("The simplest examples where the simplex
    # method cycles", Math. Programming 2004, with a bounding row added)
    # cycles under Dantzig's rule whatever the ratio tie-break: in exact
    # arithmetic, which prices the columns as they are, the stall limit
    # hands over to Bland's rule, which ends it.  The float simplex prices
    # equilibrated columns and solves it in 2 pivots; with a stall limit of
    # 0 it takes one Bland pivot and ends at the same optimum.
    problem = LpProblem.build(
        "max",
        [Fraction(23, 10), Fraction(43, 20), Fraction(-271, 20), Fraction(-2, 5)],
        [
            [Fraction(2, 5), Fraction(1, 5), Fraction(-7, 5), Fraction(-1, 5)],
            [Fraction(-39, 5), Fraction(-7, 5), Fraction(39, 5), Fraction(2, 5)],
            [1, 1, 1, 1],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
    )
    sol = lp_solve(problem)
    assert abs(sol.objective_value - 0.875) < 1e-9
    assert (sol.pivots, sol.bland_pivots, sol.refactorizations) == ((0, 2), 0, 0)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_STALL_LIMIT", 0)
        sol = lp_solve(problem)
    assert abs(sol.objective_value - 0.875) < 1e-9
    assert (sol.pivots, sol.bland_pivots) == ((0, 3), 1)
    fail_float_simplex()
    sol = lp_solve(problem, "rational")
    assert sol.path == "exact"
    assert sol.objective_value == Fraction(7, 8)
    assert sol.pivots[0] == 0 and sol.pivots[1] > solver._STALL_LIMIT
    assert sol.refactorizations == 0
    assert 0 < sol.bland_pivots <= sol.pivots[1] - solver._STALL_LIMIT
    _assert_exact_certificate(problem, sol)


def test_caps_enforced():
    caps = Caps(lp_vars_float=2, lp_rows_float=2)
    problem = LpProblem.build("min", [1, 1, 1], [[1, 1, 1]], [">="], [1])
    with pytest.raises(CapacityError):
        lp_solve(problem, "float", caps)
    with pytest.raises(ParameterError):
        solver.check_lp_caps(1, 1, "exact", caps)


def test_build_validation():
    with pytest.raises(ParameterError):
        LpProblem.build("argmin", [1], [[1]], [">="], [1])
    with pytest.raises(ParameterError):
        LpProblem.build("min", [1], [[1]], ["=>"], [1])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError):
            LpProblem.build("min", [1], [[bad]], [">="], [1])
        with pytest.raises(ParameterError):
            LpProblem.build("min", [bad], [[1]], [">="], [1])
        with pytest.raises(ParameterError):
            LpProblem.build("min", [1], [[1]], [">="], [bad])
        with pytest.raises(ParameterError):
            LpProblem("min", np.ones(1), np.full((1, 1), bad), (">=",), np.ones(1))
    with pytest.raises(DimensionError):
        LpProblem("min", np.ones(2), np.ones((1, 1)), (">=",), np.ones(1))
    with pytest.raises(DimensionError):
        LpProblem.build("min", [1, 1], [[1]], [">="], [1])
    with pytest.raises(DimensionError):
        LpProblem.build("min", [1], [[1]], [">=", ">="], [1])


def test_float64_problem_solved_exactly(fail_float_simplex):
    # A float64 problem in rational mode is read exactly (0.1 is not 1/10).
    problem = LpProblem("min", np.array([1.0, 20.0]), np.array([[0.1, 1.0]]), (">=",),
                        np.array([0.5]))
    assert problem.matrix.dtype == float
    certified = lp_solve(problem, "rational")
    assert certified.path == "certified"
    assert certified.objective_value == Fraction(0.5) / Fraction(0.1)
    fail_float_simplex()
    exact = lp_solve(problem, "rational")
    assert exact.path == "exact"
    assert exact.objective_value == certified.objective_value


# ---------------------------------------------------------------------------
# Rational mode: certified float basis, exact simplex fallback
# ---------------------------------------------------------------------------


def _random_lp(rng: random.Random) -> LpProblem:
    """A small LP with mixed relations; some rows have rhs 0 (degenerate
    vertices) and some repeat a multiple of an earlier row (redundant)."""
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    rows, rels, rhs = [], [], []
    for _ in range(m):
        if rows and rng.random() < 0.2:
            k = rng.randrange(len(rows))
            scale = rng.choice((1, 2, Fraction(1, 3)))
            rows.append([scale * v for v in rows[k]])
            rels.append(rels[k])
            rhs.append(scale * rhs[k])
            continue
        rows.append([Fraction(rng.randint(-3, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)])
        rels.append(rng.choice(("<=", ">=", "=")))
        rhs.append(rng.choice((0, 0, rng.randint(-4, 6))))
    c = [Fraction(rng.randint(-3, 5)) for _ in range(n)]
    return LpProblem.build(rng.choice(("min", "max")), c, rows, rels, rhs)


def _assert_exact_certificate(problem: LpProblem, sol: LpSolution) -> None:
    """Primal feasibility, dual sign feasibility and c.x == y.b, exactly."""
    sign = 1 if problem.sense == "min" else -1
    x, y = sol.primal, sol.dual
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, rel, b in zip(problem.matrix, problem.relations, problem.rhs):
        lhs = sum(a * v for a, v in zip(row, x))
        assert {"<=": lhs <= b, ">=": lhs >= b, "=": lhs == b}[rel]
    for yi, rel in zip(y, problem.relations):
        assert isinstance(yi, Fraction)
        if rel != "=":
            assert sign * yi * (1 if rel == ">=" else -1) >= 0
    for j, cj in enumerate(problem.objective):
        column = sum(row[j] * yi for row, yi in zip(problem.matrix, y))
        assert sign * (cj - column) >= 0  # reduced cost of column j
    primal_value = sum(cj * v for cj, v in zip(problem.objective, x))
    assert primal_value == sum(yi * b for yi, b in zip(y, problem.rhs))
    assert primal_value == sol.objective_value


def _highs(problem: LpProblem):
    """(status, value) from scipy's HiGHS."""
    from scipy.optimize import linprog

    sign = 1 if problem.sense == "min" else -1
    ub, b_ub, eq, b_eq = [], [], [], []
    for row, rel, b in zip(problem.matrix, problem.relations, problem.rhs):
        flip = -1.0 if rel == ">=" else 1.0
        rows, rhs = (eq, b_eq) if rel == "=" else (ub, b_ub)
        rows.append([flip * float(v) for v in row])
        rhs.append(flip * float(b))
    res = linprog(
        [sign * float(v) for v in problem.objective],
        A_ub=ub or None, b_ub=b_ub or None, A_eq=eq or None, b_eq=b_eq or None,
        bounds=(0, None), method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (sign * res.fun if status == "optimal" else None)


def _bland_reference(problem: LpProblem) -> LpSolution:
    """A plain two-phase Fraction tableau with Bland's rule throughout, kept
    as the reference the exact simplex is compared against."""
    zero, one = Fraction(0), Fraction(1)
    sign = 1 if problem.sense == "min" else -1
    c = [Fraction(v) * sign for v in problem.objective]
    flips = [b < 0 for b in problem.rhs]
    rows = [[Fraction(-v if f else v) for v in row] for row, f in zip(problem.matrix, flips)]
    rhs = [Fraction(abs(b)) for b in problem.rhs]
    swap = {"<=": ">=", ">=": "<=", "=": "="}
    rels = [swap[rel] if f else rel for rel, f in zip(problem.relations, flips)]
    n, m = len(c), len(rows)

    n_slack = sum(1 for r in rels if r != "=")
    total = n + n_slack + m
    T = [[zero] * (total + 1) for _ in range(m)]
    slack_col = {}
    art_col = {}
    basis = [0] * m
    col = n
    for i, rel in enumerate(rels):
        for j, v in enumerate(rows[i]):
            T[i][j] = v
        T[i][total] = rhs[i]
        if rel != "=":
            T[i][col] = one if rel == "<=" else -one
            slack_col[i] = col
            col += 1
    for i in range(m):
        T[i][n + n_slack + i] = one
        art_col[i] = n + n_slack + i
        basis[i] = slack_col[i] if rels[i] == "<=" else art_col[i]
    artificial = [False] * total
    for i in range(m):
        artificial[art_col[i]] = True

    def pivot(i, j):
        piv = T[i][j]
        T[i] = [v / piv for v in T[i]]
        for r in range(m):
            if r != i and T[r][j] != 0:
                factor = T[r][j]
                T[r] = [a - factor * b for a, b in zip(T[r], T[i])]
        basis[i] = j

    def run_phase(cost: list[Fraction]) -> str:
        while True:
            cb = [cost[b] for b in basis]
            entering = -1
            for j in range(total):  # Bland: first improving column
                if artificial[j] and cost[j] == 0:
                    continue
                d = cost[j] - sum(cb[i] * T[i][j] for i in range(m) if T[i][j])
                if d < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(m):
                if T[i][entering] > 0:
                    ratio = T[i][total] / T[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            pivot(leave, entering)

    cost1 = [one if artificial[j] else zero for j in range(total)]
    run_phase(cost1)
    if sum(T[i][total] for i in range(m) if artificial[basis[i]]) > 0:
        return LpSolution("infeasible", None, None, None, "exact")
    for i in range(m):
        if artificial[basis[i]]:
            for j in range(n + n_slack):
                if T[i][j] != 0:
                    pivot(i, j)
                    break

    cost2 = [zero] * total
    for j in range(n):
        cost2[j] = c[j]
    if run_phase(cost2) == "unbounded":
        return LpSolution("unbounded", None, None, None, "exact")

    x = [zero] * total
    for i, bi in enumerate(basis):
        x[bi] = T[i][total]
    obj = sum(cost2[j] * x[j] for j in range(n)) * sign
    cb = [cost2[b] for b in basis]
    y_norm = [
        sum(cb[r] * T[r][art_col[i]] for r in range(m) if T[r][art_col[i]])
        for i in range(m)
    ]
    duals = tuple((-v if f else v) * sign for v, f in zip(y_norm, flips))
    return LpSolution("optimal", obj, tuple(x[:n]), duals, "exact")


def test_rational_property_random_lps():
    rng = random.Random(2024)
    statuses = []
    for _ in range(300):
        problem = _random_lp(rng)
        sol = lp_solve(problem, "rational")
        statuses.append(sol.status)
        bland = _bland_reference(problem)
        assert sol.status == bland.status
        if sol.status == "optimal":
            _assert_exact_certificate(problem, sol)
            _assert_exact_certificate(problem, bland)
            assert sol.objective_value == bland.objective_value
        else:
            # Infeasible and unbounded are only ever reported by the exact
            # simplex.
            assert sol.path == "exact"
            assert sol.primal is None and sol.dual is None
    for status in ("optimal", "infeasible", "unbounded"):
        assert statuses.count(status) >= 20, statuses.count(status)


def test_rational_property_matches_highs():
    pytest.importorskip("scipy")
    rng = random.Random(2024)
    for _ in range(300):
        problem = _random_lp(rng)
        sol = lp_solve(problem, "rational")
        status, value = _highs(problem)
        assert sol.status == status
        if status == "optimal":
            assert float(sol.objective_value) == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_degenerate_and_redundant_rows_certified():
    # Three copies of one equality (two scaled) leave two artificials basic
    # at 0, and x1 is basic at 0 (a degenerate vertex): the basis certifies.
    problem = LpProblem.build(
        "min", [1, 1, 0],
        [[1, 1, 1], [2, 2, 2], [Fraction(1, 3)] * 3, [1, -1, 0]],
        ["=", "=", "=", "<="], [3, 6, 1, 0],
    )
    sol = lp_solve(problem, "rational")
    assert sol.path == "certified"
    assert sol.objective_value == 0
    _assert_exact_certificate(problem, sol)


# (problem, basis failing exactly one check, optimal basis, optimum).  Basis
# columns: structural first, then one slack per non-'=' row, then one
# artificial per row.
_CERTIFY_CASES = {
    # x = 0 with the artificial of x = 2 basic at 2.
    "artificial_nonzero": (LpProblem.build("min", [1], [[1]], ["="], [2]), [1], [0], 2),
    # x - y = 1 solved with y basic gives y = -1.
    "negative_primal": (
        LpProblem.build("min", [1, 1], [[1, -1]], ["="], [1]), [1], [0], 1),
    # x >= 1 tight with x >= 2 covered by its slack: that slack is -1.
    "negative_slack": (
        LpProblem.build("min", [1], [[1], [1]], [">=", ">="], [1, 2]), [0, 2], [0, 1], 2),
    # x <= 3 tight while minimizing x: the dual of a '<=' row is positive.
    "dual_sign": (
        LpProblem.build("min", [1], [[1], [1]], [">=", "<="], [1, 3]), [0, 1], [0, 2], 1),
    # x + y >= 1 tight with x basic, although y is cheaper.
    "reduced_cost": (
        LpProblem.build("min", [2, 1], [[1, 1]], [">="], [1]), [0], [1], 1),
    # Two proportional rows cannot both pin x and y.
    "singular_block": (
        LpProblem.build("min", [1, 1], [[1, 1], [2, 2]], [">=", ">="], [1, 2]),
        [0, 1], [0, 3], 1),
}


@pytest.mark.parametrize("case", sorted(_CERTIFY_CASES))
def test_certify_rejects_each_failed_check(case):
    problem, bad, good, optimum = _CERTIFY_CASES[case]
    assert solver._certify_basis(problem, bad) is None
    sol = solver._certify_basis(problem, good)
    assert sol.path == "certified"
    assert sol.objective_value == optimum
    _assert_exact_certificate(problem, sol)


# (problem, optimal basis, optimum): blocks whose integer solve needs a row
# swap, per-row scales, or a covered row whose artificial stays basic.
_CERTIFIED_CASES = {
    # The block [[0, 1], [1, 0]] needs a row swap at its first pivot, and
    # its determinant is -1.
    "row_swap": (
        LpProblem.build("min", [1, 1], [[0, 1], [1, 0]], [">=", ">="], [1, 2]), [0, 1], 3),
    # Each row has its own denominators (3 and 6; 7, 5 and 2), and the
    # nonbasic z prices against both.
    "row_denominators": (
        LpProblem.build(
            "min", [1, 1, 1],
            [[Fraction(1, 3), 1, Fraction(1, 2)], [1, Fraction(2, 7), Fraction(1, 5)]],
            [">=", ">="], [Fraction(5, 6), Fraction(1, 2)]),
        [0, 1], Fraction(39, 38)),
    # x + y = 1 repeated as x/3 + y/3 = 1/3: its artificial stays basic at 0.
    "artificial_at_zero": (
        LpProblem.build("min", [1, 2], [[1, 1], [Fraction(1, 3), Fraction(1, 3)]], ["=", "="],
                        [1, Fraction(1, 3)]),
        [0, 3], 1),
}


@pytest.mark.parametrize("case", sorted(_CERTIFIED_CASES))
def test_certify_accepts_optimal_basis(case):
    problem, basis, optimum = _CERTIFIED_CASES[case]
    sol = solver._certify_basis(problem, basis)
    assert sol.path == "certified"
    assert sol.objective_value == optimum
    _assert_exact_certificate(problem, sol)


def test_certify_matches_exact_simplex_on_random_lps():
    # The integer certificate of the exact Fraction simplex's own optimal
    # basis must accept it and reproduce its value, primal and dual.
    rng = random.Random(7)
    optimal = 0
    for _ in range(300):
        problem = _random_lp(rng)
        exact, basis = solver._revised_simplex(problem, exact=True)
        if exact.status != "optimal":
            continue
        optimal += 1
        sol = solver._certify_basis(problem, basis)
        assert sol is not None
        assert sol.objective_value == exact.objective_value
        assert sol.primal == exact.primal and sol.dual == exact.dual
    assert optimal >= 100, optimal


MAX_LP = LpProblem.build("max", [3, 2], [[1, 1], [1, 0]], ["<=", "<="], [4, 2])


def test_forced_fallback_on_float_failure(fail_float_simplex):
    fail_float_simplex()
    sol = lp_solve(MAX_LP, "rational")
    assert sol.path == "exact"
    assert sol.objective_value == 10
    _assert_exact_certificate(MAX_LP, sol)


def test_forced_fallback_on_non_optimal_basis(monkeypatch):
    # The all-slack basis is feasible (x = 0) but not optimal.
    simplex = solver._revised_simplex

    def slack_basis(problem, exact):
        if exact:
            return simplex(problem, exact)
        return LpSolution("optimal", 0.0, (0.0, 0.0), (0.0, 0.0), "float"), [2, 3]

    monkeypatch.setattr(solver, "_revised_simplex", slack_basis)
    sol = lp_solve(MAX_LP, "rational")
    assert sol.path == "exact"
    assert sol.objective_value == 10
    _assert_exact_certificate(MAX_LP, sol)


def test_rational_data_beyond_float_range():
    # float64 cannot hold the coefficients, so only the exact simplex can
    # solve this.
    huge = Fraction(10**400)
    problem = LpProblem.build("min", [huge, 1], [[huge, 1]], [">="], [huge])
    sol = lp_solve(problem, "rational")
    assert sol.path == "exact"
    assert sol.objective_value == huge
    _assert_exact_certificate(problem, sol)
