"""Self-contained LP engine over a dense constraint matrix.

``LpProblem`` holds min/max c.x subject to A x (relations) b, x >= 0, with
A an m x n numpy array holding one column per variable: float64, or an
object array of exact numbers (ints and ``fractions.Fraction``).  One
two-phase revised primal simplex solves it in either arithmetic.  It keeps
an explicit m x m basis inverse B^-1, with the basic solution B^-1 b beside
it, and updates both by one eta step per pivot (Chvatal, "Linear
Programming", 1983, ch. 7-8).  It prices d = c - (c_B B^-1) A by Dantzig's
rule (the least reduced cost), breaks ratio-test ties by the largest pivot
element, and switches to Bland's rule (the first improving column, the
least basic index among ties) after ``_STALL_LIMIT`` pivots that do not
lower the objective: the bound LPs are highly degenerate.  The objective
never rises, and pivots that leave it unchanged cannot cycle under Bland's
rule, so the exact simplex terminates without a pivot limit.  In float64,
where the eta steps' rounding accumulates, B^-1 is refactorized from A's
basic columns every ``_REFACTOR_EVERY`` pivots.  Two modes use the engine:

* ``float`` returns the float simplex's solution as it is;
* ``rational`` solves the float simplex's final basis against the problem's
  own columns and prices it, in integers by fraction-free elimination, and
  returns it, in Fractions, only when it is exactly primal and dual
  feasible, hence optimal (Applegate-Cook-Dash-Espinoza, "Exact solutions
  to linear programming problems", ORL 2007).  Otherwise, or when the float
  simplex fails or finds no optimum, the exact simplex solves the problem
  from scratch, so exactness is guaranteed either way.

``LpSolution.path`` says which way a solution came: ``"float"``,
``"certified"`` (an exactly checked float basis) or ``"exact"``; ``pivots``,
``refactorizations`` and ``bland_pivots`` count the simplex's work.

Dual multipliers are reported in the standard sign convention: for a
minimization problem, ``>=`` rows get nonnegative multipliers and ``<=``
rows nonpositive ones (mirrored for maximization), and the optimal value
always equals ``dual . rhs``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .caps import Caps, default_caps
from .errors import CapacityError, DimensionError, ParameterError, SolverError

__all__ = ["LpProblem", "LpSolution", "lp_solve", "check_lp_caps"]

Mode = Literal["float", "rational"]

_FEAS_TOL = 1e-9
_STALL_LIMIT = 200
_PIVOT_LIMIT_FACTOR = 60
_REFACTOR_EVERY = 50


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min/max c.x subject to A x (relations) rhs, with all variables
    nonnegative.  `matrix` is A, m x n, and `objective` and `rhs` are
    vectors: all float64, or object arrays of ints and Fractions.  `build`
    makes one from Python sequences."""

    sense: Literal["min", "max"]
    objective: np.ndarray
    matrix: np.ndarray
    relations: tuple
    rhs: np.ndarray

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ParameterError(f"unknown sense {self.sense!r}")
        if any(rel not in ("<=", ">=", "=") for rel in self.relations):
            raise ParameterError("relations must be one of <=, >=, =")
        m, n = len(self.relations), len(self.objective)
        if self.matrix.shape != (m, n) or len(self.rhs) != m:
            raise DimensionError("matrix, objective, relations and rhs shapes differ")
        for values in (self.objective, self.matrix, self.rhs):
            if values.dtype != object and not np.isfinite(values).all():
                raise ParameterError("non-finite coefficient")

    @classmethod
    def build(
        cls, sense: str, objective: Sequence, rows: Sequence[Sequence], relations: Sequence[str],
        rhs: Sequence,
    ) -> "LpProblem":
        """An LpProblem from rows given as sequences of numbers: float64
        when every number is a float, else exact (floats through Fraction)."""
        n, m = len(objective), len(rows)
        if not all(len(row) == n for row in rows):
            raise DimensionError("row length must equal variable count")
        if not (m == len(relations) == len(rhs)):
            raise DimensionError("rows, relations, rhs lengths differ")
        values = [*objective, *rhs, *(v for row in rows for v in row)]
        floats = [v for v in values if isinstance(v, float)]
        if not np.isfinite(floats).all():
            raise ParameterError("non-finite coefficient")
        if len(floats) == len(values):
            data = np.array(values, dtype=float)
        else:
            data = np.array([_exact(v) for v in values], dtype=object)
        return cls(sense, data[:n], data[n + m:].reshape(m, n), tuple(relations), data[n:n + m])

    @property
    def num_vars(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: Literal["optimal", "infeasible", "unbounded"]
    objective_value: object | None
    primal: tuple | None
    dual: tuple | None
    path: Literal["float", "certified", "exact"]
    pivots: tuple[int, int] = (0, 0)  # simplex pivots in phase 1 and phase 2
    refactorizations: int = 0
    bland_pivots: int = 0  # pivots of either phase taken under Bland's rule


def lp_solve(problem: LpProblem, mode: Mode = "float", caps: Caps | None = None) -> LpSolution:
    """Solve an LP, returning primal and dual witnesses when optimal."""
    check_lp_caps(problem.num_vars, problem.num_rows, mode, caps or default_caps())
    if mode == "float":
        return _revised_simplex(problem, exact=False)[0]
    return _solve_rational(problem)


def check_lp_caps(num_vars: int, num_rows: int, mode: Mode, caps: Caps) -> None:
    """Raise CapacityError when an LP of this shape exceeds the caps of
    `mode`, so callers can reject an instance before building its rows."""
    if mode == "float":
        max_vars, max_rows = caps.lp_vars_float, caps.lp_rows_float
    elif mode == "rational":
        max_vars, max_rows = caps.lp_vars_rational, caps.lp_rows_rational
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if num_vars > max_vars or num_rows > max_rows:
        raise CapacityError(
            f"instance {num_vars} vars x {num_rows} rows exceeds {mode} caps "
            f"({max_vars} x {max_rows})"
        )


# ---------------------------------------------------------------------------
# The simplex: one revised routine, float64 or exact Fraction arithmetic
# ---------------------------------------------------------------------------


def _revised_simplex(problem: LpProblem, exact: bool) -> tuple[LpSolution, list[int]]:
    """The two-phase revised simplex and its final basis, one column per
    row: column j < n is structural, the slacks of the non-'=' rows follow
    in row order, and the artificial of row i is column n + (number of
    slacks) + i.  Rows with a negative rhs are negated (duals mapped back).

    With `exact` every number is an int or a Fraction (numpy object arrays),
    every tolerance is 0 and there is no pivot limit; otherwise the arrays
    are float64 and the primal is clamped at 0.
    """
    m, n = problem.matrix.shape
    sign = 1 if problem.sense == "min" else -1  # minimize sign * c.x
    if exact:
        A, b, c = (_exact_array(v) for v in (problem.matrix, problem.rhs, problem.objective))
        num, zero, one, path = Fraction, Fraction(0), Fraction(1), "exact"
        feas_tol = zero_tol = gain_tol = 0
    else:
        A, b, c = (v.astype(float) for v in (problem.matrix, problem.rhs, problem.objective))
        num, zero, one, path = float, 0.0, 1.0, "float"
        feas_tol, zero_tol, gain_tol = _FEAS_TOL, 1e-7, 1e-12
    flip = b < 0
    A, b = np.where(flip[:, None], -A, A), np.where(flip, -b, b)
    rels = [{"<=": ">=", ">=": "<="}.get(r, r) if f else r for r, f in zip(problem.relations, flip)]

    slack_rows = [i for i, rel in enumerate(rels) if rel != "="]
    art = n + len(slack_rows)  # the artificial of row i is column art + i
    total = art + m  # artificials for every row keep the first basis the identity
    ext = np.full((m, total), zero, dtype=A.dtype)
    ext[:, :n] = A
    ext[slack_rows, range(n, art)] = [one if rels[i] == "<=" else -one for i in slack_rows]
    ext[range(m), range(art, total)] = one
    basis = np.arange(art, total)  # '<=' rows start with their slack basic
    for k, i in enumerate(slack_rows):
        if rels[i] == "<=":
            basis[i] = n + k
    # M = [B^-1 | B^-1 b]: the basis inverse and the basic solution.
    start = np.full((m, m + 1), zero, dtype=A.dtype)
    start[range(m), range(m)] = one
    start[:, m] = b * one
    M = start.copy()
    x_B = M[:, m]  # a view: every update of M writes in place
    pivots, bland = [0, 0], 0  # pivots per phase, and those taken under Bland's rule

    if exact:
        # Fraction products are slow and A is mostly 0: touch nonzeros only.
        row_nz = [row.nonzero()[0] for row in ext]

        def duals(cb):  # c_B B^-1
            nz = cb.nonzero()[0]
            return zero + cb[nz] @ M[nz, :m]

        def price(cost, y):  # c - y A
            d = cost.copy()
            for i in y.nonzero()[0]:
                d[row_nz[i]] -= y[i] * ext[i, row_nz[i]]
            return d

        def solve(a):  # B^-1 a
            nz = a.nonzero()[0]
            return M[:, nz] @ a[nz]
    else:
        B_inv = M[:, :m]

        def duals(cb):
            return cb @ B_inv

        def price(cost, y):
            return cost - y @ ext

        def solve(a):
            return B_inv @ a

    def pivot(r: int, j: int, alpha, phase: int) -> None:
        # One eta step.  Exact mode updates only the nonzero columns of row r
        # and the rows with a nonzero entry in alpha; float updates all of M.
        if exact:
            cols = M[r].nonzero()[0]
            M[r, cols] /= alpha[r]
            rows = alpha.nonzero()[0]
            rows = rows[rows != r]
            M[np.ix_(rows, cols)] -= alpha[rows, None] * M[r, cols]
        else:
            M[r] /= alpha[r]
            alpha[r] = 0.0
            np.subtract(M, alpha[:, None] * M[r], out=M)
        basis[r] = j
        pivots[phase] += 1
        if not exact and sum(pivots) % _REFACTOR_EVERY == 0:
            try:
                M[:] = np.linalg.solve(ext[:, basis], start)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular basis at refactorization: {exc}") from exc

    def solution(status: str, *witness) -> LpSolution:
        refactors = 0 if exact else sum(pivots) // _REFACTOR_EVERY
        return LpSolution(status, *witness, path, tuple(pivots), refactors, bland)

    unreached = np.full(m, np.inf, dtype=A.dtype)  # the ratio of a row alpha does not bound

    def run_phase(cost, width: int, phase: int) -> str:
        # Columns from `width` on (the artificials, in phase 2) never enter.
        nonlocal bland
        if not width:
            return "optimal"
        stall, obj = 0, cost[basis] @ x_B
        # No pivot limit in exact arithmetic; in float the last pass only prices.
        for _ in range(sys.maxsize if exact else _PIVOT_LIMIT_FACTOR * (m + total) + 1):
            d = price(cost, duals(cost[basis]))[:width]
            use_bland = stall > _STALL_LIMIT
            # Dantzig: the least reduced cost; Bland: the first negative one.
            j = int((d < -feas_tol).argmax() if use_bland else d.argmin())
            if not d[j] < -feas_tol:
                return "optimal"
            alpha = solve(ext[:, j])
            positive = alpha > feas_tol
            if not positive.any():
                return "unbounded"
            ratios = unreached.copy()
            np.divide(x_B, alpha, out=ratios, where=positive)
            best = ratios.min()
            ties = ratios <= best + feas_tol * (1 + abs(best))
            if use_bland:
                r = int(min(ties.nonzero()[0], key=basis.__getitem__))  # least index
                bland += 1
            else:
                r = int(np.where(ties, alpha, -1).argmax())  # the largest pivot (alpha > 0)
            pivot(r, j, alpha, phase)
            gain = -d[j] * best
            stall = 0 if gain > gain_tol * (1 + abs(obj)) else stall + 1
            obj -= gain
        raise SolverError("simplex stalled (pivot limit reached); try rational mode")

    # Phase 1
    cost1 = np.full(total, zero, dtype=A.dtype)
    cost1[art:] = one
    if run_phase(cost1, total, 0) == "unbounded":  # cannot happen in phase 1
        raise SolverError("phase 1 reported unbounded")
    if cost1[basis] @ x_B > zero_tol:
        return solution("infeasible", None, None, None), []
    # Pivot each artificial still basic (at 0) out on any usable real
    # column; an all-zero row is a redundant constraint and keeps it.
    for i in (basis >= art).nonzero()[0]:
        nz = M[i, :m].nonzero()[0]
        usable = (abs(M[i, nz] @ ext[nz, :art]) > zero_tol).nonzero()[0]
        if usable.size:
            pivot(i, int(usable[0]), solve(ext[:, usable[0]]), 0)

    # Phase 2
    cost2 = np.full(total, zero, dtype=A.dtype)
    cost2[:n] = c * sign
    if run_phase(cost2, art, 1) == "unbounded":
        return solution("unbounded", None, None, None), []

    x = np.full(total, zero, dtype=A.dtype)
    x[basis] = x_B
    obj = num(cost2[:n] @ x[:n]) * sign
    y = duals(cost2[basis])
    dual = np.where(flip, -y, y) * sign
    primal = x[:n] if exact else np.maximum(x[:n], 0.0)
    return solution("optimal", obj, tuple(primal.tolist()), tuple(dual.tolist())), basis.tolist()


# ---------------------------------------------------------------------------
# Rational path: exact certification of the float basis
# ---------------------------------------------------------------------------


def _solve_rational(problem: LpProblem) -> LpSolution:
    # Infeasible and unbounded are never taken from float: only an optimal
    # basis comes with a certificate that can be checked exactly.  Data too
    # large for float64 raises OverflowError before the simplex starts.
    try:
        sol, basis = _revised_simplex(problem, exact=False)
    except (SolverError, OverflowError):
        sol = None
    if sol is not None and sol.status == "optimal":
        certified = _certify_basis(problem, basis)
        if certified is not None:
            return dataclasses.replace(certified, pivots=sol.pivots, bland_pivots=sol.bland_pivots,
                                       refactorizations=sol.refactorizations)
    return _revised_simplex(problem, exact=True)[0]


def _certify_basis(problem: LpProblem, basis: Sequence[int]) -> LpSolution | None:
    """The exact solution of `basis` (laid out as `_revised_simplex` returns
    it) against the problem's own columns, or None unless it is optimal.

    A basic slack or artificial is a unit column: it covers one row, takes up
    that row's residual and fixes its dual at 0.  The basic structural
    columns and the free (uncovered) rows form a square block, solved for
    the primal and, transposed, for the duals.  The basis is optimal when the
    primal is nonnegative, every basic artificial is exactly 0, every dual
    has the sign of its row and every structural column has a nonnegative
    reduced cost; complementary slackness then gives c.x == dual.rhs.  Each
    check is the sign of an integer: the free rows are scaled to integers
    over all columns (they also price), the covered rows over the basic
    structural columns and the objective once, `_bareiss` solves the block
    and its transpose, and Fractions are built only for the result.
    """
    m, n = problem.matrix.shape
    slack_rows = [i for i, rel in enumerate(problem.relations) if rel != "="]
    structural: list[int] = []
    covered: dict[int, bool] = {}  # row -> covered by its slack (else its artificial)
    for col in basis:
        if col < n:
            structural.append(col)
            continue
        is_slack = col < n + len(slack_rows)
        row = slack_rows[col - n] if is_slack else col - n - len(slack_rows)
        if row in covered:
            return None
        covered[row] = is_slack
    free = [i for i in range(m) if i not in covered]  # as many as `structural`

    sign = 1 if problem.sense == "min" else -1  # minimize sign * c.x
    rhs = _exact_array(problem.rhs)
    scales, N, b = _integer_rows(_exact_array(problem.matrix[free]), rhs[free])
    block = N[:, structural]
    solved = _bareiss(block.tolist(), b)  # x = x_num / d
    if solved is None or any(v < 0 for v in solved[1]):
        return None
    d, x_num = solved
    rows = list(covered)
    _, C, b = _integer_rows(_exact_array(problem.matrix[np.ix_(rows, structural)]), rhs[rows])
    for row, c_row, b_row in zip(rows, C, b):
        residual = b_row * d - sum(a * v for a, v in zip(c_row, x_num))  # times scale * d > 0
        rel = problem.relations[row] if covered[row] else "="
        if (rel != ">=" and residual < 0) or (rel != "<=" and residual > 0):
            return None  # a negative slack (+-residual), or a basic artificial away from 0

    # The duals y_i = s_i w_i / L, where w = y_num / d' solves N_block^T w = L c_B.
    (L,), (cost,), _ = _integer_rows(_exact_array(problem.objective)[None] * sign, [0])
    d_dual, y_num = _bareiss(block.T.tolist(), cost[structural].tolist())
    for w, rel in zip(y_num, (problem.relations[i] for i in free)):
        if (rel == ">=" and w < 0) or (rel == "<=" and w > 0):
            return None  # a nonbasic slack with a negative reduced cost
    # Reduced costs L d' (c - y A) = c_int d' - sum_i y_num_i N_i, over the
    # free rows with a nonzero dual.
    nz = [k for k, w in enumerate(y_num) if w]
    if (cost * d_dual - np.array(y_num, dtype=object)[nz] @ N[nz] < 0).any():
        return None

    x, y = [Fraction(0)] * n, [Fraction(0)] * m
    for j, v in zip(structural, x_num):
        x[j] = Fraction(v, d)
    for i, w, s in zip(free, y_num, scales):
        y[i] = Fraction(w * s * sign, d_dual * L)
    value = Fraction(sum(c * v for c, v in zip(cost[structural], x_num)) * sign, L * d)
    return LpSolution("optimal", value, tuple(x), tuple(y), "certified")


def _integer_rows(rows: np.ndarray, rhs: Sequence) -> tuple[list[int], np.ndarray, list[int]]:
    """Each exact row of `rows` with its `rhs` entry times the lcm of their
    denominators: the scales, the integer rows (object array) and rhs."""
    scales, ints, int_rhs = [], np.empty(rows.shape, dtype=object), []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if set(map(type, row)) <= {int}:  # the common case: only b has a denominator
            s, ints[i] = b.denominator, row * b.denominator
        else:
            s = math.lcm(b.denominator, *(v.denominator for v in row))
            ints[i] = [v.numerator * (s // v.denominator) for v in row]
        scales.append(s)
        int_rhs.append(b.numerator * (s // b.denominator))
    return scales, ints, int_rhs


def _bareiss(matrix: list[list[int]], rhs: list[int]) -> tuple[int, list[int]] | None:
    """(d, z_num) with d > 0 and z = z_num / d solving the square integer
    system matrix z = rhs, or None when it is singular.  Bareiss elimination
    (Math. Comp. 22, 1968) divides exactly by the previous pivot, so the last
    pivot is the determinant (a zero pivot swaps in a later row, negated to
    keep it).  Back substitution solves for det * z, integral by Cramer's
    rule, and divides exactly too."""
    rows, upper, prev = [[*row, v] for row, v in zip(matrix, rhs)], [], 1
    while rows:  # eliminate the first remaining column
        q = next((q for q, row in enumerate(rows) if row[0]), None)
        if q is None:
            return None
        if q:
            rows[0], rows[q] = [-v for v in rows[q]], rows[0]
        pivot, *tail = top = rows[0]
        rows = [[(v * pivot - a * w) // prev for v, w in zip(rest, tail)] if a
                else rest if pivot == prev else [v * pivot // prev for v in rest]
                for a, *rest in rows[1:]]
        upper.append(top)
        prev = pivot
    z: list[int] = []  # det * z, from the last unknown up
    for top in reversed(upper):
        z.insert(0, (prev * top[-1] - sum(a * v for a, v in zip(top[1:-1], z))) // top[0])
    return (prev, z) if prev > 0 else (-prev, [-v for v in z])


def _exact(v) -> int | Fraction:
    """`v` as an int or Fraction: floats and numpy scalars through Fraction."""
    return v if type(v) in (int, Fraction) else Fraction(v)


def _exact_array(values: np.ndarray) -> np.ndarray:
    """`values` as exact numbers: object arrays as they are, float64 entrywise."""
    if values.dtype == object:
        return values
    return np.array([Fraction(v) for v in values.flat], dtype=object).reshape(values.shape)
