"""Self-contained dense LP engine.

One two-phase primal tableau simplex, run in one of two arithmetics: a
numpy float64 tableau, or an object-dtype tableau of ``fractions.Fraction``
with every tolerance exactly 0.  Both price by Dantzig's rule and switch to
Bland's least-index rule after ``_STALL_LIMIT`` pivots that do not lower
the objective (the bound LPs are highly degenerate).  The objective never
rises, so a cycle can only run through pivots that leave it unchanged, and
under Bland's rule those cannot cycle: the exact simplex terminates without
a pivot limit.  Two modes use the engine:

* ``float`` returns the float simplex's solution as it is;
* ``rational`` solves the float simplex's final basis exactly against the
  problem's own rows and returns that solution only when it is exactly
  primal and dual feasible, hence optimal (the method of
  Applegate-Cook-Dash-Espinoza, "Exact solutions to linear programming
  problems", ORL 2007).  When the float simplex fails, reports infeasible or
  unbounded, or ends at a basis that does not pass, the exact simplex solves
  the problem from scratch, so exactness is guaranteed either way.

``LpSolution.path`` says which way a solution came: ``"float"``,
``"certified"`` (an exactly checked float basis) or ``"exact"``.

Dual multipliers are recovered from the final basis and reported in the
standard sign convention: for a minimization problem, ``>=`` rows get
nonnegative multipliers and ``<=`` rows nonpositive ones (mirrored for
maximization), and the optimal value always equals ``dual . rhs``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .caps import Caps, default_caps
from .errors import CapacityError, DimensionError, ParameterError, SolverError

__all__ = ["LpProblem", "LpSolution", "lp_solve", "check_lp_caps"]

Relation = Literal["<=", ">=", "="]
Mode = Literal["float", "rational"]

_FEAS_TOL = 1e-9
_STALL_LIMIT = 200
_PIVOT_LIMIT_FACTOR = 60


@dataclass(frozen=True)
class LpProblem:
    """min/max c.x subject to rows, with all variables nonnegative."""

    sense: Literal["min", "max"]
    objective: tuple
    rows: tuple
    relations: tuple
    rhs: tuple

    @classmethod
    def build(
        cls,
        sense: str,
        objective: Sequence,
        rows: Sequence[Sequence],
        relations: Sequence[str],
        rhs: Sequence,
    ) -> "LpProblem":
        if sense not in ("min", "max"):
            raise ParameterError(f"unknown sense {sense!r}")
        n = len(objective)
        if not all(len(row) == n for row in rows):
            raise DimensionError("row length must equal variable count")
        if not (len(rows) == len(relations) == len(rhs)):
            raise DimensionError("rows, relations, rhs lengths differ")
        if any(rel not in ("<=", ">=", "=") for rel in relations):
            raise ParameterError("relations must be one of <=, >=, =")
        for v in itertools.chain(objective, rhs, *rows):
            if isinstance(v, float) and not math.isfinite(v):
                raise ParameterError("non-finite coefficient")
        return cls(
            sense,
            tuple(objective),
            tuple(tuple(row) for row in rows),
            tuple(relations),
            tuple(rhs),
        )

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LpSolution:
    status: Literal["optimal", "infeasible", "unbounded"]
    objective_value: object | None
    primal: tuple | None
    dual: tuple | None
    path: Literal["float", "certified", "exact"]

    def primal_value(self, j: int):
        assert self.primal is not None
        return self.primal[j]


def lp_solve(problem: LpProblem, mode: Mode = "float", caps: Caps | None = None) -> LpSolution:
    """Solve an LP, returning primal and dual witnesses when optimal."""
    check_lp_caps(problem.num_vars, problem.num_rows, mode, caps or default_caps())
    return _simplex(problem, exact=False)[0] if mode == "float" else _solve_rational(problem)


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
# Shared standard-form setup
# ---------------------------------------------------------------------------


def _standardize(problem: LpProblem, exact: bool):
    """Return (c, rows, rhs, flips, minimize-sign).

    Rows are normalized so every right-hand side is nonnegative; ``flips``
    records rows whose sign (and relation) was reversed.  The objective is
    negated for max problems so the core always minimizes.
    """
    conv = Fraction if exact else float
    sign = 1 if problem.sense == "min" else -1
    c = [conv(v) * sign for v in problem.objective]
    rows, rels, rhs, flips = [], [], [], []
    for row, rel, b in zip(problem.rows, problem.relations, problem.rhs):
        row = [conv(v) for v in row]
        b = conv(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            flips.append(True)
        else:
            flips.append(False)
        rows.append(row)
        rels.append(rel)
        rhs.append(b)
    return c, rows, rels, rhs, flips, sign


def _finalize_duals(problem: LpProblem, y_norm, flips, sign):
    """Map duals of the normalized minimization back to the original problem."""
    duals = []
    for yi, flipped in zip(y_norm, flips):
        v = -yi if flipped else yi
        duals.append(v * sign)
    return tuple(duals)


# ---------------------------------------------------------------------------
# The simplex: one tableau routine, float64 or exact Fraction arithmetic
# ---------------------------------------------------------------------------


def _simplex(problem: LpProblem, exact: bool) -> tuple[LpSolution, list[int]]:
    """The two-phase tableau simplex and its final basis, one column per row:
    column j < n is structural, the slacks of the non-'=' rows follow in row
    order, and the artificial of row i is column n + (number of slacks) + i.

    With `exact` the tableau holds `Fraction`s (numpy object dtype), every
    tolerance is 0 and there is no pivot limit; otherwise it is float64 and
    the primal is clamped at 0.
    """
    c, rows, rels, rhs, flips, sign = _standardize(problem, exact)
    n, m = len(c), len(rows)
    n_slack = sum(1 for r in rels if r != "=")
    art = n + n_slack  # the artificial of row i is column art + i
    total = art + m  # artificials for every row keep unit columns handy
    if exact:
        num, zero, one, path = Fraction, Fraction(0), Fraction(1), "exact"
        feas_tol = zero_tol = gain_tol = 0
        pivots = itertools.count()
    else:
        num, zero, one, path = float, 0.0, 1.0, "float"
        feas_tol, zero_tol, gain_tol = _FEAS_TOL, 1e-7, 1e-12
        pivots = range(_PIVOT_LIMIT_FACTOR * (m + total) + 1)  # the last pass only prices

    T = np.full((m, total + 1), zero, dtype=object if exact else float)
    basis = []
    col = n
    for i, rel in enumerate(rels):
        T[i, :n] = rows[i]
        T[i, total] = rhs[i]
        T[i, art + i] = one
        if rel == "=":
            basis.append(art + i)
        else:  # '<=' rows start with their slack basic
            T[i, col] = one if rel == "<=" else -one
            basis.append(col if rel == "<=" else art + i)
            col += 1
    artificial = np.arange(total) >= art

    def run_phase(cost: np.ndarray) -> str:
        # Dantzig pricing, then Bland's least-index rule once the objective
        # has not fallen for _STALL_LIMIT pivots.  The objective never rises,
        # so only pivots that leave it unchanged can cycle, and under Bland's
        # rule those cannot: exact mode terminates without a pivot limit.
        stall = 0
        last_obj = np.inf
        blocked = artificial & (cost[:total] == 0)  # artificials in phase 2
        for _ in pivots:
            d = _reduced_costs(T, cost, basis, total, exact)
            d[blocked] = zero
            candidates = np.flatnonzero(d < -feas_tol)
            if candidates.size == 0:
                return "optimal"
            if stall > _STALL_LIMIT:
                j = int(candidates[0])  # Bland
            else:
                j = int(candidates[np.argmin(d[candidates])])  # Dantzig
            colj = T[:, j]
            positive = np.flatnonzero(colj > feas_tol)
            if positive.size == 0:
                return "unbounded"
            ratios = T[positive, total] / colj[positive]
            best = ratios.min()
            ties = positive[ratios <= best + feas_tol * (1 + abs(best))]
            i = int(min(ties, key=lambda t: basis[t]))  # least-index tie-break
            _pivot(T, basis, i, j, exact)
            obj = num(cost[basis] @ T[:, total])
            if obj < last_obj - gain_tol * (1 + abs(last_obj)):
                stall = 0
            else:
                stall += 1
            last_obj = obj
        raise SolverError(
            "simplex stalled (pivot limit reached); try rational mode"
        )

    # Phase 1
    cost1 = np.full(total, zero, dtype=T.dtype)
    cost1[artificial] = one
    status = run_phase(cost1)
    if status == "unbounded":  # cannot happen in phase 1
        raise SolverError("phase 1 reported unbounded")
    if cost1[basis] @ T[:, total] > zero_tol:
        return LpSolution("infeasible", None, None, None, path), basis
    # Pivot each artificial still basic (at 0) out on any usable real
    # column; an all-zero row is a redundant constraint and keeps it.
    for i in range(m):
        if artificial[basis[i]]:
            for j in range(art):
                if abs(T[i, j]) > zero_tol:
                    _pivot(T, basis, i, j, exact)
                    break

    # Phase 2
    cost2 = np.full(total, zero, dtype=T.dtype)
    cost2[:n] = c
    status = run_phase(cost2)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None, path), basis

    x = np.full(total, zero, dtype=T.dtype)
    for i, bi in enumerate(basis):
        x[bi] = T[i, total]
    obj = num(cost2[:n] @ x[:n]) * sign

    # Duals: y_i = cb . (B^{-1} e_i), and B^{-1} e_i is the final artificial
    # column of row i.
    cb = cost2[basis]
    y_norm = [num(cb @ T[:, art + i]) for i in range(m)]
    duals = _finalize_duals(problem, y_norm, flips, sign)
    primal = tuple(max(v, zero) for v in x[:n])
    return LpSolution("optimal", obj, primal, duals, path), basis


def _reduced_costs(T: np.ndarray, cost: np.ndarray, basis: list[int], total: int, exact: bool):
    """d_j = c_j - cb . T[:, j] over the first `total` columns.  In exact mode
    only the nonzero entries of the rows with a nonzero basic cost are
    multiplied: Fraction products are slow and the tableau is mostly 0."""
    cb = cost[basis]
    if not exact:
        return cost[:total] - cb @ T[:, :total]
    d = cost[:total].copy()
    for i in np.flatnonzero(cb):
        cols = np.flatnonzero(T[i, :total])
        d[cols] -= cb[i] * T[i, cols]
    return d


def _pivot(T: np.ndarray, basis: list[int], i: int, j: int, exact: bool) -> None:
    """Pivot on T[i, j].  Exact mode updates only the nonzero columns of row
    i and the rows with a nonzero entry in column j, which leaves column j a
    unit column exactly; float mode updates the whole tableau in numpy."""
    if exact:
        cols = np.flatnonzero(T[i])
        T[i, cols] /= T[i, j]
        rows = np.flatnonzero(T[:, j])
        rows = rows[rows != i]
        T[np.ix_(rows, cols)] -= np.outer(T[rows, j], T[i, cols])
    else:
        T[i] /= T[i, j]
        colj = T[:, j].copy()
        colj[i] = 0.0
        T -= np.outer(colj, T[i])
        T[:, j] = 0.0
        T[i, j] = 1.0
    basis[i] = j


# ---------------------------------------------------------------------------
# Rational path: exact certification of the float basis
# ---------------------------------------------------------------------------


def _solve_rational(problem: LpProblem) -> LpSolution:
    # Infeasible and unbounded are never taken from float: only an optimal
    # basis comes with a certificate that can be checked exactly.  Data too
    # large for float64 raises OverflowError before the simplex starts.
    try:
        sol, basis = _simplex(problem, exact=False)
    except (SolverError, OverflowError):
        sol = None
    if sol is not None and sol.status == "optimal":
        certified = _certify_basis(problem, basis)
        if certified is not None:
            return certified
    return _simplex(problem, exact=True)[0]


def _certify_basis(problem: LpProblem, basis: list[int]) -> LpSolution | None:
    """The exact solution of `basis` (laid out as `_simplex` returns
    it) against the problem's own rows, or None unless it is optimal.

    A basic slack or artificial is a unit column: it covers one row, takes up
    that row's residual and fixes its dual at 0.  The basic structural
    columns and the uncovered rows then form a square block, solved for the
    primal and for the duals.  The basis is optimal when the primal is
    nonnegative, every basic artificial is exactly 0, every dual has the sign
    of its row and every structural column has a nonnegative reduced cost;
    complementary slackness then gives c.x == dual.rhs by construction.
    """
    n, m = problem.num_vars, problem.num_rows
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
    zero = Fraction(0)
    cost = [_exact(v) * sign for v in problem.objective]
    rhs = [_exact(b) for b in problem.rhs]
    free_rows = [[_exact(v) for v in problem.rows[i]] for i in free]
    block = [[row[j] for j in structural] for row in free_rows]
    x_basic = _solve_exact(block, [rhs[i] for i in free])
    if x_basic is None or any(v < 0 for v in x_basic):
        return None
    y_free = _solve_exact([list(col) for col in zip(*block)], [cost[j] for j in structural])
    if y_free is None:
        return None

    for row, is_slack in covered.items():
        residual = rhs[row] - sum(
            (_exact(problem.rows[row][j]) * v for j, v in zip(structural, x_basic)), zero
        )
        rel = problem.relations[row]
        if is_slack and (residual < 0 if rel == "<=" else residual > 0):
            return None  # the slack, +-residual, would be negative
        if not is_slack and residual != 0:
            return None  # a basic artificial away from 0
    y = [zero] * m
    for i, v in zip(free, y_free):
        rel = problem.relations[i]
        if (rel == ">=" and v < 0) or (rel == "<=" and v > 0):
            return None  # a nonbasic slack with a negative reduced cost
        y[i] = v
    reduced = list(cost)
    for v, row in zip(y_free, free_rows):
        if v:
            for j, a in enumerate(row):
                if a == 1:
                    reduced[j] -= v
                elif a:
                    reduced[j] -= v * a
    if any(d < 0 for d in reduced):
        return None

    x = [zero] * n
    for j, v in zip(structural, x_basic):
        x[j] = v
    value = sum((c * v for c, v in zip(cost, x)), zero) * sign
    return LpSolution("optimal", value, tuple(x), tuple(v * sign for v in y), "certified")


def _exact(v) -> int | Fraction:
    """`v` as an exact number: ints and Fractions as they are, without a
    copy, and anything else (floats, numpy scalars) through Fraction."""
    return v if type(v) in (int, Fraction) else Fraction(v)


def _solve_exact(matrix: list[list], rhs: list) -> list[Fraction] | None:
    """Solve the square system matrix z = rhs exactly, or None when it is
    singular.  Gaussian elimination over sparse rows, taking as each pivot
    the candidate row with the fewest nonzeros."""
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix]
    rhs = [Fraction(v) for v in rhs]
    remaining = set(range(len(rows)))
    pivots = []
    for col in range(len(rows)):
        candidates = [r for r in remaining if col in rows[r]]
        if not candidates:
            return None
        p = min(candidates, key=lambda r: (len(rows[r]), r))
        remaining.remove(p)
        pivot_row = rows[p]
        for r in candidates:
            if r == p:
                continue
            row = rows[r]
            factor = row[col] / pivot_row[col]
            for j, v in pivot_row.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
            rhs[r] -= factor * rhs[p]
        pivots.append((p, col))
    z = [Fraction(0)] * len(rows)
    for p, col in reversed(pivots):
        row = rows[p]
        z[col] = (rhs[p] - sum(v * z[j] for j, v in row.items() if j != col)) / row[col]
    return z
