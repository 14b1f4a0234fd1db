"""Self-contained dense LP engine.

One two-phase primal simplex over a numpy float64 tableau, with Dantzig
pricing and an automatic switch to Bland's least-index rule when the
objective stalls (the bound LPs are highly degenerate).  Two modes use it:

* ``float`` returns its solution as it is;
* ``rational`` solves its final basis exactly in ``fractions.Fraction``
  against the problem's own rows and returns that solution only when it is
  exactly primal and dual feasible, hence optimal (the method of
  Applegate-Cook-Dash-Espinoza, "Exact solutions to linear programming
  problems", ORL 2007).  When the float simplex fails, reports infeasible or
  unbounded, or ends at a basis that does not pass, a pure ``Fraction``
  tableau with Bland's rule throughout solves the problem from scratch, so
  termination and exactness are guaranteed either way.  ``RATIONAL_SOLVES``
  counts how many rational solves took each path.

Dual multipliers are recovered from the final basis and reported in the
standard sign convention: for a minimization problem, ``>=`` rows get
nonnegative multipliers and ``<=`` rows nonpositive ones (mirrored for
maximization), and the optimal value always equals ``dual . rhs``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .caps import Caps, default_caps
from .errors import CapacityError, DimensionError, ParameterError, SolverError

__all__ = ["LpProblem", "LpSolution", "lp_solve", "check_lp_caps", "RATIONAL_SOLVES"]

Relation = Literal["<=", ">=", "="]
Mode = Literal["float", "rational"]

_FEAS_TOL = 1e-9
_STALL_LIMIT = 200
_PIVOT_LIMIT_FACTOR = 60

# Rational solves by path since import: "certified" (the float basis passed
# the exact check) and "fallback" (the Fraction tableau ran).
RATIONAL_SOLVES: Counter = Counter()


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
        for row in rows:
            for v in row:
                if isinstance(v, float) and not np.isfinite(v):
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

    def primal_value(self, j: int):
        assert self.primal is not None
        return self.primal[j]


def lp_solve(problem: LpProblem, mode: Mode = "float", caps: Caps | None = None) -> LpSolution:
    """Solve an LP, returning primal and dual witnesses when optimal."""
    check_lp_caps(problem.num_vars, problem.num_rows, mode, caps or default_caps())
    return _solve_float(problem)[0] if mode == "float" else _solve_rational(problem)


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
# Float path (numpy tableau)
# ---------------------------------------------------------------------------


def _solve_float(problem: LpProblem) -> tuple[LpSolution, list[int]]:
    """The float simplex and its final basis, one column per row: column j < n
    is structural, the slacks of the non-'=' rows follow in row order, and
    the artificial of row i is column n + (number of slacks) + i."""
    c, rows, rels, rhs, flips, sign = _standardize(problem, exact=False)
    n, m = len(c), len(rows)

    n_slack = sum(1 for r in rels if r != "=")
    total = n + n_slack + m  # artificials for every row keep unit columns handy
    T = np.zeros((m, total + 1))
    slack_col = {}
    art_col = {}
    basis = [0] * m
    col = n
    for i, rel in enumerate(rels):
        T[i, :n] = rows[i]
        T[i, total] = rhs[i]
        if rel != "=":
            T[i, col] = 1.0 if rel == "<=" else -1.0
            slack_col[i] = col
            col += 1
    for i in range(m):
        T[i, n + n_slack + i] = 1.0
        art_col[i] = n + n_slack + i
        if rels[i] == "<=":
            basis[i] = slack_col[i]
        else:
            basis[i] = art_col[i]
    # '<=' rows start with the slack basic; zero out their unused artificials.
    artificial = np.zeros(total, dtype=bool)
    for i in range(m):
        artificial[art_col[i]] = True

    pivot_limit = _PIVOT_LIMIT_FACTOR * (m + total)

    def run_phase(cost: np.ndarray) -> str:
        stall = 0
        last_obj = np.inf
        for _ in range(pivot_limit):
            cb = cost[basis]
            # reduced costs d_j = c_j - cb . T[:, j]
            d = cost[: total] - cb @ T[:, :total]
            d[artificial & (cost[:total] == 0)] = 0.0  # block artificials in phase 2
            candidates = np.flatnonzero(d < -_FEAS_TOL)
            if candidates.size == 0:
                return "optimal"
            if stall > _STALL_LIMIT:
                j = int(candidates[0])  # Bland
            else:
                j = int(candidates[np.argmin(d[candidates])])  # Dantzig
            colj = T[:, j]
            positive = colj > _FEAS_TOL
            if not positive.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[positive] = T[positive, total] / colj[positive]
            best = ratios.min()
            ties = np.flatnonzero(ratios <= best + _FEAS_TOL * (1 + abs(best)))
            i = int(min(ties, key=lambda t: basis[t]))  # least-index tie-break
            _pivot_float(T, basis, i, j)
            obj = float(cost[basis] @ T[:, total])
            if obj < last_obj - 1e-12 * (1 + abs(last_obj)):
                stall = 0
            else:
                stall += 1
            last_obj = obj
        raise SolverError(
            "simplex stalled (pivot limit reached); try rational mode"
        )

    # Phase 1
    cost1 = np.zeros(total)
    cost1[artificial] = 1.0
    # Price out artificials that start basic.
    status = run_phase(cost1)
    if status == "unbounded":  # cannot happen in phase 1
        raise SolverError("phase 1 reported unbounded")
    phase1_obj = float(cost1[basis] @ T[:, total])
    if phase1_obj > 1e-7:
        return LpSolution("infeasible", None, None, None), basis
    _drive_out_artificials_float(T, basis, artificial, n + n_slack)

    # Phase 2
    cost2 = np.zeros(total)
    cost2[:n] = c
    status = run_phase(cost2)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None), basis

    x = np.zeros(total)
    for i, bi in enumerate(basis):
        x[bi] = T[i, total]
    obj = float(cost2[:n] @ x[:n]) * sign

    # Duals: y_i = cb . (B^{-1} e_i), and B^{-1} e_i is the final artificial
    # column of row i.
    cb = cost2[basis]
    y_norm = [float(cb @ T[:, art_col[i]]) for i in range(m)]
    duals = _finalize_duals(problem, y_norm, flips, sign)
    primal = tuple(max(v, 0.0) for v in x[:n])
    return LpSolution("optimal", obj, primal, duals), basis


def _pivot_float(T: np.ndarray, basis: list[int], i: int, j: int) -> None:
    T[i] /= T[i, j]
    colj = T[:, j].copy()
    colj[i] = 0.0
    T -= np.outer(colj, T[i])
    T[:, j] = 0.0
    T[i, j] = 1.0
    basis[i] = j


def _drive_out_artificials_float(T, basis, artificial, n_real) -> None:
    m = T.shape[0]
    for i in range(m):
        if not artificial[basis[i]]:
            continue
        # Basic artificial at value ~0: pivot any usable real column in.
        for j in range(n_real):
            if abs(T[i, j]) > 1e-7:
                _pivot_float(T, basis, i, j)
                break
        # If the row is all zeros the constraint was redundant; harmless.


# ---------------------------------------------------------------------------
# Rational path: exact certification of the float basis
# ---------------------------------------------------------------------------


def _solve_rational(problem: LpProblem) -> LpSolution:
    # Infeasible and unbounded are never taken from float: only an optimal
    # basis comes with a certificate that can be checked exactly.  Data too
    # large for float64 raises OverflowError before the simplex starts.
    try:
        sol, basis = _solve_float(problem)
    except (SolverError, OverflowError):
        sol = None
    if sol is not None and sol.status == "optimal":
        certified = _certify_basis(problem, basis)
        if certified is not None:
            RATIONAL_SOLVES["certified"] += 1
            return certified
    RATIONAL_SOLVES["fallback"] += 1
    return _solve_bland(problem)


def _certify_basis(problem: LpProblem, basis: list[int]) -> LpSolution | None:
    """The exact solution of `basis` (laid out as `_solve_float` returns
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
                if a:
                    reduced[j] -= v * a
    if any(d < 0 for d in reduced):
        return None

    x = [zero] * n
    for j, v in zip(structural, x_basic):
        x[j] = v
    value = sum((c * v for c, v in zip(cost, x)), zero) * sign
    return LpSolution("optimal", value, tuple(x), tuple(v * sign for v in y))


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


# ---------------------------------------------------------------------------
# Rational fallback (Fraction tableau, Bland's rule)
# ---------------------------------------------------------------------------


def _solve_bland(problem: LpProblem) -> LpSolution:
    c, rows, rels, rhs, flips, sign = _standardize(problem, exact=True)
    n, m = len(c), len(rows)
    zero, one = Fraction(0), Fraction(1)

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
            _pivot_rational(T, basis, leave, entering, total)

    cost1 = [one if artificial[j] else zero for j in range(total)]
    run_phase(cost1)
    if sum(T[i][total] for i in range(m) if artificial[basis[i]]) > 0:
        return LpSolution("infeasible", None, None, None)
    for i in range(m):
        if artificial[basis[i]]:
            for j in range(n + n_slack):
                if T[i][j] != 0:
                    _pivot_rational(T, basis, i, j, total)
                    break

    cost2 = [zero] * total
    for j in range(n):
        cost2[j] = c[j]
    if run_phase(cost2) == "unbounded":
        return LpSolution("unbounded", None, None, None)

    x = [zero] * total
    for i, bi in enumerate(basis):
        x[bi] = T[i][total]
    obj = sum(cost2[j] * x[j] for j in range(n)) * sign
    cb = [cost2[b] for b in basis]
    y_norm = [
        sum(cb[r] * T[r][art_col[i]] for r in range(m) if T[r][art_col[i]])
        for i in range(m)
    ]
    duals = _finalize_duals(problem, y_norm, flips, sign)
    return LpSolution("optimal", obj, tuple(x[:n]), duals)


def _pivot_rational(T, basis, i, j, total) -> None:
    piv = T[i][j]
    T[i] = [v / piv for v in T[i]]
    for r in range(len(T)):
        if r != i and T[r][j] != 0:
            factor = T[r][j]
            T[r] = [a - factor * b for a, b in zip(T[r], T[i])]
    basis[i] = j
