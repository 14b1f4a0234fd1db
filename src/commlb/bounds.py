"""Rectangle-based lower-bound quantities as linear programs.

Five quantities over a partial function f on an x_size * y_size grid:

* relaxed partition bound, fixed distribution (``bprt_mu``) and
  distribution-free (``bprt``);
* partition bound (``prt``);
* smooth rectangle bound per output label (``srec``);
* rectangle/corruption bound (``rect_dual``), plus the explicit corruption
  witness construction (``corruption_witness``);
* discrepancy (``discrepancy``).

All of them stand on one rectangle layer.  ``_rect_incidence`` builds the
cell x rectangle incidence of the nonempty rectangles as one boolean numpy
matrix from their row and column bit masks, once per grid shape (memoized,
read-only), and every LP column is read off it.  ``_row_set_sums`` builds
one numpy table of a grid's column sums over every row set, level by level
(exact grids in integers, float grids in the order the rows were always
added).  ``_best_rectangle`` finds the largest and smallest total weight
over all rectangles from it, since a row set's best column set keeps the
columns of one sign; it decides discrepancy and, through ``_alpha_value``, the
feasibility of a corruption witness and the rect witness check.  On the
witness side, every coverage test reads the grids of ``_coverage``, one pass
over (rectangle, label, weight) entries that walks each rectangle's set row
and column bits and, given f, fills the coverage and the correct-label
coverage together.

The five LP bounds are one weight-form LP, built by ``_weight_form``:
minimize the total weight on (rectangle, label) pairs subject to per-cell
rows over the rectangles containing each cell.  ``bprt``, ``bprt_mu`` and
``prt`` weigh every label and differ in their correctness rows and coverage
relation; ``srec`` weighs one label with coverage rows in [1 - eps, 1] on
its side and at most eps off it; ``rect_dual`` is the LP dual of its alpha
form and reads alpha off the row duals.

The builder solves each LP over the classes of an equitable partition of
its rows and columns (Grohe, Kersting, Mladenov and Selman, "Dimension
reduction via colour refinement", ESA 2014): the rows of a class have equal
sums over each column class, and the columns of a class over each row
class.  ``_classes`` finds it by colour refinement on the LP's own data; no
class is finer than an orbit of a symmetry group of the LP, and label swaps
and identical columns fold too.  The reduced LP has one row per row class Q
and one weight w_O per class O of (rectangle, label) columns, with
objective |O| and coefficients summed over O.
``_lp_classes`` memoizes it, ready to solve, by the LP's structure (labels,
mu and row layout, not eps) and arithmetic, in a memo bounded in entries
and bytes: each entry holds the reduced matrix and objective in its own
arithmetic (float64, or ints and Fractions) and the lists that expand a
solution, so an LP whose structure is in the memo builds only its
right-hand side.  Expanded (w_O on each member column, y_Q / |Q| on each
member row), the reduced solution is optimal for the full LP, exactly so in
rational mode, where the solver certifies the reduced LP; every witness and
the gap check read that full-size solution.  The LP caps bound the reduced
LP, the one solved: refinement stops once its classes pass them, and
``lp_solve`` checks the shape it is given.  An LP whose classes are all
single solves at full size through the same code.

Every LP result carries both a primal and a dual witness and the two
objective values are required to agree (1e-6 float, exact rational).  The
chain rect_z <= srec_z <= bprt <= prt, with 1 - eps <= bprt and uniform
bprt_mu <= bprt, is checked by ``verify_bound_chain``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .caps import Caps, default_caps
from .core import (
    InputDistribution,
    Number,
    PartialFunction,
    Rectangle,
    _exact,
    _is_exact,
    _slack,
    check_rect_side,
)
from .errors import (CapacityError, DegenerateInputError, DimensionError, ParameterError,
                     SolverError)
from .solver import LpProblem, LpSolution, check_lp_caps, lp_solve

__all__ = [
    "LabeledRectangleStrategy",
    "BoundResult",
    "ChainReport",
    "bprt_mu",
    "bprt",
    "prt",
    "srec",
    "rect_dual",
    "corruption_witness",
    "discrepancy",
    "verify_bound_chain",
    "check_witness",
    "CSV_HEADER",
    "csv_row",
    "csv_label",
]

_GAP_TOL = 1e-6
_WITNESS_TOL = 1e-7
_NORM_TOL = 1e-9

CSV_HEADER = "bound_name,function,x_size,y_size,z_size,eps,value,log2_value,solver_status"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledRectangleStrategy:
    """A distribution over (rectangle, label) pairs with efficiency eta.

    The normal form of a zero-communication protocol: weights p_{R,z} sum to
    1 and no input is covered with total weight above eta.  Both are checked
    exactly when every weight and eta are exact numbers, else the total
    within 1e-9 of 1 and each coverage within eta * (1 + 1e-9).
    """

    entries: tuple[tuple[Rectangle, int, Number], ...]
    efficiency: Number
    x_size: int
    y_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.efficiency <= 0:
            raise ParameterError("efficiency must be positive")
        if any(w < 0 for _, _, w in self.entries):
            raise ParameterError("negative strategy weight")
        tol = _slack((self.efficiency, *(w for _, _, w in self.entries)), _NORM_TOL)
        total = sum((w for _, _, w in self.entries), Fraction(0))
        if abs(total - 1) > tol:
            raise ParameterError(f"strategy weights sum to {float(total)}, not 1")
        slack = self.efficiency * (1 + tol)
        for x, row in enumerate(self.coverage()):
            for y, cov in enumerate(row):
                if cov > slack:
                    raise ParameterError(
                        f"coverage at ({x},{y}) exceeds efficiency {self.efficiency}"
                    )

    def coverage(self, f: PartialFunction | None = None) -> list[list[Number]]:
        """The x_size x y_size grid of the weight on pairs whose rectangle
        contains each cell; given f, only on pairs that answer the cell
        correctly (any label off the promise)."""
        cover, correct = _coverage(self.entries, self.x_size, self.y_size, f)
        return cover if f is None else correct


@dataclass(frozen=True)
class BoundResult:
    bound_name: str
    value: Number
    epsilon: Number
    primal_witness: object
    dual_witness: object
    solver_status: str
    dual_value: Number | None = None
    label: int | None = None  # the output label of a srec or rect bound
    lp_shape: tuple[int, int] | None = None  # (rows, vars) of the LP solved
    pivots: tuple[int, int] = (0, 0)  # the LP solve's simplex pivots in phase 1 and 2

    def __post_init__(self) -> None:
        if self.value < -1e-9:
            raise SolverError(f"{self.bound_name} value {self.value} is negative")


@dataclass(frozen=True)
class ChainReport:
    """The chain of one (f, eps), its broken links, and every LP it solved."""

    eps: Number
    bprt_value: Number
    prt_value: Number
    srec_values: tuple[tuple[int, Number], ...]
    tol: Number
    passed: bool
    failures: tuple[str, ...]
    results: tuple[BoundResult, ...]


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------


def _check_eps(eps) -> None:
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0 <= eps < 1:
        raise ParameterError(f"eps must be a real number in [0, 1), got {eps!r}")


def _check_label(z, f: PartialFunction) -> None:
    if isinstance(z, bool) or not isinstance(z, numbers.Integral) or not 0 <= z < f.z_size:
        raise ParameterError(f"label must be an int in [0, {f.z_size}), got {z!r}")


def _eps(eps, mode: str) -> Number:
    """eps, checked to lie in [0, 1), in the arithmetic of `mode`."""
    _check_eps(eps)
    return _coerce(eps, mode)


def _coerce(v, mode: str) -> Number:
    return _exact(v) if mode == "rational" else float(v)


@functools.lru_cache(maxsize=1024)
def _bit_positions(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, lowest first."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _coverage(entries, x_size: int, y_size: int,
              f: PartialFunction | None = None) -> tuple[list[list], list[list] | None]:
    """One pass over (rectangle, label, weight) `entries`: the x_size x
    y_size grid whose cell sums the weights of the entries whose rectangle
    contains it, and, given f, the grid of only those whose label answers
    the cell correctly (any label off the promise; None without f).

    Each rectangle's set row and column bits, masked to the grid, are read
    from `_bit_positions`, memoized for the last 1,024 masks, and f's
    labels from its table rows.  Each cell adds its weights in entry order,
    starting from the int 0, so floats round as in a cell-by-cell sum and a
    cell no entry covers stays 0."""
    cover = [[0] * y_size for _ in range(x_size)]
    correct = None if f is None else [[0] * y_size for _ in range(x_size)]
    rows, cols = (1 << x_size) - 1, (1 << y_size) - 1
    for rect, label, w in entries:
        ys = _bit_positions(rect.col_mask & cols)
        keep = (None, label)
        for x in _bit_positions(rect.row_mask & rows):
            row = cover[x]
            for y in ys:
                row[y] += w
            if correct is not None:
                values, row = f.table[x], correct[x]
                for y in ys:
                    if values[y] in keep:
                        row[y] += w
    return cover, correct


def _strategy_from_weights(weights, x_size, y_size) -> LabeledRectangleStrategy:
    """Scale raw LP weights w into a normalized strategy with efficiency
    1/sum(w) (inflated to the actual max coverage when float noise pushes a
    cell fractionally above it)."""
    total = sum((w for _, _, w in weights), Fraction(0))
    if total <= 0:
        raise SolverError("cannot normalize an all-zero weight vector")
    entries = [(rect, z, w / total) for rect, z, w in weights if w > 0]
    cover, _ = _coverage(entries, x_size, y_size)
    efficiency = max([1 / total, *(cov for row in cover for cov in row)])
    return LabeledRectangleStrategy(entries, efficiency, x_size, y_size)


# ---------------------------------------------------------------------------
# The rectangle layer
# ---------------------------------------------------------------------------


def _cells(f: PartialFunction) -> list[tuple[int, int]]:
    return [(x, y) for x in range(f.x_size) for y in range(f.y_size)]


@functools.lru_cache(maxsize=8)
def _rect_incidence(x_size: int, y_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row and column masks of the nonempty rectangles of an x_size x
    y_size grid in enumeration order, and the cell x rectangle incidence:
    entry (x * y_size + y, k) says whether rectangle k contains (x, y).
    Every LP column is read off it.  Built once per grid shape; the arrays
    are read-only, since every caller shares them."""
    row_masks = np.repeat(np.arange(1, 1 << x_size), (1 << y_size) - 1)
    col_masks = np.tile(np.arange(1, 1 << y_size), (1 << x_size) - 1)
    xs, ys = np.divmod(np.arange(x_size * y_size), y_size)
    incidence = ((row_masks >> xs[:, None]) & (col_masks >> ys[:, None]) & 1).astype(bool)
    for array in (row_masks, col_masks, incidence):
        array.flags.writeable = False
    return row_masks, col_masks, incidence


def _row_set_sums(grid) -> tuple[np.ndarray, int | None]:
    """The column sums of `grid` over every row set, as one table built level
    by level: level i adds grid row x_size - 1 - i to the rows of the table
    before it, so table row k sums the grid rows x_size - 1 - i of the bits
    i of k (row 0 is the empty set), highest grid row first.  A grid of ints
    and Fractions is scaled to integers by the lcm L of its denominators and
    summed in int64, or in Python ints (an object table) when a sum could
    pass 2^62; any other grid is summed in float64.  Returns the table and
    L, None for float64."""
    values = [v for row in grid for v in row]
    scale = None
    if _is_exact(values):
        scale = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (scale // v.denominator) for v in values]
        bound = max(map(abs, values)) * len(values)  # no sum is larger
        dtype = np.int64 if bound < 1 << 62 else object
    else:
        dtype = float
    rows = np.array(values, dtype).reshape(len(grid), -1)
    table = np.zeros((1 << len(grid), rows.shape[1]), dtype)
    for level, row in enumerate(rows[::-1]):
        table[1 << level:2 << level] = table[:1 << level] + row
    return table, scale


def _best_rectangle(grid, caps: Caps) -> tuple[Number, Number]:
    """(max, min) over all rectangles A x B, the empty one included, of the
    total of `grid` on A x B: 0 (an int) when no rectangle's total is
    positive (negative for the min), else a float, or a Fraction for a grid
    of ints and Fractions.  For a fixed row set A the best column set keeps
    exactly the columns whose sum over A is positive (negative for the min),
    so only the row sets are enumerated; each total adds its columns in
    order."""
    check_rect_side(len(grid), len(grid[0]), caps)
    table, scale = _row_set_sums(grid)
    hi = np.maximum(table, 0).cumsum(axis=1)[:, -1].max()
    lo = np.minimum(table, 0).cumsum(axis=1)[:, -1].min()
    return tuple(0 if not v else float(v) if scale is None else Fraction(int(v), scale)
                 for v in (hi, lo))


def _signed_grid(f: PartialFunction, weight, z: int) -> list[list]:
    """weight(x, y) on f^{-1}(z), its negation on the rest of the promise,
    and 0 off the promise."""

    def entry(x: int, y: int):
        fz = f.value(x, y)
        return 0 if fz is None else weight(x, y) if fz == z else -weight(x, y)

    return [[entry(x, y) for y in range(f.y_size)] for x in range(f.x_size)]


# ---------------------------------------------------------------------------
# The weight-form LP of all five bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Classes:
    """One weight-form LP reduced over the classes of an equitable partition
    of its rows and (rectangle, label) columns, ready to solve in one
    arithmetic: one row per row class and one column per column class,
    classes numbered in the order of their first member, and the int32
    arrays that expand a reduced solution to the full LP.  The arrays are
    read-only; the LP's are float64 in float mode and ints and Fractions
    (object) in rational mode."""

    objective: np.ndarray  # the size of each column class
    matrix: np.ndarray  # row class x column class: a member row summed over the column class
    relations: tuple  # the relation of each row class
    reps: list  # the first row of each row class, whose rhs is the class's
    columns: np.ndarray  # the reduced column of each full column
    row_class: np.ndarray  # the class of each row
    row_share: np.ndarray  # the size of each row's class

    @property
    def nbytes(self) -> int:
        """The bytes the entry's arrays hold (an object array at pointer size
        per entry, not the numbers it points to); the per-row-class
        `relations` and `reps` are not counted."""
        return sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))


def _weight_form(
    name: str, f: PartialFunction, mode: str, caps: Caps | None, rows, n_labels=1
) -> tuple[LpSolution, list[tuple[Rectangle, int, Number]], Number, dict]:
    """The one LP of all five bounds: minimize sum(w) over weights
    w_{R,z} >= 0, one per nonempty rectangle R in enumeration order and
    label z < n_labels, so column j is rectangle j // n_labels.
    Each of `rows` is (terms, correct, relation, rhs).  A (cell, c) term
    adds c times the weights of the rectangles containing the cell, under
    the labels its row counts: those answering the cell correctly (any label
    off the promise) in a `correct` row, every label otherwise.

    The LP is solved over the classes of an equitable partition of its rows
    and columns (`_classes`): one row per row class Q, one weight w_O per
    column class O with objective |O|, and each coefficient the sum over O
    of a member row's.  The memo of `_lp_classes` holds that reduced
    matrix and objective, one entry per arithmetic, so a call builds only
    the right-hand side: each row class's rhs, which eps sets.  Each member
    column then gets w_O and each member row the dual y_Q / |Q|, which is
    an optimal solution of the full LP.  The LP caps bound the reduced LP.

    Returns that full-size optimal solution, the (rectangle, label, weight)
    triples of its positive weights, the dual objective dual . rhs, checked
    against the value, and the fields `lp_shape` (rows, vars of the LP
    solved) and `pivots` for the BoundResult."""
    caps = caps or default_caps()
    lp = _lp_classes(f, rows, n_labels, mode, caps)
    rhs = [b for _, _, _, b in rows]
    problem = LpProblem("min", lp.objective, lp.matrix, lp.relations,
                        np.array([rhs[i] for i in lp.reps], lp.matrix.dtype))
    reduced = lp_solve(problem, mode, caps)
    if reduced.status != "optimal":
        raise SolverError(f"{name} LP terminated {reduced.status}")
    w, y = np.fromiter(reduced.primal, lp.matrix.dtype, len(reduced.primal)), reduced.dual
    primal = tuple(w[lp.columns].tolist())
    dual = tuple([y[q] / size if size > 1 else y[q]
                  for q, size in zip(lp.row_class.tolist(), lp.row_share.tolist())])
    sol = dataclasses.replace(reduced, primal=primal, dual=dual)
    dual_value = sum(d * b for d, b in zip(dual, rhs))
    gap = abs(sol.objective_value - dual_value)
    limit = 0 if mode == "rational" else _GAP_TOL
    if gap > limit:
        raise SolverError(f"{name}: primal/dual gap {float(gap)} exceeds {limit}")
    picked = w.astype(bool)[lp.columns].nonzero()[0]  # the support, member by member
    rects = picked // n_labels
    row_masks, col_masks, _ = _rect_incidence(f.x_size, f.y_size)
    support = [(Rectangle(r, c), j % n_labels, primal[j]) for r, c, j in
               zip(row_masks[rects].tolist(), col_masks[rects].tolist(), picked.tolist())]
    return sol, support, dual_value, {"lp_shape": lp.matrix.shape, "pivots": reduced.pivots}


def _reduced_matrix(counts: np.ndarray, terms, mode: str) -> np.ndarray:
    """The reduced LP's matrix in the arithmetic of `mode`: row q adds, for
    each (cell, c, label) of terms[q], c times the number of columns of each
    class whose rectangle contains the cell, under the term's label (every
    label for -1); counts[z, cell, o] is that number under label z."""
    matrix = np.zeros((len(terms), counts.shape[2]), float if mode == "float" else object)
    for q, row in enumerate(terms):
        for cell, c, label in row:
            per_class = counts[:, cell].sum(axis=0) if label < 0 else counts[label, cell]
            matrix[q] += _coerce(c, mode) * per_class
    return matrix


# ---------------------------------------------------------------------------
# The equitable partition of a weight-form LP
# ---------------------------------------------------------------------------


# The reduced LPs of recent structures, oldest first: at most _MEMO_ENTRIES
# of them, holding at most _MEMO_BYTES (`_Classes.nbytes`), so that a sweep
# over wide grids does not keep every LP's matrix.
_MEMO: dict = {}
_MEMO_ENTRIES = 256
_MEMO_BYTES = 16 << 20


def _lp_classes(f: PartialFunction, rows, n_labels: int, mode: str, caps: Caps) -> _Classes:
    """The reduced form of a weight-form LP in the arithmetic of `mode`,
    memoized by value, by the LP's structure (`_lp_structure`: the function's
    labels, mu and the row layout, not eps) and `mode`, so that a float
    matrix never reaches a rational solve; an entry that alone exceeds
    _MEMO_BYTES is returned but not kept.  A miss on more (rectangle, label)
    columns than two labels have on a rect_side grid raises CapacityError."""
    check_rect_side(f.x_size, f.y_size, caps)
    key = (f.x_size, f.y_size, n_labels, _lp_structure(f, rows), mode)
    classes = _MEMO.get(key)
    if classes is None:
        columns = (2**f.x_size - 1) * (2**f.y_size - 1) * n_labels
        if columns > (limit := 2 * (2**caps.rect_side - 1) ** 2):
            raise CapacityError(f"{columns} (rectangle, label) columns exceed the {limit} "
                                "of two labels on a rect_side grid; raise rect_side to override")
        classes = _classes(*key, caps)
        if classes.nbytes <= _MEMO_BYTES:
            while _MEMO and (len(_MEMO) >= _MEMO_ENTRIES or classes.nbytes + sum(
                    c.nbytes for c in _MEMO.values()) > _MEMO_BYTES):
                del _MEMO[next(iter(_MEMO))]
            _MEMO[key] = classes
    return classes


def _lp_structure(f: PartialFunction, rows) -> tuple:
    """The rows of a weight-form LP as (relation, rhs rank, terms), each term
    (cell index, coefficient, label) with label -1 where the term counts
    every label.  rhs values are replaced by their rank in order of first
    appearance, so LPs that differ only in eps share a structure unless eps
    makes two right-hand sides equal."""
    ranks: dict = {}
    table, y_size = f.table, f.y_size
    out = []
    for terms, correct, rel, rhs in rows:
        norm = []
        for (x, y), c in terms:
            label = table[x][y] if correct else None
            norm.append((x * y_size + y, c, -1 if label is None else label))
        out.append((rel, ranks.setdefault(rhs, len(ranks)), tuple(norm)))
    return tuple(out)


# Refinement splits the columns by _COLOUR_SLICE group colours at a time, and
# counts hits over blocks of _RECT_BLOCK rectangles (or column classes).
_COLOUR_SLICE = 16
_RECT_BLOCK = 4096


def _classes(x_size: int, y_size: int, n_labels: int, rows: tuple, mode: str,
             caps: Caps) -> _Classes:
    """An equitable partition of the weight-form LP with `rows` (as
    `_lp_structure` gives them), found by colour refinement, and the LP
    reduced over it in the arithmetic of `mode`.

    The terms of a row that share a coefficient form a group; a term hits
    column (k, z) when rectangle k contains its cell and its label is z or
    -1.  Rows start coloured by their relation and rhs rank, groups by their
    row's and their coefficient, and all columns alike.  Each round splits
    the columns by how many hitting terms they have of each group colour,
    counted through the cell x rectangle incidence a slice of colours at a
    time (one slice after another gives the same classes); then the rows by
    how many groups they have of each colour, and the groups by their row's
    colour and their terms' hits on the columns of each class.  Once no group
    splits, no class would.  The rows of a class then have equal sums over
    each column class, and the columns of a class over each row class, so
    the reduced LP of `_weight_form` expands to an optimal solution of the
    full LP.  Every orbit of a symmetry group of the LP lies in one class.
    The all-zero columns, if any, form one class, which never enters a basis
    (its reduced cost is its size).  Classes only split, so once they pass
    the LP caps of `mode`, refinement raises CapacityError."""
    incidence = _rect_incidence(x_size, y_size)[2]
    n_cells, n_rects = incidence.shape
    kinds: dict = {}  # group colours first, so that max + 1 counts them
    groups: dict = {}  # (row, coefficient) -> group
    terms = [(groups.setdefault((i, c), len(groups)), cell, label)
             for i, (_, _, row) in enumerate(rows) for cell, c, label in row]
    group_row = np.array([i for i, _ in groups], int)
    group = np.array([kinds.setdefault((*rows[i][:2], c), len(kinds)) for i, c in groups], int)
    row_start = np.array([kinds.setdefault((rel, b), len(kinds)) for rel, b, _ in rows], int)
    term_group, term_cell, term_label = np.array(terms, int).reshape(-1, 3).T
    hit_term, hit_label = np.nonzero(
        (term_label[:, None] < 0) | (term_label[:, None] == np.arange(n_labels)))
    # at[g, z * n_cells + cell]: the terms of group g at the cell that count label z
    at = np.zeros((len(groups), n_labels * n_cells))
    np.add.at(at, (term_group[hit_term], hit_label * n_cells + term_cell[hit_term]), 1)
    column = np.zeros(n_rects * n_labels, int)
    while True:
        n_groups = group.max(initial=-1) + 1
        per_colour = np.zeros((n_groups, n_labels * n_cells))
        np.add.at(per_colour, group, at)
        for start in range(0, n_groups, _COLOUR_SLICE):
            colours = per_colour[start:start + _COLOUR_SLICE].reshape(-1, n_cells)
            key = np.empty((n_rects, n_labels, len(colours) // n_labels + 1), np.int32)
            key[..., 0] = column.reshape(n_rects, n_labels)
            for block in range(0, n_rects, _RECT_BLOCK):
                part = incidence[:, block:block + _RECT_BLOCK]
                key[block:block + _RECT_BLOCK, :, 1:] = (colours @ part).reshape(
                    -1, n_labels, part.shape[1]).T
            column = _class_ids(key.reshape(n_rects * n_labels, -1))
        n_classes = column.max(initial=-1) + 1
        in_row = np.zeros((len(rows), n_groups), int)
        np.add.at(in_row, (group_row, group), 1)
        row = _class_ids(np.column_stack([row_start, in_row]))
        check_lp_caps(n_classes, row.max(initial=-1) + 1, mode, caps)
        # counts[z, cell, o]: the columns (k, z) of class o with the cell in k
        counts = np.empty((n_labels, n_cells, n_classes), np.int32)
        for z, ids in enumerate(column.reshape(n_rects, n_labels).T.copy()):
            for cell, inside in enumerate(incidence):
                counts[z, cell] = np.bincount(ids, inside, n_classes)
        key = np.empty((len(group), n_classes + 2), np.int32)
        key[:, 0], key[:, 1] = group, row[group_row]
        for block in range(0, n_classes, _RECT_BLOCK):
            key[:, 2 + block:2 + block + _RECT_BLOCK] = at @ counts.reshape(
                -1, n_classes)[:, block:block + _RECT_BLOCK]
        group = _class_ids(key)
        if group.max(initial=-1) + 1 == n_groups:
            break
    reps = np.unique(row, return_index=True)[1].tolist()
    objective = np.bincount(column, minlength=n_classes).astype(
        float if mode == "float" else object)
    matrix = _reduced_matrix(counts, [rows[i][2] for i in reps], mode)
    expansion = [a.astype(np.int32) for a in (column, row, np.bincount(row)[row])]
    for array in (objective, matrix, *expansion):
        array.flags.writeable = False
    return _Classes(objective, matrix, tuple(rows[i][0] for i in reps), reps, *expansion)


def _class_ids(key: np.ndarray) -> np.ndarray:
    """The classes of equal rows of the 2-d array `key`, numbered in the
    order of their first row."""
    key = np.ascontiguousarray(key)
    _, first, inverse = np.unique(key.view(np.dtype((np.void, key.itemsize * key.shape[1]))),
                                  return_index=True, return_inverse=True)
    number = np.empty(len(first), int)
    number[np.argsort(first)] = np.arange(len(first))
    return number[inverse.reshape(-1)]


def _partition_form(
    name: str, f: PartialFunction, eps, mode: str, caps: Caps | None, correct, coverage: str
) -> BoundResult:
    """bprt, bprt_mu and prt: the weight form over (rectangle, label)
    weights.  `correct` lists the correctness rows, each as (cell, weight)
    terms, that must reach 1 - eps; one coverage row per cell sums w over
    the rectangles containing it, with relation `coverage` against 1.  The
    dual witness alpha[cell] is the weighted sum of the correctness
    multipliers and beta holds the coverage multipliers, negated on `<=`
    rows so that it is nonnegative."""
    correct = [[(cell, _coerce(w, mode)) for cell, w in terms] for terms in correct]
    cells = _cells(f)
    rows = [(terms, True, ">=", 1 - eps) for terms in correct]
    rows += [([(cell, 1)], False, coverage, 1) for cell in cells]
    sol, support, dual_value, stats = _weight_form(name, f, mode, caps, rows, f.z_size)

    strategy = _strategy_from_weights(support, f.x_size, f.y_size)
    alpha: dict[tuple[int, int], Number] = {}
    for terms, d in zip(correct, sol.dual):
        for cell, w in terms:
            alpha[cell] = alpha.get(cell, _coerce(0, mode)) + d * w
    sign = -1 if coverage == "<=" else 1
    beta = {cell: sign * d for cell, d in zip(cells, sol.dual[len(correct):])}
    return BoundResult(
        name, sol.objective_value, eps, strategy, {"alpha": alpha, "beta": beta}, sol.status,
        dual_value, **stats,
    )


def bprt_mu(
    f: PartialFunction,
    mu: InputDistribution,
    eps,
    mode: str = "float",
    caps: Caps | None = None,
) -> BoundResult:
    """Relaxed partition bound under a fixed input distribution.

    Minimizes total weight over labeled rectangles subject to mu-weighted
    average correctness >= 1 - eps (inputs outside the promise count as
    correct under any label) and per-input coverage <= 1.
    """
    eps = _eps(eps, mode)
    mu.check_compatible(f)
    correct = [[(cell, mu.prob(*cell)) for cell in _cells(f)]]
    return _partition_form("bprt_mu", f, eps, mode, caps, correct, "<=")


def bprt(
    f: PartialFunction, eps, mode: str = "float", caps: Caps | None = None
) -> BoundResult:
    """Distribution-free relaxed partition bound (the max over mu of
    bprt_mu): per-input correctness >= 1 - eps (any label off the promise)
    and per-input coverage <= 1."""
    eps = _eps(eps, mode)
    correct = [[(cell, 1)] for cell in _cells(f)]
    return _partition_form("bprt", f, eps, mode, caps, correct, "<=")


def prt(
    f: PartialFunction, eps, mode: str = "float", caps: Caps | None = None
) -> BoundResult:
    """Partition bound: per-input correctness >= 1 - eps on the promise and
    per-input total coverage exactly 1.  Always feasible via singleton
    rectangles."""
    eps = _eps(eps, mode)
    return _partition_form("prt", f, eps, mode, caps, [[(c, 1)] for c in f.domain()], "=")


def srec(
    f: PartialFunction, eps, z0: int, mode: str = "float", caps: Caps | None = None
) -> BoundResult:
    """Smooth rectangle bound for output label z0: unlabeled weights w'_R
    with coverage in [1 - eps, 1] on f^{-1}(z0) and at most eps on the rest
    of the promise."""
    eps = _eps(eps, mode)
    _check_label(z0, f)
    side = f.preimage(z0)
    if not side:
        raise DegenerateInputError(f"f^(-1)({z0}) is empty")
    other = [cell for cell in f.domain() if f.value(*cell) != z0]
    blocks = (("lower", side, ">=", 1 - eps), ("upper", side, "<=", 1),
              ("wrong", other, "<=", eps))
    rows = [([(cell, 1)], False, rel, b) for _, cells, rel, b in blocks for cell in cells]
    sol, support, dual_value, stats = _weight_form("srec", f, mode, caps, rows)
    witness = {r: w for r, _, w in support}
    duals = dict(zip([(kind, *cell) for kind, cells, _, _ in blocks for cell in cells], sol.dual))
    return BoundResult(
        "srec", sol.objective_value, eps, witness, duals, sol.status, dual_value, z0, **stats
    )


def rect_dual(
    f: PartialFunction,
    eps,
    z: int,
    mu: InputDistribution | None = None,
    mode: str = "float",
    caps: Caps | None = None,
) -> BoundResult:
    """Rectangle bound for label z: maximize (1-eps)*alpha(f^{-1}(z)) -
    eps*alpha(rest of promise) over alpha >= 0 with alpha(R on the z side) -
    alpha(R off it) <= 1 for every rectangle.  Solved as its LP dual, the
    weight form: coverage at least 1 - eps on the z side and at most eps on
    the rest; alpha is read off the row duals.  The dual witness holds one
    weight per nonempty rectangle in enumeration order, 0 on every rectangle
    that meets no cell of alpha's support.

    A supplied mu restricts the support of alpha to the cells mu charges.
    """
    eps = _eps(eps, mode)
    _check_label(z, f)
    if mu is not None:
        mu.check_compatible(f)
    cells = [cell for cell in f.domain() if mu is None or mu.prob(*cell) > 0]
    rows = [
        ([(cell, 1)], False, ">=", 1 - eps) if f.value(*cell) == z
        else ([(cell, -1)], False, ">=", -eps)
        for cell in cells
    ]
    sol, _, dual_value, stats = _weight_form("rect_dual", f, mode, caps, rows)
    alpha = dict(zip(cells, sol.dual))
    return BoundResult(
        "rect", sol.objective_value, eps, alpha, sol.primal, sol.status, dual_value, z, **stats
    )


def corruption_witness(
    f: PartialFunction,
    mu: InputDistribution,
    beta,
    delta_c,
    z: int,
    eps=0,
    caps: Caps | None = None,
) -> tuple[dict[tuple[int, int], Number], bool, Number]:
    """The explicit corruption assignment for a two-output function:
    alpha = mu/beta on f^{-1}(z), mu/(delta_c * beta) on the other defined
    side, 0 off the promise.  Feasibility of every rectangle constraint is
    decided by the best-rectangle oracle; the rect_dual objective at this
    alpha is returned either way."""
    if f.z_size != 2:
        raise ParameterError("corruption witness requires a two-output function")
    if beta <= 0 or delta_c <= 0:
        raise ParameterError("beta and delta_c must be positive")
    _check_eps(eps)
    mu.check_compatible(f)
    alpha: dict[tuple[int, int], Number] = {}
    for x, y in f.domain():
        m = mu.prob(x, y)
        alpha[(x, y)] = m / beta if f.value(x, y) == z else m / (delta_c * beta)
    slack = _slack(alpha.values(), 1e-12)
    feasible, objective = _alpha_value(f, alpha, z, eps, slack, caps or default_caps())
    return alpha, feasible, objective


def _alpha_value(f: PartialFunction, alpha, z: int, eps, tol, caps: Caps) -> tuple[bool, Number]:
    """Whether alpha (0 where it is missing) keeps every rectangle's signed
    total, alpha on f^{-1}(z) minus alpha on the rest of the promise, at most
    1 + tol, decided by the best-rectangle oracle; and the rect_dual
    objective (1 - eps) * alpha(f^{-1}(z)) - eps * alpha(rest) at alpha."""
    worst, _ = _best_rectangle(_signed_grid(f, lambda x, y: alpha.get((x, y), 0), z), caps)
    on_side = sum(alpha.get(cell, 0) for cell in f.preimage(z))
    off_side = sum(alpha.get(cell, 0) for cell in f.domain() if f.value(*cell) != z)
    return worst <= 1 + tol, (1 - eps) * on_side - eps * off_side


# ---------------------------------------------------------------------------
# Discrepancy
# ---------------------------------------------------------------------------


def discrepancy(
    f: PartialFunction, mu: InputDistribution, caps: Caps | None = None
) -> Number:
    """Maximum over rectangles of |mu(R on the 0 side) - mu(R on the 1 side)|;
    cells off the promise count in neither class."""
    if f.z_size != 2:
        raise ParameterError("discrepancy requires a two-output function")
    mu.check_compatible(f)
    hi, lo = _best_rectangle(_signed_grid(f, mu.prob, 0), caps or default_caps())
    return max(hi, -lo)


# ---------------------------------------------------------------------------
# Chain verification and independent witness checking
# ---------------------------------------------------------------------------


def _chain_failures(eps, bprt_value, results, tol) -> list[str]:
    """The broken links of 1 - eps <= bprt <= prt, bprt_mu <= bprt and
    rect_z <= srec_z <= bprt, each as a message: bprt is `bprt_value`, and
    every other bound is read off `results`."""
    value = {(r.bound_name, r.label): r.value for r in results}
    links = [("bprt", bprt_value, "prt", value["prt", None]),
             ("bprt_mu", value["bprt_mu", None], "bprt", bprt_value)]
    for (name, z), v in value.items():
        if name == "srec":
            links += [(f"srec_{z}", v, "bprt", bprt_value),
                      (f"rect_{z}", value["rect", z], f"srec_{z}", v)]
    failures = [f"bprt {float(bprt_value)} < 1 - eps"] if bprt_value < (1 - eps) - tol else []
    return failures + [f"{a} {float(u)} > {b} {float(v)}" for a, u, b, v in links if u > v + tol]


def verify_bound_chain(
    f: PartialFunction, eps, mode: str = "float", caps: Caps | None = None
) -> ChainReport:
    """Solve each LP bound of (f, eps) once, in `mode`: bprt, prt, bprt_mu
    under the uniform mu, then srec and rect per label with a nonempty
    preimage; and check the chain's links on them, exactly in rational mode
    and within 1e-6 in float.  bprt_mu <= bprt, since bprt's per-cell
    correctness rows imply bprt_mu's one mu-averaged row; rect_z <= srec_z,
    since srec's LP is rect's plus the coverage <= 1 rows on the z side."""
    caps = caps or default_caps()
    tol = 0 if mode == "rational" else _GAP_TOL
    uniform = InputDistribution(((Fraction(1, f.x_size * f.y_size),) * f.y_size,) * f.x_size)
    results = (bprt(f, eps, mode, caps), prt(f, eps, mode, caps),
               bprt_mu(f, uniform, eps, mode, caps),
               *(r for z in range(f.z_size) if f.preimage(z) for r in (
                   srec(f, eps, z, mode, caps), rect_dual(f, eps, z, None, mode, caps))))
    srec_vals = tuple((r.label, r.value) for r in results if r.bound_name == "srec")
    eps_c, b, p = _coerce(eps, mode), results[0].value, results[1].value
    failures = _chain_failures(eps_c, b, results, tol)
    return ChainReport(eps_c, b, p, srec_vals, tol, not failures, tuple(failures), results)


def check_witness(
    result: BoundResult,
    f: PartialFunction,
    mu: InputDistribution | None = None,
    caps: Caps | None = None,
) -> tuple[bool, Number]:
    """Re-derive feasibility and objective of a primal witness from scratch.

    Returns (feasible within 1e-7, recomputed objective).  Exact witnesses
    are checked with zero tolerance.  A bprt, prt or bprt_mu witness reads
    its coverage and its correct-label coverage from one `_coverage` pass
    with f (the bit walk whose masks' bit positions are memoized for the
    last 1,024 masks), and a srec witness its coverage from one pass
    without.  A srec or rect witness is checked for the label it was built
    for (`result.label`).  A partition witness whose grid differs in shape
    from f, a srec or rect witness that holds a rectangle or cell outside
    f's grid, or a mu of another shape raises DimensionError.
    """
    caps = caps or default_caps()
    eps = result.epsilon
    name = result.bound_name

    if name in ("bprt", "bprt_mu", "prt"):
        strategy: LabeledRectangleStrategy = result.primal_witness
        if (strategy.x_size, strategy.y_size) != (f.x_size, f.y_size):
            raise DimensionError(f"strategy is {strategy.x_size}x{strategy.y_size}, "
                                 f"function is {f.x_size}x{f.y_size}")
        tol = _slack((eps, *(w for _, _, w in strategy.entries)), _WITNESS_TOL)
        scale = 1 / strategy.efficiency  # back to raw LP weights w = p * scale
        objective = scale * sum((w for _, _, w in strategy.entries), Fraction(0))
        cover, correct = _coverage(strategy.entries, f.x_size, f.y_size, f)
        cells = _cells(f)
        feasible = all(cover[x][y] * scale <= 1 + tol for x, y in cells)
        if name == "prt":
            feasible &= all(abs(cover[x][y] * scale - 1) <= tol for x, y in cells)
        if name == "bprt_mu":
            if mu is None:
                raise ParameterError("checking a bprt_mu witness needs its distribution mu")
            mu.check_compatible(f)
            total = sum(mu.prob(x, y) * correct[x][y] for x, y in cells) * scale
            feasible &= total >= (1 - eps) - tol
        else:
            rows = cells if name == "bprt" else f.domain()
            feasible &= all(correct[x][y] * scale >= (1 - eps) - tol for x, y in rows)
        return feasible, objective

    if name in ("srec", "rect") and result.label is None:
        raise ParameterError(f"checking a {name} witness needs its label")
    z = result.label

    if name == "srec":
        weights: dict[Rectangle, Number] = result.primal_witness
        _check_on_grid(f, [rect for rect in weights
                           if rect.row_mask >> f.x_size or rect.col_mask >> f.y_size])
        tol = _slack((eps, *weights.values()), _WITNESS_TOL)
        cover, _ = _coverage([(rect, None, w) for rect, w in weights.items()],
                             f.x_size, f.y_size)
        feasible = bool(f.preimage(z)) and all(
            (1 - eps) - tol <= cover[x][y] <= 1 + tol if f.value(x, y) == z
            else cover[x][y] <= eps + tol
            for x, y in f.domain()
        )
        return feasible, sum(weights.values())

    if name == "rect":
        alpha: dict[tuple[int, int], Number] = result.primal_witness
        _check_on_grid(f, [cell for cell in alpha
                           if not (0 <= cell[0] < f.x_size and 0 <= cell[1] < f.y_size)])
        tol = _slack((eps, *alpha.values()), _WITNESS_TOL)
        fits, objective = _alpha_value(f, alpha, z, eps, tol, caps)
        return fits and all(v >= -tol for v in alpha.values()), objective

    raise ParameterError(f"unknown bound name {name!r}")


def _check_on_grid(f: PartialFunction, outside: list) -> None:
    """DimensionError naming the first of a witness's rectangles or cells
    found `outside` f's grid, if any."""
    if outside:
        raise DimensionError(f"witness holds {outside[0]}, outside the "
                             f"{f.x_size}x{f.y_size} grid of the function")


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def csv_label(fn_label: str) -> str:
    """Quote a function label for CSV when it contains a comma."""
    return f'"{fn_label}"' if "," in fn_label else fn_label


def csv_row(result: BoundResult, fn_label: str, f: PartialFunction) -> str:
    value = float(result.value)
    log2_value = repr(math.log2(value)) if value > 0 else "-inf"
    return (
        f"{result.bound_name},{csv_label(fn_label)},{f.x_size},{f.y_size},{f.z_size},"
        f"{float(result.epsilon)!r},{value!r},{log2_value},{result.solver_status}"
    )
