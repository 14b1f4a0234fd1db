"""Finite-probability and combinatorial primitives.

All quantities are in bits: logarithms are base 2 throughout, with the
continuity conventions 0*log(0/q) = 0 and 0*log(0/0) = 0.  Numeric values may
be floats or :class:`fractions.Fraction`; every operation here is generic over
the two, which is what lets the exact-rational mode of the higher modules work
without separate code paths.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .caps import Caps, default_caps
from .errors import CapacityError, DimensionError, FormatError, ParameterError

__all__ = [
    "PartialFunction",
    "InputDistribution",
    "Rectangle",
    "FiniteDistribution",
    "BadSet",
    "EMPTY_RECTANGLE",
    "stat_distance",
    "kl_divergence",
    "bad_set",
    "enumerate_rectangles",
    "rectangle_count",
]

Number = float | Fraction

_NORMALIZE_TOL = 1e-9
_NORMALIZED_TOL = 1e-12


def _is_exact(values: Iterable) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in values)


def _slack(values: Iterable, inexact: float) -> Number:
    """The tolerance of a comparison of `values`: 0 when every one is an
    exact number, else `inexact`."""
    return 0 if _is_exact(values) else inexact


def _exact(v) -> int | Fraction:
    """`v` as an int or Fraction: floats and numpy scalars through Fraction."""
    return v if type(v) in (int, Fraction) else Fraction(v)


def _pow2(delta_exp) -> Number:
    """2**delta_exp: exact for an integral int or Fraction, else a float."""
    if isinstance(delta_exp, int) or (
        isinstance(delta_exp, Fraction) and delta_exp.denominator == 1
    ):
        return Fraction(2) ** int(delta_exp)
    return 2.0 ** float(delta_exp)


# ---------------------------------------------------------------------------
# Partial functions and input distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialFunction:
    """A finite two-party function, possibly partial.

    ``table[x][y]`` is an output index in ``[0, z_size)`` or ``None`` where
    the function is undefined (the input violates the promise).
    """

    x_size: int
    y_size: int
    z_size: int
    table: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        if self.x_size <= 0 or self.y_size <= 0 or self.z_size <= 0:
            raise ParameterError("x_size, y_size, z_size must be positive")
        if len(self.table) != self.x_size or any(
            len(row) != self.y_size for row in self.table
        ):
            raise DimensionError("table shape does not match x_size * y_size")
        defined = 0
        for row in self.table:
            for v in row:
                if v is None:
                    continue
                defined += 1
                if not (0 <= v < self.z_size):
                    raise ParameterError(f"output value {v} outside [0, {self.z_size})")
        if defined == 0:
            raise ParameterError("function must have at least one defined cell")

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int | None]], z_size: int
    ) -> "PartialFunction":
        table = tuple(tuple(row) for row in rows)
        return cls(len(table), len(table[0]), z_size, table)

    def value(self, x: int, y: int) -> int | None:
        return self.table[x][y]

    def is_defined(self, x: int, y: int) -> bool:
        return self.table[x][y] is not None

    def domain(self) -> list[tuple[int, int]]:
        """Cells where the function is defined, in row-major order."""
        return [
            (x, y)
            for x in range(self.x_size)
            for y in range(self.y_size)
            if self.table[x][y] is not None
        ]

    def preimage(self, z: int) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x in range(self.x_size)
            for y in range(self.y_size)
            if self.table[x][y] == z
        ]

    # -- COMMFN text format -------------------------------------------------

    MAGIC = "COMMFN 1"

    def to_text(self) -> str:
        lines = [self.MAGIC, f"{self.x_size} {self.y_size} {self.z_size}"]
        for row in self.table:
            lines.append(" ".join("*" if v is None else str(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PartialFunction":
        (x_size, y_size, z_size), body = _read_text(text, cls.MAGIC, 3)
        table = _read_grid(body, x_size, y_size, lambda t: None if t == "*" else int(t))
        return _construct(cls, x_size, y_size, z_size, table)


@dataclass(frozen=True)
class InputDistribution:
    """A probability mass over the input grid X * Y."""

    mass: tuple[tuple[Number, ...], ...]

    def __post_init__(self) -> None:
        if not self.mass or not self.mass[0]:
            raise DimensionError("empty mass matrix")
        width = len(self.mass[0])
        if any(len(row) != width for row in self.mass):
            raise DimensionError("ragged mass matrix")
        total = sum(v for row in self.mass for v in row)
        if any(not v >= 0 for row in self.mass for v in row):
            raise ParameterError("negative or NaN probability mass")
        if abs(total - 1) > _NORMALIZE_TOL:
            raise ParameterError(f"mass sums to {total}, not 1")
        if total != 1:
            # Renormalize decimal text inputs exactly once at load.
            object.__setattr__(
                self,
                "mass",
                tuple(tuple(v / total for v in row) for row in self.mass),
            )

    @property
    def x_size(self) -> int:
        return len(self.mass)

    @property
    def y_size(self) -> int:
        return len(self.mass[0])

    def prob(self, x: int, y: int) -> Number:
        return self.mass[x][y]

    def x_marginal(self, x: int) -> Number:
        return sum(self.mass[x])

    def y_marginal(self, y: int) -> Number:
        return sum(row[y] for row in self.mass)

    def check_compatible(self, f: PartialFunction) -> None:
        if (self.x_size, self.y_size) != (f.x_size, f.y_size):
            raise DimensionError(
                f"distribution is {self.x_size}x{self.y_size}, "
                f"function is {f.x_size}x{f.y_size}"
            )

    # -- COMMDIST text format ----------------------------------------------

    MAGIC = "COMMDIST 1"

    def to_text(self) -> str:
        lines = [self.MAGIC, f"{self.x_size} {self.y_size}"]
        for row in self.mass:
            lines.append(" ".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "InputDistribution":
        (x_size, y_size), body = _read_text(text, cls.MAGIC, 2)
        return _construct(cls, _read_grid(body, x_size, y_size, float))


# ---------------------------------------------------------------------------
# The COMM* text formats: a magic line, a line of sizes and a body
# ---------------------------------------------------------------------------


def _read_text(text: str, magic: str, n_sizes: int) -> tuple[tuple[int, ...], list[str]]:
    """The `n_sizes` integers of the size line of a text that opens with the
    line `magic`, and the lines after it; blank lines are skipped and every
    line is stripped."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != magic:
        raise FormatError(f"missing magic line {magic!r}")
    try:
        sizes = tuple(int(t) for t in lines[1].split())
    except (IndexError, ValueError):
        sizes = ()
    if len(sizes) != n_sizes:
        raise FormatError(f"bad size line in {magic.split()[0]} file")
    return sizes, lines[2:]


def _read_grid(lines: list[str], x_size: int, y_size: int, token) -> tuple[tuple, ...]:
    """The x_size rows of y_size whitespace-separated tokens in `lines`, each
    token read by `token`, which raises ValueError on a bad one."""
    rows = [line.split() for line in lines]
    if len(rows) != x_size:
        raise FormatError(f"expected {x_size} rows, found {len(rows)}")
    if any(len(row) != y_size for row in rows):
        raise FormatError(f"expected {y_size} tokens per row")
    try:
        return tuple(tuple(map(token, row)) for row in rows)
    except ValueError as exc:
        raise FormatError(f"bad token: {exc}") from exc


def _construct(cls, *fields):
    """cls(*fields), with a ParameterError or DimensionError as a FormatError."""
    try:
        return cls(*fields)
    except (ParameterError, DimensionError) as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Rectangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rectangle:
    """A combinatorial rectangle A x B, stored as bit masks over rows/columns.

    The empty rectangle has one canonical form: both masks zero.
    """

    row_mask: int
    col_mask: int

    def __post_init__(self) -> None:
        if self.row_mask == 0 or self.col_mask == 0:
            object.__setattr__(self, "row_mask", 0)
            object.__setattr__(self, "col_mask", 0)

    @property
    def is_empty(self) -> bool:
        return self.row_mask == 0

    def contains(self, x: int, y: int) -> bool:
        return bool((self.row_mask >> x) & 1 and (self.col_mask >> y) & 1)

    def cells(self, x_size: int, y_size: int) -> Iterator[tuple[int, int]]:
        for x in range(x_size):
            if not (self.row_mask >> x) & 1:
                continue
            for y in range(y_size):
                if (self.col_mask >> y) & 1:
                    yield (x, y)

    def __repr__(self) -> str:
        return f"Rectangle({self.row_mask:#b}, {self.col_mask:#b})"


EMPTY_RECTANGLE = Rectangle(0, 0)


def rectangle_count(x_size: int, y_size: int) -> int:
    """Number of rectangles over an x_size * y_size grid, empty included."""
    return (2**x_size - 1) * (2**y_size - 1) + 1


def check_rect_side(x_size: int, y_size: int, caps: Caps) -> None:
    """Raise CapacityError unless both sides are within the rect_side cap;
    everything that walks all row (or column) subsets checks this first."""
    if x_size > caps.rect_side or y_size > caps.rect_side:
        raise CapacityError(
            f"rectangle enumeration needs x_size, y_size <= {caps.rect_side} "
            f"(got {x_size}x{y_size}); raise the rect_side cap to override"
        )


def enumerate_rectangles(
    x_size: int, y_size: int, caps: Caps | None = None
) -> Iterator[Rectangle]:
    """Yield every rectangle exactly once: all nonempty products, then the
    canonical empty rectangle."""
    check_rect_side(x_size, y_size, caps or default_caps())
    if x_size <= 0 or y_size <= 0:
        raise ParameterError("sizes must be positive")
    for rows in range(1, 2**x_size):
        for cols in range(1, 2**y_size):
            yield Rectangle(rows, cols)
    yield EMPTY_RECTANGLE


# ---------------------------------------------------------------------------
# Finite distributions over an abstract universe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDistribution:
    """A distribution over a universe {0, ..., n-1}.

    Weights may be floats or Fractions; with Fractions every operation in
    this module is exact.
    """

    weights: tuple[Number, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise DimensionError("empty universe")
        if any(w < 0 for w in self.weights):
            raise ParameterError("negative weight")
        total = sum(self.weights)
        if abs(total - 1) > _slack(self.weights, _NORMALIZED_TOL):
            raise ParameterError(f"weights sum to {total}, not 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.weights)

    def prob(self, u: int) -> Number:
        return self.weights[u]

    def mass(self, members: int) -> Number:
        """Total weight of the subset given as a bit mask."""
        return sum(w for u, w in enumerate(self.weights) if (members >> u) & 1)

    @classmethod
    def uniform(cls, size: int) -> "FiniteDistribution":
        return cls(tuple(Fraction(1, size) for _ in range(size)))


def _check_same_universe(a: FiniteDistribution, b: FiniteDistribution) -> None:
    if a.size != b.size:
        raise DimensionError(f"universe sizes differ: {a.size} vs {b.size}")


def stat_distance(a: FiniteDistribution, b: FiniteDistribution) -> Number:
    """Statistical (total-variation) distance: max_T (a(T) - b(T)).

    Equals half the L1 distance; exact when both inputs are rational.
    """
    _check_same_universe(a, b)
    pos = sum(
        aw - bw for aw, bw in zip(a.weights, b.weights) if aw > bw
    )
    return pos if pos else (Fraction(0) if a.is_exact and b.is_exact else 0.0)


def kl_divergence(tau: FiniteDistribution, nu: FiniteDistribution) -> float:
    """Relative entropy D(tau || nu) in bits.

    Returns ``math.inf`` when tau puts mass where nu does not; the caller
    decides whether that is an error.
    """
    _check_same_universe(tau, nu)
    total = 0.0
    for t, n in zip(tau.weights, nu.weights):
        if t == 0:
            continue
        if n == 0:
            return math.inf
        total += float(t) * math.log2(float(t) / float(n))
    # Float rounding can leave a tiny negative residue on equal distributions.
    return max(total, 0.0)


@dataclass(frozen=True)
class BadSet:
    """The elements where tau exceeds nu by more than a factor 2**delta_exp,
    together with their tau-mass."""

    members: int
    mass_under_tau: Number


def bad_set(
    tau: FiniteDistribution, nu: FiniteDistribution, delta_exp: float
) -> BadSet:
    """Elements u with 2**delta_exp * nu(u) < tau(u), and their tau-mass."""
    _check_same_universe(tau, nu)
    if delta_exp <= 0:
        raise ParameterError("delta_exp must be positive")
    scale = _pow2(delta_exp)
    members = 0
    for u, (t, n) in enumerate(zip(tau.weights, nu.weights)):
        if scale * n < t:
            members |= 1 << u
    return BadSet(members, tau.mass(members))
