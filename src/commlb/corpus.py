"""Built-in functions, distributions, and protocols for tests and the CLI.

Function families are addressed as ``FAMILY,n[,extra]`` (with an optional
``corpus:`` prefix): EQ, GT, DISJ, IP on n-bit strings (n <= 3, so matrices
stay within the 8x8 enumeration cap), AND over single bits, CONST with the
constant as the parameter, and GHD,n,g, 1 at Hamming distance >= n/2 + g
and 0 at <= n/2 - g, with g a positive multiple of 1/2 (GHD,3,0.5 is total).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import InputDistribution, PartialFunction
from .errors import ParameterError
from .protocol import Leaf, Node, ProtocolTree

__all__ = [
    "CorpusSpec",
    "parse_spec",
    "make_function",
    "make_distribution",
    "make_protocol",
    "corpus_functions",
    "corpus_triples",
]

_MAX_BITS = 3


@dataclass(frozen=True)
class CorpusSpec:
    family: str
    n: int
    extra: float | int | None = None


def parse_spec(text: str) -> CorpusSpec:
    """Parse ``[corpus:]FAMILY,n[,extra]``."""
    body = text.removeprefix("corpus:")
    parts = [p.strip() for p in body.split(",")]
    if not parts or not parts[0]:
        raise ParameterError(f"empty corpus spec {text!r}")
    family = parts[0].upper()
    n = int(parts[1]) if len(parts) > 1 else 1
    extra: float | int | None = None
    if len(parts) > 2:
        raw = parts[2]
        extra = int(raw) if raw.lstrip("+-").isdigit() else float(raw)
    return CorpusSpec(family, n, extra)


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------


def _bit_function(n: int, rule) -> PartialFunction:
    if not (1 <= n <= _MAX_BITS):
        raise ParameterError(f"n must lie in [1, {_MAX_BITS}]")
    size = 2**n
    table = tuple(
        tuple(rule(x, y) for y in range(size)) for x in range(size)
    )
    return PartialFunction(size, size, 2, table)


def make_function(spec: CorpusSpec | str) -> PartialFunction:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    family, n = spec.family, spec.n
    if family == "EQ":
        return _bit_function(n, lambda x, y: 1 if x == y else 0)
    if family == "GT":
        return _bit_function(n, lambda x, y: 1 if x > y else 0)
    if family == "DISJ":
        return _bit_function(n, lambda x, y: 1 if (x & y) == 0 else 0)
    if family == "IP":
        return _bit_function(n, lambda x, y: bin(x & y).count("1") % 2)
    if family == "AND":
        return _bit_function(1, lambda x, y: x & y)
    if family == "CONST":
        z = n
        if z not in (0, 1):
            raise ParameterError("CONST takes the constant value 0 or 1")
        return PartialFunction(2, 2, 2, ((z, z), (z, z)))
    if family == "GHD":
        g = spec.extra if spec.extra is not None else 1
        if not (g > 0 and float(2 * g).is_integer()):
            raise ParameterError(f"GHD gap must be a positive multiple of 1/2, got {g!r}")

        def ghd(x: int, y: int) -> int | None:
            d = bin(x ^ y).count("1")
            if d >= n / 2 + g:
                return 1
            if d <= n / 2 - g:
                return 0
            return None

        return _bit_function(n, ghd)
    raise ParameterError(f"unknown function family {family!r}")


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def make_distribution(kind: str, f: PartialFunction) -> InputDistribution:
    if kind == "uniform":
        w = Fraction(1, f.x_size * f.y_size)
        return InputDistribution(
            tuple(tuple(w for _ in range(f.y_size)) for _ in range(f.x_size))
        )
    if kind == "uniform_on_domain":
        cells = f.domain()  # nonempty: PartialFunction refuses a table with no defined cell
        w = Fraction(1, len(cells))
        mass = [[Fraction(0)] * f.y_size for _ in range(f.x_size)]
        for x, y in cells:
            mass[x][y] = w
        return InputDistribution(tuple(tuple(row) for row in mass))
    raise ParameterError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _exchange_tree(f: PartialFunction | None, n: int, sent: int, depth: int):
    """The subtree after the first `depth` bits, `sent`, of the 2n that the
    parties send: Alice's n bits of x, most significant first, then Bob's of
    y.  A node's table indexes the full input; inputs inconsistent with the
    bits sent never reach it, so their entries are harmless."""
    if depth == 2 * n:
        z = None if f is None else f.value(sent >> n, sent & ((1 << n) - 1))
        return Leaf(0 if z is None else z)
    bit = n - 1 - depth % n
    p1 = tuple(Fraction((v >> bit) & 1) for v in range(1 << n))
    return Node("AB"[depth // n], p1,
                *(_exchange_tree(f, n, (sent << 1) | b, depth + 1) for b in (0, 1)))


def make_protocol(kind: str, *, n: int = 1, z: int = 1, flip: float = 0.25,
                  f: PartialFunction | None = None) -> ProtocolTree:
    """Named protocol trees.

    trivial_const: depth 0, outputs z.  send_x: Alice announces her bit.
    noisy_bit: Alice announces her bit flipped with probability ``flip``.
    exchange_all: both parties announce all n bits (0 <= n <= 3, read off f
    if given), and the leaf outputs f's value there (0 off the promise).
    and_protocol: exchange_all on AND.
    """
    if kind == "trivial_const":
        return ProtocolTree(Leaf(z), 2, 2, 2)
    if kind == "send_x":
        return ProtocolTree(
            Node("A", (Fraction(0), Fraction(1)), Leaf(0), Leaf(1)), 2, 2, 2
        )
    if kind == "noisy_bit":
        if not (0 <= flip <= 1):
            raise ParameterError("flip probability must lie in [0, 1]")
        return ProtocolTree(Node("A", (flip, 1 - flip), Leaf(0), Leaf(1)), 2, 2, 2)
    if kind == "exchange_all":
        if f is not None:
            size = f.x_size
            bits = size.bit_length() - 1
            if 2**bits != size or f.y_size != size:
                raise ParameterError("exchange_all needs a 2^n x 2^n function")
            n = bits
        if not 0 <= n <= _MAX_BITS:
            raise ParameterError(f"exchange_all needs n in [0, {_MAX_BITS}], got {n}")
        z_size = f.z_size if f is not None else 1
        return ProtocolTree(_exchange_tree(f, n, 0, 0), 2**n, 2**n, z_size)
    if kind == "and_protocol":
        return make_protocol("exchange_all", f=make_function("AND,1"))
    raise ParameterError(f"unknown protocol kind {kind!r}")


# ---------------------------------------------------------------------------
# The standard eight-function corpus and test triples
# ---------------------------------------------------------------------------


def corpus_functions() -> list[tuple[str, PartialFunction]]:
    labels = ("CONST,1", "AND,1", "EQ,1", "EQ,2", "GT,2", "DISJ,2", "IP,2", "GHD,2,1")
    return [(label, make_function(label)) for label in labels]


def corpus_triples() -> list[tuple[str, PartialFunction, InputDistribution, ProtocolTree]]:
    """(label, f, mu, pi) combinations with matching dimensions, used by the
    end-to-end information-cost and extraction checks."""
    triples = []
    for label, f in corpus_functions():
        mu = make_distribution("uniform", f)
        pi = make_protocol("exchange_all", f=f)
        triples.append((f"{label}/exchange_all", f, mu, pi))
    eq1 = make_function("EQ,1")
    and1 = make_function("AND,1")
    const1 = make_function("CONST,1")
    mu2 = make_distribution("uniform", eq1)
    triples.append(("EQ,1/send_x", eq1, mu2, make_protocol("send_x")))
    triples.append(("EQ,1/noisy_bit", eq1, mu2, make_protocol("noisy_bit", flip=0.25)))
    triples.append(("CONST,1/trivial_const", const1, mu2, make_protocol("trivial_const", z=1)))
    triples.append(("AND,1/and_protocol", and1, mu2, make_protocol("and_protocol")))
    return triples
