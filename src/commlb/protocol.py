"""Explicit communication protocol trees and their exact analytics.

A protocol is a rooted binary tree.  Each internal node is owned by Alice,
Bob, or the public coin, and carries a table of probabilities of emitting bit
1 (indexed by the owner's input; length 1 for public nodes).  Each leaf
carries an output value.  The transcript of a run is the root-to-leaf bit
path; the universe U is the set of leaves, kept input-independent (leaves a
given input cannot reach simply have probability 0).

The distribution of the transcript factors as a product of per-party factors:
Alice's factor collects her nodes and the public nodes along the path, Bob's
factor collects his nodes.  This factorization is what the zero-communication
compression consumes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Literal, Union

from .core import FiniteDistribution, InputDistribution, Number, PartialFunction
from .core import _construct, _read_text
from .errors import (
    ConditioningError,
    DimensionError,
    FormatError,
    ParameterError,
    SolverError,
)

__all__ = [
    "Leaf",
    "Node",
    "ProtocolTree",
    "Factorization",
    "transcript_distribution",
    "marginal_x",
    "marginal_y",
    "factorization",
    "information_cost",
    "information_cost_paths",
    "protocol_error",
]

_IC_PATH_TOL = 1e-9
# Deepest COMMPROT tree accepted: the parse and the tree walks recurse once per
# level and must stay within Python's default recursion limit of 1000 frames.
_MAX_DEPTH = 500


@dataclass(frozen=True)
class Leaf:
    z: int


@dataclass(frozen=True)
class Node:
    owner: Literal["A", "B", "P"]
    p1: tuple[Number, ...]  # probability of emitting bit 1, per owner input
    zero: Union["Node", Leaf]
    one: Union["Node", Leaf]

    def __post_init__(self) -> None:
        if self.owner not in ("A", "B", "P"):
            raise ParameterError(f"unknown owner {self.owner!r}")
        if any(not 0 <= p <= 1 for p in self.p1):
            raise ParameterError("send probabilities must lie in [0, 1]")
        if self.owner == "P" and len(self.p1) != 1:
            raise ParameterError("public node takes a single probability")

    def _preorder(self) -> tuple:
        """The tree in preorder, (owner, p1) per node and each Leaf as is,
        which fixes a full binary tree; walked with an explicit stack, so
        equality and hashing (and a ProtocolTree's) do not recurse."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append((node.owner, node.p1) if isinstance(node, Node) else node)
            stack += (node.one, node.zero) if isinstance(node, Node) else ()
        return tuple(out)

    def __eq__(self, other) -> bool:
        return self._preorder() == other._preorder() if isinstance(other, Node) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._preorder())


@dataclass(frozen=True)
class ProtocolTree:
    """An immutable protocol tree with fixed input and output alphabets."""

    root: Union[Node, Leaf]
    x_size: int
    y_size: int
    z_size: int

    def __post_init__(self) -> None:
        if self.x_size <= 0 or self.y_size <= 0 or self.z_size <= 0:
            raise ParameterError("x_size, y_size, z_size must be positive")
        leaves: list[tuple[str, Leaf]] = []
        self._validate(self.root, "", leaves)
        object.__setattr__(self, "_leaves", tuple(leaves))
        object.__setattr__(self, "_factor_memo", {})

    def _validate(self, node, path: str, acc: list) -> None:
        if isinstance(node, Leaf):
            if not (0 <= node.z < self.z_size):
                raise ParameterError(f"leaf output {node.z} outside [0, {self.z_size})")
            acc.append((path, node))
            return
        expected = {"A": self.x_size, "B": self.y_size, "P": 1}[node.owner]
        if len(node.p1) != expected:
            raise DimensionError(
                f"owner {node.owner} node needs {expected} probabilities, "
                f"got {len(node.p1)}"
            )
        self._validate(node.zero, path + "0", acc)
        self._validate(node.one, path + "1", acc)

    @property
    def leaves(self) -> tuple[tuple[str, Leaf], ...]:
        """(transcript bit string, leaf) pairs in depth-first order; this
        ordering defines the universe U."""
        return self._leaves  # type: ignore[attr-defined]

    @property
    def universe_size(self) -> int:
        return len(self.leaves)

    @property
    def depth(self) -> int:
        return max(len(path) for path, _ in self.leaves)

    def leaf_outputs(self) -> tuple[int, ...]:
        return tuple(leaf.z for _, leaf in self.leaves)

    # -- per-party path factors --------------------------------------------

    def factors(self, party: Literal["A", "B"], idx: int) -> tuple[Number, ...]:
        """Per-leaf product of the branch probabilities that ``party`` owns,
        on its input ``idx``; public nodes count as Alice's.  Memoized per
        (party, idx)."""
        memo = self._factor_memo  # type: ignore[attr-defined]
        if (party, idx) in memo:
            return memo[(party, idx)]
        name, size = ("x", self.x_size) if party == "A" else ("y", self.y_size)
        if not 0 <= idx < size:
            raise ParameterError(f"{name}={idx} outside [0, {size})")
        owners = ("A", "P") if party == "A" else ("B",)
        out: list[Number] = []

        def walk(node, acc) -> None:
            if isinstance(node, Leaf):
                out.append(acc)
                return
            if node.owner in owners:
                p = node.p1[0] if node.owner == "P" else node.p1[idx]
                walk(node.zero, acc * (1 - p))
                walk(node.one, acc * p)
            else:
                walk(node.zero, acc)
                walk(node.one, acc)

        walk(self.root, 1)
        memo[(party, idx)] = tuple(out)
        return memo[(party, idx)]

    # -- COMMPROT text format ----------------------------------------------

    MAGIC = "COMMPROT 1"

    def to_text(self) -> str:
        def render(node) -> str:
            if isinstance(node, Leaf):
                return f"(leaf z={node.z})"
            probs = " ".join(repr(float(p)) for p in node.p1)
            return (
                f"(node owner={node.owner} p1=({probs}) "
                f"zero={render(node.zero)} one={render(node.one)})"
            )

        header = f"{self.MAGIC}\n{self.x_size} {self.y_size} {self.z_size}\n"
        return header + render(self.root) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ProtocolTree":
        (x_size, y_size, z_size), body = _read_text(text, cls.MAGIC, 3)
        tokens = re.findall(r"\(|\)|[^\s()]+", " ".join(body))
        return _construct(cls, _parse_tree(tokens), x_size, y_size, z_size)


def _parse_tree(tokens: list[str]) -> Union[Node, Leaf]:
    """Parse one tree from `tokens`, which it must use up, by recursive descent:

        tree := ( leaf z=<int> )
              | ( node owner=<owner> p1= [(] <float>... ) zero= tree one= tree )

    A node's ')' is checked before its Node is built, so a text cut short is
    a FormatError whatever the node holds, and a node deeper than _MAX_DEPTH
    is rejected before the parse descends into it."""
    pos = 0

    def take(expected: str | None = None) -> str:
        """The next token, which must exist and, if given, be `expected`."""
        nonlocal pos
        if pos == len(tokens):
            raise FormatError("unterminated protocol tree")
        token = tokens[pos]
        if expected is not None and token != expected:
            raise FormatError(f"expected {expected!r}, found {token!r}")
        pos += 1
        return token

    def field(key: str) -> str:
        token = take()
        if not token.startswith(key):
            raise FormatError(f"expected {key}..., found {token!r}")
        return token[len(key):]

    def number(token: str, parse=float):
        try:
            return parse(token)
        except ValueError as exc:
            raise FormatError(f"bad number {token!r}") from exc

    def tree(depth: int) -> Union[Node, Leaf]:
        take("(")
        kind = take()
        if kind == "leaf":
            z = number(field("z="), int)
            take(")")
            return Leaf(z)
        if kind != "node":
            raise FormatError(f"unknown element {kind!r}")
        if depth >= _MAX_DEPTH:
            raise FormatError(f"protocol tree deeper than {_MAX_DEPTH} levels")
        owner = field("owner=")
        take("p1=")
        if tokens[pos:pos + 1] == ["("]:  # the grammar's [(]: to_text writes it
            take()
        p1 = tuple(map(number, iter(take, ")")))
        take("zero=")
        zero = tree(depth + 1)
        take("one=")
        one = tree(depth + 1)
        take(")")
        return Node(owner, p1, zero, one)

    root = tree(0)
    if pos != len(tokens):
        raise FormatError("trailing tokens after protocol tree")
    return root


# ---------------------------------------------------------------------------
# Transcript distributions
# ---------------------------------------------------------------------------


def transcript_distribution(pi: ProtocolTree, x: int, y: int) -> FiniteDistribution:
    """Exact leaf distribution of the protocol on fixed inputs (x, y)."""
    pa, pb = pi.factors("A", x), pi.factors("B", y)
    return FiniteDistribution(tuple(a * b for a, b in zip(pa, pb)))


def _estimate(pi: ProtocolTree, mu: InputDistribution, party: str, idx: int) -> tuple[Number, ...]:
    """The other party's per-leaf factors averaged under mu given that
    ``party``'s input is ``idx``, pinned to 0 on the leaves where ``party``'s
    own factor is 0."""
    own = pi.factors(party, idx)
    if party == "A":
        name, other, total = "x", "B", mu.x_marginal(idx)
        cond = [mu.prob(idx, y) for y in range(mu.y_size)]
    else:
        name, other, total = "y", "A", mu.y_marginal(idx)
        cond = [mu.prob(x, idx) for x in range(mu.x_size)]
    if total == 0:
        raise ConditioningError(f"{name}={idx} has zero marginal probability")
    acc = [0 * own[0]] * pi.universe_size
    for j, p in enumerate(cond):
        w = p / total
        if w == 0:
            continue
        acc = [q + w * v for q, v in zip(acc, pi.factors(other, j))]
    # The average equals marginal/own wherever own > 0; pin the 0/0 leaves to
    # 0 so it literally is that quotient.
    return tuple(0 * q if p == 0 else q for p, q in zip(own, acc))


def marginal_x(pi: ProtocolTree, mu: InputDistribution, x: int) -> FiniteDistribution:
    """Transcript distribution conditioned on X = x (averaged over y ~ mu(.|x))."""
    return FiniteDistribution(
        tuple(p * q for p, q in zip(pi.factors("A", x), _estimate(pi, mu, "A", x)))
    )


def marginal_y(pi: ProtocolTree, mu: InputDistribution, y: int) -> FiniteDistribution:
    """Transcript distribution conditioned on Y = y (averaged over x ~ mu(.|y))."""
    return FiniteDistribution(
        tuple(p * q for p, q in zip(pi.factors("B", y), _estimate(pi, mu, "B", y)))
    )


@dataclass(frozen=True)
class Factorization:
    """Per-leaf factors with p_a*p_b = joint, p_a*q_a = x-marginal,
    p_b*q_b = y-marginal, all exactly."""

    p_a: tuple[Number, ...]
    q_a: tuple[Number, ...]
    p_b: tuple[Number, ...]
    q_b: tuple[Number, ...]


def factorization(pi: ProtocolTree, mu: InputDistribution, x: int, y: int) -> Factorization:
    """Split the transcript distribution into the two parties' factors.

    Public-coin factors fold into Alice's side.  q_a(u) is Alice's estimate of
    Bob's factor: the mu(.|x)-average of Bob's per-leaf products, so it lies
    in [0,1] and p_a*q_a reproduces the x-marginal identically (and
    symmetrically for q_b).
    """
    return Factorization(
        pi.factors("A", x), _estimate(pi, mu, "A", x), pi.factors("B", y), _estimate(pi, mu, "B", y)
    )


# ---------------------------------------------------------------------------
# Information cost and protocol error
# ---------------------------------------------------------------------------


def _xlog2x_ratio(p: float, q: float) -> float:
    if p == 0:
        return 0.0
    return p * math.log2(p / q)


def _conditional_mi(joint: dict, cond_axis: int, var_axis: int) -> float:
    """I(V ; U | C) from a joint dict {(x, y, u): prob}.

    cond_axis / var_axis select which of the first two coordinates plays C/V;
    the transcript u is always the third coordinate.
    """
    p_c: dict = {}
    p_cv: dict = {}
    p_cu: dict = {}
    for key, p in joint.items():
        c, v, u = key[cond_axis], key[var_axis], key[2]
        p_c[c] = p_c.get(c, 0.0) + p
        p_cv[(c, v)] = p_cv.get((c, v), 0.0) + p
        p_cu[(c, u)] = p_cu.get((c, u), 0.0) + p
    total = 0.0
    for key, p in joint.items():
        if p == 0:
            continue
        c, v, u = key[cond_axis], key[var_axis], key[2]
        total += p * math.log2(p * p_c[c] / (p_cv[(c, v)] * p_cu[(c, u)]))
    return total


def information_cost_paths(
    pi: ProtocolTree, mu: InputDistribution
) -> tuple[float, float]:
    """Both computation paths of the information cost, uncombined.

    The first term sums the conditional mutual informations from the exact
    joint law; the second is the mu-expectation of the divergences of the
    joint transcript law from each party's marginal.  They agree up to float
    rounding and callers may report the difference.
    """
    if mu.x_size != pi.x_size or mu.y_size != pi.y_size:
        raise DimensionError("distribution grid does not match protocol alphabet")
    joint: dict[tuple[int, int, int], float] = {}
    joints: dict[tuple[int, int], tuple] = {}
    for x in range(pi.x_size):
        for y in range(pi.y_size):
            w = float(mu.prob(x, y))
            if w == 0:
                continue
            dist = transcript_distribution(pi, x, y).weights
            joints[(x, y)] = dist
            for u, p in enumerate(dist):
                if p:
                    joint[(x, y, u)] = w * float(p)

    path_a = _conditional_mi(joint, 1, 0) + _conditional_mi(joint, 0, 1)

    path_b = 0.0
    margs_x = {}
    margs_y = {}
    for (x, y), dist in joints.items():
        w = float(mu.prob(x, y))
        if x not in margs_x:
            margs_x[x] = marginal_x(pi, mu, x).weights
        if y not in margs_y:
            margs_y[y] = marginal_y(pi, mu, y).weights
        for u, p in enumerate(dist):
            path_b += w * (
                _xlog2x_ratio(float(p), float(margs_x[x][u]))
                + _xlog2x_ratio(float(p), float(margs_y[y][u]))
            )

    return path_a, path_b


def information_cost(pi: ProtocolTree, mu: InputDistribution) -> float:
    """IC over mu: I(X; transcript | Y) + I(Y; transcript | X), in bits.

    Computed two independent ways and cross-checked to 1e-9; see
    information_cost_paths.  Raises SolverError when the two disagree.
    """
    path_a, path_b = information_cost_paths(pi, mu)
    if abs(path_a - path_b) > _IC_PATH_TOL:
        raise SolverError(
            f"information-cost paths disagree: {path_a} vs {path_b}"
        )
    return max(path_a, 0.0)


def protocol_error(pi: ProtocolTree, f: PartialFunction, mu: InputDistribution) -> float:
    """Probability over mu and protocol randomness of a wrong answer on a
    promise input; inputs outside the promise never count as errors."""
    if (f.x_size, f.y_size) != (pi.x_size, pi.y_size):
        raise DimensionError("function grid does not match protocol alphabet")
    mu.check_compatible(f)
    if f.z_size > pi.z_size:
        raise DimensionError("function outputs exceed protocol output alphabet")
    outputs = pi.leaf_outputs()
    total = 0.0
    for x, y in f.domain():
        w = float(mu.prob(x, y))
        if w == 0:
            continue
        fxy = f.value(x, y)
        dist = transcript_distribution(pi, x, y).weights
        total += w * sum(float(p) for u, p in enumerate(dist) if outputs[u] != fxy)
    return min(max(total, 0.0), 1.0)


def output_distribution(pi: ProtocolTree, x: int, y: int) -> tuple[float, ...]:
    """Distribution of the protocol's output value on fixed inputs."""
    outputs = pi.leaf_outputs()
    dist = transcript_distribution(pi, x, y).weights
    acc = [0.0] * pi.z_size
    for u, p in enumerate(dist):
        acc[outputs[u]] += float(p)
    return tuple(acc)
