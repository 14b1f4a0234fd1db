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
from fractions import Fraction
from typing import Literal, Sequence, Union

from .core import FiniteDistribution, InputDistribution, Number, PartialFunction
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
    "TranscriptDistribution",
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
# Deepest COMMPROT tree accepted: the tree walks recurse once per level and
# must stay within Python's default recursion limit of 1000 frames.
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

    def alice_factors(self, x: int) -> tuple[Number, ...]:
        """Product of Alice-owned and public branch probabilities per leaf."""
        return self._factors(lambda n: n.owner in ("A", "P"), x)

    def bob_factors(self, y: int) -> tuple[Number, ...]:
        return self._factors(lambda n: n.owner == "B", y)

    def _factors(self, owned, idx: int) -> tuple[Number, ...]:
        out: list[Number] = []

        def walk(node, acc) -> None:
            if isinstance(node, Leaf):
                out.append(acc)
                return
            if owned(node):
                p = node.p1[0] if node.owner == "P" else node.p1[idx]
                walk(node.zero, acc * (1 - p))
                walk(node.one, acc * p)
            else:
                walk(node.zero, acc)
                walk(node.one, acc)

        walk(self.root, 1)
        return tuple(out)

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
        lines = text.splitlines()
        stripped = [ln.strip() for ln in lines if ln.strip()]
        if not stripped or stripped[0] != cls.MAGIC:
            raise FormatError(f"missing magic line {cls.MAGIC!r}")
        try:
            x_size, y_size, z_size = (int(t) for t in stripped[1].split())
        except (IndexError, ValueError) as exc:
            raise FormatError("bad size line in COMMPROT file") from exc
        body = " ".join(stripped[2:])
        tokens = re.findall(r"\(|\)|[^\s()]+", body)
        node = _parse_sexpr(tokens)
        try:
            return cls(node, x_size, y_size, z_size)
        except (ParameterError, DimensionError) as exc:
            raise FormatError(str(exc)) from exc


def _parse_sexpr(tokens: list[str]) -> Union[Node, Leaf]:
    """Parse one tree from `tokens`, which it must use up.

    Walks the tokens with an index and keeps the nodes still waiting for a
    subtree on an explicit stack, so the parse itself never recurses.  The
    tree walks (validation, factors, rendering) do recurse, one frame per
    level, so a tree deeper than _MAX_DEPTH is rejected here.
    """
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def subtree_marker(name: str) -> None:
        # 'zero=' / 'one=' introduce a subtree, which must open with '('.
        nonlocal pos
        token = peek()
        if token is None or not token.startswith(name):
            raise FormatError(f"node needs {name}<subtree>")
        if token != name:
            raise FormatError("expected '('")
        pos += 1

    stack: list[list] = []  # [owner, probs, zero subtree or None] per open node
    while True:
        if peek() != "(":
            raise FormatError("expected '('")
        pos += 1
        kind = peek()
        if kind is None:
            raise FormatError("unterminated expression")
        pos += 1
        if kind == "leaf":
            token = peek()
            if token is None or not token.startswith("z="):
                raise FormatError("leaf needs z=<int>")
            try:
                z = int(token[2:])
            except ValueError as exc:
                raise FormatError("bad leaf output") from exc
            pos += 1
            if peek() != ")":
                raise FormatError("expected ')' after leaf")
            pos += 1
            done: Union[Node, Leaf] = Leaf(z)
        elif kind == "node":
            token = peek()
            if token is None or not token.startswith("owner="):
                raise FormatError("node needs owner=A|B|P")
            owner = token[len("owner="):]
            pos += 1
            token = peek()
            if token != "p1=":
                if token is not None and token.startswith("p1="):
                    raise FormatError("malformed p1 list")
                raise FormatError("node needs p1=(...)")
            pos += 1
            if peek() == "(":
                pos += 1
            probs: list[float] = []
            while peek() not in (")", None):
                try:
                    probs.append(float(tokens[pos]))
                except ValueError as exc:
                    raise FormatError(f"bad probability {tokens[pos]!r}") from exc
                pos += 1
            if peek() is None:
                raise FormatError("unterminated p1 list")
            pos += 1  # closing ')' of p1
            subtree_marker("zero=")
            if len(stack) >= _MAX_DEPTH:
                raise FormatError(f"protocol tree deeper than {_MAX_DEPTH} levels")
            stack.append([owner, tuple(probs), None])
            continue
        else:
            raise FormatError(f"unknown element {kind!r}")
        # `done` is a complete subtree: hang it under the open nodes, closing
        # every node whose 'one' branch it completes.
        while stack and stack[-1][2] is not None:
            owner, probs, zero = stack.pop()
            if peek() != ")":
                raise FormatError("expected ')' after node")
            pos += 1
            done = Node(owner, probs, zero, done)
        if not stack:
            if pos != len(tokens):
                raise FormatError("trailing tokens after protocol tree")
            return done
        stack[-1][2] = done
        subtree_marker("one=")


# ---------------------------------------------------------------------------
# Transcript distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptDistribution:
    dist: FiniteDistribution
    provenance: Literal["joint", "marginal_x", "marginal_y"]

    @property
    def weights(self) -> tuple[Number, ...]:
        return self.dist.weights


def _check_input(pi: ProtocolTree, x: int | None = None, y: int | None = None) -> None:
    if x is not None and not (0 <= x < pi.x_size):
        raise ParameterError(f"x={x} outside [0, {pi.x_size})")
    if y is not None and not (0 <= y < pi.y_size):
        raise ParameterError(f"y={y} outside [0, {pi.y_size})")


def transcript_distribution(pi: ProtocolTree, x: int, y: int) -> TranscriptDistribution:
    """Exact leaf distribution of the protocol on fixed inputs (x, y)."""
    _check_input(pi, x, y)
    pa = pi.alice_factors(x)
    pb = pi.bob_factors(y)
    return TranscriptDistribution(
        FiniteDistribution(tuple(a * b for a, b in zip(pa, pb))), "joint"
    )


def _mu_conditional_rows(mu: InputDistribution, x: int) -> list[Number]:
    total = mu.x_marginal(x)
    if total == 0:
        raise ConditioningError(f"x={x} has zero marginal probability")
    return [mu.prob(x, y) / total for y in range(mu.y_size)]


def _mu_conditional_cols(mu: InputDistribution, y: int) -> list[Number]:
    total = mu.y_marginal(y)
    if total == 0:
        raise ConditioningError(f"y={y} has zero marginal probability")
    return [mu.prob(x, y) / total for x in range(mu.x_size)]


def marginal_x(pi: ProtocolTree, mu: InputDistribution, x: int) -> TranscriptDistribution:
    """Transcript distribution conditioned on X = x (averaged over y ~ mu(.|x))."""
    _check_input(pi, x=x)
    cond = _mu_conditional_rows(mu, x)
    pa = pi.alice_factors(x)
    acc = [0 * pa[0]] * pi.universe_size
    for y, w in enumerate(cond):
        if w == 0:
            continue
        pb = pi.bob_factors(y)
        acc = [a + w * pav * pbv for a, pav, pbv in zip(acc, pa, pb)]
    return TranscriptDistribution(FiniteDistribution(tuple(acc)), "marginal_x")


def marginal_y(pi: ProtocolTree, mu: InputDistribution, y: int) -> TranscriptDistribution:
    _check_input(pi, y=y)
    cond = _mu_conditional_cols(mu, y)
    pb = pi.bob_factors(y)
    acc = [0 * pb[0]] * pi.universe_size
    for x, w in enumerate(cond):
        if w == 0:
            continue
        pa = pi.alice_factors(x)
        acc = [a + w * pav * pbv for a, pav, pbv in zip(acc, pa, pb)]
    return TranscriptDistribution(FiniteDistribution(tuple(acc)), "marginal_y")


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
    _check_input(pi, x, y)
    rows = _mu_conditional_rows(mu, x)
    cols = _mu_conditional_cols(mu, y)
    p_a = pi.alice_factors(x)
    p_b = pi.bob_factors(y)
    q_a = [0 * p_a[0]] * pi.universe_size
    for yy, w in enumerate(rows):
        if w == 0:
            continue
        pb = pi.bob_factors(yy)
        q_a = [q + w * v for q, v in zip(q_a, pb)]
    q_b = [0 * p_b[0]] * pi.universe_size
    for xx, w in enumerate(cols):
        if w == 0:
            continue
        pa = pi.alice_factors(xx)
        q_b = [q + w * v for q, v in zip(q_b, pa)]
    # The conditional averages equal marginal/p wherever p > 0; pin the 0/0
    # leaves to 0 so q literally is that quotient.
    q_a = [0 * q if p == 0 else q for p, q in zip(p_a, q_a)]
    q_b = [0 * q if p == 0 else q for p, q in zip(p_b, q_b)]
    return Factorization(p_a, tuple(q_a), p_b, tuple(q_b))


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
