"""Protocol trees: transcripts, factorization, information cost, error."""

import math
import random
from fractions import Fraction

import pytest

from commlb.core import InputDistribution, PartialFunction
from commlb.errors import ConditioningError, DimensionError, FormatError, ParameterError
from commlb.protocol import (
    Leaf,
    Node,
    ProtocolTree,
    factorization,
    information_cost,
    information_cost_paths,
    marginal_x,
    marginal_y,
    protocol_error,
    transcript_distribution,
)

UNIFORM_2x2 = InputDistribution(
    ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)))
)


def send_x_tree() -> ProtocolTree:
    return ProtocolTree(Node("A", (Fraction(0), Fraction(1)), Leaf(0), Leaf(1)), 2, 2, 2)


def noisy_tree(flip=0.25) -> ProtocolTree:
    return ProtocolTree(Node("A", (flip, 1 - flip), Leaf(0), Leaf(1)), 2, 2, 2)


def test_single_leaf_point_mass():
    pi = ProtocolTree(Leaf(1), 2, 2, 2)
    assert pi.universe_size == 1 and pi.depth == 0
    assert transcript_distribution(pi, 0, 1).weights == (1,)


def test_send_x_point_mass():
    pi = send_x_tree()
    assert transcript_distribution(pi, 1, 0).weights == (0, 1)
    assert transcript_distribution(pi, 0, 0).weights == (1, 0)


def test_noisy_bit_transcript():
    pi = noisy_tree(0.25)
    assert transcript_distribution(pi, 0, 0).weights == (0.75, 0.25)
    assert transcript_distribution(pi, 1, 1).weights == (0.25, 0.75)


def test_leaf_universe_order_and_outputs():
    pi = ProtocolTree(
        Node("A", (0.5, 0.5), Node("B", (0.5, 0.5), Leaf(0), Leaf(1)), Leaf(1)),
        2, 2, 2,
    )
    assert [path for path, _ in pi.leaves] == ["00", "01", "1"]
    assert pi.leaf_outputs() == (0, 1, 1)
    assert pi.depth == 2


def test_leaf_output_range_checked():
    with pytest.raises(ParameterError):
        ProtocolTree(Leaf(2), 2, 2, 2)


def test_node_table_width_checked():
    with pytest.raises(DimensionError):
        ProtocolTree(Node("A", (0.5,), Leaf(0), Leaf(1)), 2, 2, 2)


def test_marginal_x_averages_bob():
    # "send Y" tree: the x-marginal under independent uniform mu is (1/2, 1/2).
    pi = ProtocolTree(Node("B", (Fraction(0), Fraction(1)), Leaf(0), Leaf(1)), 2, 2, 2)
    assert marginal_x(pi, UNIFORM_2x2, 0).weights == (Fraction(1, 2), Fraction(1, 2))


def test_marginal_matches_direct_sum():
    rng = random.Random(3)
    pi = noisy_tree(0.3)
    raw = [[rng.random() + 0.1 for _ in range(2)] for _ in range(2)]
    total = sum(map(sum, raw))
    mu = InputDistribution(tuple(tuple(v / total for v in row) for row in raw))
    for x in range(2):
        got = marginal_x(pi, mu, x).weights
        expect = [0.0, 0.0]
        for y in range(2):
            w = mu.prob(x, y) / mu.x_marginal(x)
            for u, p in enumerate(transcript_distribution(pi, x, y).weights):
                expect[u] += w * p
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, expect))


def test_marginal_zero_conditioning():
    mu = InputDistribution(((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0))))
    with pytest.raises(ConditioningError):
        marginal_x(noisy_tree(), mu, 1)


def test_inputs_outside_the_alphabets_rejected():
    # noisy_tree has no Bob node, so only the range check rejects y.
    pi = noisy_tree()
    assert pi.factors("A", 1) is pi.factors("A", 1)
    with pytest.raises(ParameterError):
        transcript_distribution(pi, 2, 0)
    with pytest.raises(ParameterError):
        transcript_distribution(pi, 0, -1)
    with pytest.raises(ParameterError):
        marginal_y(pi, UNIFORM_2x2, 2)


def test_factorization_send_x_example():
    fac = factorization(send_x_tree(), UNIFORM_2x2, 0, 0)
    assert fac.p_a == (1, 0)
    assert fac.p_b == (1, 1)
    assert fac.q_a == (1, 0)
    assert fac.q_b == (Fraction(1, 2), Fraction(1, 2))


def test_factorization_identities_exact():
    rng = random.Random(7)
    for _ in range(30):
        pi = ProtocolTree(
            Node(
                "A",
                (Fraction(rng.randint(0, 8), 8), Fraction(rng.randint(0, 8), 8)),
                Node("B", (Fraction(rng.randint(0, 8), 8), Fraction(rng.randint(0, 8), 8)),
                     Leaf(0), Leaf(1)),
                Leaf(1),
            ),
            2, 2, 2,
        )
        raw = [[Fraction(rng.randint(1, 9)) for _ in range(2)] for _ in range(2)]
        total = sum(map(sum, raw))
        mu = InputDistribution(tuple(tuple(v / total for v in row) for row in raw))
        x, y = rng.randrange(2), rng.randrange(2)
        fac = factorization(pi, mu, x, y)
        joint = transcript_distribution(pi, x, y).weights
        mx = marginal_x(pi, mu, x).weights
        my = marginal_y(pi, mu, y).weights
        for u in range(pi.universe_size):
            assert fac.p_a[u] * fac.p_b[u] == joint[u]
            assert fac.p_a[u] * fac.q_a[u] == mx[u]
            assert fac.p_b[u] * fac.q_b[u] == my[u]
            assert 0 <= fac.q_a[u] <= 1 and 0 <= fac.q_b[u] <= 1


def test_public_nodes_fold_into_alice():
    pi = ProtocolTree(Node("P", (Fraction(1, 3),), Leaf(0), Leaf(1)), 2, 2, 2)
    fac = factorization(pi, UNIFORM_2x2, 0, 0)
    assert fac.p_a == (Fraction(2, 3), Fraction(1, 3))
    assert fac.p_b == (1, 1)


def test_information_cost_values():
    assert information_cost(ProtocolTree(Leaf(0), 2, 2, 1), UNIFORM_2x2) == 0.0
    assert abs(information_cost(send_x_tree(), UNIFORM_2x2) - 1.0) < 1e-12
    h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert abs(information_cost(noisy_tree(0.25), UNIFORM_2x2) - (1 - h)) < 1e-9


def test_protocol_error_examples():
    eq1 = PartialFunction.from_rows([[1, 0], [0, 1]], z_size=2)
    const1_tree = ProtocolTree(Leaf(1), 2, 2, 2)
    assert protocol_error(const1_tree, eq1, UNIFORM_2x2) == 0.5
    # Promise restricted to the 1-cells: the constant-1 tree never errs.
    promise = PartialFunction.from_rows([[1, None], [None, 1]], z_size=2)
    assert protocol_error(const1_tree, promise, UNIFORM_2x2) == 0.0
    const_f = PartialFunction.from_rows([[1, 1], [1, 1]], z_size=2)
    assert protocol_error(const1_tree, const_f, UNIFORM_2x2) == 0.0


def test_protocol_error_refuses_a_mismatched_function():
    const1_tree = ProtocolTree(Leaf(1), 2, 2, 2)
    wide = PartialFunction.from_rows([[1, 0, 1], [0, 1, 0]], z_size=2)
    wide_mu = InputDistribution(((Fraction(1, 6),) * 3,) * 2)
    with pytest.raises(DimensionError, match="function grid does not match"):
        protocol_error(const1_tree, wide, wide_mu)
    # Same grid, but f outputs 2, which the tree's alphabet {0, 1} lacks.
    three_labels = PartialFunction.from_rows([[2, 0], [0, 1]], z_size=3)
    with pytest.raises(DimensionError, match="function outputs exceed"):
        protocol_error(const1_tree, three_labels, UNIFORM_2x2)


def test_information_cost_paths_refuses_a_mismatched_distribution():
    wide_mu = InputDistribution(((Fraction(1, 6),) * 3,) * 2)
    for paths in (information_cost_paths, information_cost):
        with pytest.raises(DimensionError, match="distribution grid does not match"):
            paths(send_x_tree(), wide_mu)


def test_commprot_round_trip():
    pi = ProtocolTree(
        Node("A", (0.25, 0.75), Leaf(0), Node("B", (0.5, 0.125), Leaf(1), Leaf(0))),
        2, 2, 2,
    )
    again = ProtocolTree.from_text(pi.to_text())
    assert again.leaf_outputs() == pi.leaf_outputs()
    for x in range(2):
        for y in range(2):
            assert transcript_distribution(again, x, y).weights == pytest.approx(
                tuple(map(float, transcript_distribution(pi, x, y).weights))
            )


def _chain(depth: int, last: int = 1) -> ProtocolTree:
    """A protocol whose one-branches nest `depth` nodes deep, down to a
    leaf with output `last`."""
    root = Leaf(last)
    for level in range(depth):
        root = Node("AB"[level % 2], (0.5, 0.25), Leaf(0), root)
    return ProtocolTree(root, 2, 2, 2)


def test_commprot_deep_tree_round_trip():
    pi = _chain(200)
    text = pi.to_text()
    again = ProtocolTree.from_text(text)
    assert again == pi and again.depth == 200
    assert again.to_text() == text


_NODE = "(node owner=A p1=(0.5 0.5) zero=(leaf z=0) one=(leaf z=1))"


_GARBAGE = [
    "(node owner=A)",
    "",  # no tree
    "(leaf z=0",  # cut short
    "(node owner=A p1=0.5 0.5) zero=(leaf z=0) one=(leaf z=1))",  # no '(' after p1=
    "(node owner=A p1=(0.5 0.5) zero=(leaf z=0 one=(leaf z=1))",  # no ')' after a leaf
    "(node owner=A p1=(0.5 0.5) zero=(leaf z=0) one=(leaf z=1)",  # no ')' after a node
    "(node owner=A p1=(0.5 0.5) zero=" + _NODE + " one=(leaf z=1)",  # nor after the root
    "(leaf z=one)",  # bad z=
    "(leaf y=0)",
    "(node owner=A p1=(0.5 half) zero=(leaf z=0) one=(leaf z=1))",  # bad probability
    "(node owner=A p1=(0.5 0.5) zero=leaf one=(leaf z=1))",  # zero= without a subtree
    "(node owner=A p1=(0.5 0.5) (leaf z=0) one=(leaf z=1))",  # no zero=
    "(node p1=(0.5 0.5) zero=(leaf z=0) one=(leaf z=1))",  # no owner=
    "(tree z=0)",  # unknown element
    "(leaf z=0) (leaf z=1)",  # trailing tokens
    "(leaf z=0))",
    "(node owner=A p1=(0.5) zero=(leaf z=0) one=(leaf z=1))",  # too few probabilities
    "(leaf z=2)",  # output outside the alphabet
]


def test_commprot_rejects_garbage():
    for body in _GARBAGE:
        with pytest.raises(FormatError):
            ProtocolTree.from_text(f"COMMPROT 1\n2 2 2\n{body}\n")
    with pytest.raises(FormatError):
        ProtocolTree.from_text("NOPE\n")


@pytest.mark.parametrize("text", ["COMMPROT 1\n2 2\n(leaf z=0)\n",
                                  "COMMPROT 1\n2 two 2\n(leaf z=0)\n", "COMMPROT 1\n"])
def test_commprot_rejects_a_bad_header(text):
    with pytest.raises(FormatError):
        ProtocolTree.from_text(text)


@pytest.mark.parametrize("body", [
    "(node owner=Q p1=(0.5 0.5) zero=(leaf z=0) one=(leaf z=1))",  # bad owner
    "(node owner=A p1=(0.5 1.5) zero=(leaf z=0) one=(leaf z=1))",  # probability past 1
    "(node owner=P p1=(0.5 0.5) zero=(leaf z=0) one=(leaf z=1))",  # public node, 2 entries
])
def test_commprot_rejects_a_bad_node(body):
    with pytest.raises(ParameterError):
        ProtocolTree.from_text(f"COMMPROT 1\n2 2 2\n{body}\n")


def test_commprot_cut_short_is_a_format_error_before_a_bad_owner():
    # The node's missing ')' is found before the node itself is built.
    text = "COMMPROT 1\n2 2 2\n(node owner=Q p1=(0.5 0.5) zero=(leaf z=0) one=(leaf z=1)\n"
    with pytest.raises(FormatError):
        ProtocolTree.from_text(text)


def test_commprot_depth_limit():
    text = _chain(500).to_text()
    assert ProtocolTree.from_text(text) == _chain(500)
    assert ProtocolTree.from_text(text).to_text() == text
    for depth in (501, 5000):
        body = "(node owner=A p1=(0.5 0.5) zero=(leaf z=0) one=" * depth + "(leaf z=1)" + ")" * depth
        with pytest.raises(FormatError, match="protocol tree deeper than 500 levels"):
            ProtocolTree.from_text(f"COMMPROT 1\n2 2 2\n{body}\n")


def test_deep_trees_compare_without_recursion():
    # == walks both trees with an explicit stack: 500-level chains compare
    # equal, and unequal when only their deepest leaf or their sizes differ.
    assert _chain(500) == _chain(500)
    assert _chain(500) != _chain(500, last=0)
    assert _chain(500) != ProtocolTree(_chain(500).root, 2, 2, 3)
    assert _chain(3) != _chain(4)


def test_deep_nodes_compare_and_hash_without_recursion():
    # Node's == and hash walk the tree with one explicit stack, and a
    # ProtocolTree's use them: at 500 levels neither raises RecursionError.
    a, b, other = _chain(500), _chain(500), _chain(500, last=0)
    assert a.root == b.root and hash(a.root) == hash(b.root)
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a.root != other.root and a != other
    assert a.root != Leaf(1) and Leaf(1) != a.root
