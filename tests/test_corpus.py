"""Built-in function, distribution, and protocol families."""

from fractions import Fraction

import pytest

from commlb.corpus import (
    CorpusSpec,
    corpus_functions,
    corpus_triples,
    make_distribution,
    make_function,
    make_protocol,
    parse_spec,
)
from commlb.errors import ParameterError
from commlb.protocol import protocol_error, transcript_distribution


def test_parse_spec_forms():
    assert parse_spec("EQ,2") == CorpusSpec("EQ", 2)
    assert parse_spec("corpus:ghd,2,1") == CorpusSpec("GHD", 2, 1)
    assert parse_spec("GHD,3,1.5") == CorpusSpec("GHD", 3, 1.5)
    assert parse_spec("AND") == CorpusSpec("AND", 1)
    with pytest.raises(ParameterError):
        parse_spec("corpus:")


def test_eq_values():
    f = make_function("EQ,2")
    assert f.x_size == f.y_size == 4
    for x in range(4):
        for y in range(4):
            assert f.value(x, y) == (1 if x == y else 0)


def test_gt_disj_ip_rules():
    gt = make_function("GT,2")
    assert gt.value(3, 0) == 1 and gt.value(0, 3) == 0 and gt.value(2, 2) == 0
    disj = make_function("DISJ,2")
    assert disj.value(0b01, 0b10) == 1 and disj.value(0b11, 0b01) == 0
    ip = make_function("IP,2")
    assert ip.value(0b11, 0b11) == 0 and ip.value(0b11, 0b01) == 1


def test_and_and_const():
    and1 = make_function("AND,1")
    assert [and1.value(x, y) for x in range(2) for y in range(2)] == [0, 0, 0, 1]
    const0 = make_function("CONST,0")
    assert set(const0.table[0]) == {0}
    with pytest.raises(ParameterError):
        make_function("CONST,2")


def test_ghd_promise_gap():
    f = make_function("GHD,2,1")
    # distance 2 (>= 2) -> 1, distance 0 (<= 0) -> 0, distance 1 -> undefined
    assert f.value(0b00, 0b11) == 1
    assert f.value(0b01, 0b01) == 0
    assert f.value(0b00, 0b01) is None
    with pytest.raises(ParameterError):
        make_function("GHD,2,0")


def test_ghd_gap_is_a_multiple_of_one_half():
    # GHD,3,0.5 is the smallest n = 3 gap: distance <= 1 gives 0 and >= 2
    # gives 1, a total table.  1.5 leaves n = 2 an empty promise, and a gap
    # off the half-integers is refused, not truncated.
    half = make_function("GHD,3,0.5")
    assert len(half.domain()) == 64
    assert [half.value(0, y) for y in (0b000, 0b001, 0b011, 0b111)] == [0, 0, 1, 1]
    for spec in ("GHD,2,1.5", "GHD,3,0.3", "GHD,3,1.25", "GHD,2,-0.5"):
        with pytest.raises(ParameterError):
            make_function(spec)
    # Integer gaps are unchanged: GHD,3,1 is 0 at distance 0, 1 at 3.
    one = make_function("GHD,3,1")
    assert make_function("GHD,3,1.0") == one
    assert [one.value(0, y) for y in (0b000, 0b001, 0b011, 0b111)] == [0, None, None, 1]


def test_function_family_errors():
    with pytest.raises(ParameterError):
        make_function("XOR,1")
    with pytest.raises(ParameterError):
        make_function("EQ,4")


def test_uniform_distributions():
    f = make_function("GHD,2,1")
    mu = make_distribution("uniform", f)
    assert mu.prob(0, 0) == Fraction(1, 16)
    on_domain = make_distribution("uniform_on_domain", f)
    assert on_domain.prob(0, 1) == 0  # off the promise
    total = sum(on_domain.prob(x, y) for x, y in f.domain())
    assert total == 1
    with pytest.raises(ParameterError):
        make_distribution("gaussian", f)


def test_trivial_and_noisy_protocols():
    pi = make_protocol("trivial_const", z=0)
    assert pi.leaf_outputs() == (0,)
    with pytest.raises(ParameterError):
        make_protocol("noisy_bit", flip=1.5)
    with pytest.raises(ParameterError):
        make_protocol("teleport")


def test_exchange_all_is_exact():
    # Both parties announce everything, so the leaf can output f's value and
    # the protocol never errs on the promise.
    for label, f in corpus_functions():
        pi = make_protocol("exchange_all", f=f)
        assert pi.depth == 2 * (f.x_size.bit_length() - 1)
        assert protocol_error(pi, f, make_distribution("uniform", f)) == 0.0, label


def test_exchange_all_transcript_is_deterministic():
    f = make_function("EQ,2")
    pi = make_protocol("exchange_all", f=f)
    for x, y in ((0, 0), (3, 1)):
        weights = transcript_distribution(pi, x, y).weights
        assert sorted(weights, reverse=True)[0] == 1


def test_exchange_all_requires_square_power_of_two():
    from commlb.core import PartialFunction

    bad = PartialFunction.from_rows([[0, 1, 0], [1, 0, 1]], z_size=2)
    with pytest.raises(ParameterError):
        make_protocol("exchange_all", f=bad)


def test_exchange_all_bounds_n():
    from commlb.core import PartialFunction

    assert make_protocol("exchange_all", n=0).universe_size == 1
    assert make_protocol("exchange_all", n=3).universe_size == 64
    for n in (-1, 4):
        with pytest.raises(ParameterError):
            make_protocol("exchange_all", n=n)
    # n read off a 16x16 function is past the bound too.
    wide = PartialFunction.from_rows([[0] * 16] * 16, z_size=1)
    with pytest.raises(ParameterError):
        make_protocol("exchange_all", f=wide)


def test_corpus_listings():
    functions = corpus_functions()
    assert len(functions) == 8
    assert len({label for label, _ in functions}) == 8
    triples = corpus_triples()
    assert len(triples) == 12
    for label, f, mu, pi in triples:
        assert mu.x_size == f.x_size == pi.x_size
        assert mu.y_size == f.y_size == pi.y_size
        assert pi.z_size == f.z_size
