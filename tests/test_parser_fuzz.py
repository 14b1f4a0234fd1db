"""Seeded fuzzing of the COMMFN, COMMDIST and COMMPROT parsers.

Each corpus text is mutated (tokens deleted, duplicated, swapped or replaced
by huge, non-finite or negative numbers; text truncated).  Every mutant must
either parse to an object that survives a write/read round trip or raise a
``CommlbError``; any other exception is a parser defect.
"""

import random

import pytest

from commlb.core import InputDistribution, PartialFunction
from commlb.corpus import corpus_functions, make_distribution, make_protocol
from commlb.errors import CommlbError
from commlb.protocol import ProtocolTree

_ODD_VALUES = (
    "9" * 40, "-" + "9" * 40, "1e999", "-1e999", "1e-400", "nan", "NaN", "inf",
    "-inf", "+inf", "-1", "-7", "0", "-0.0", "2", "0.5", "*", "", "(", ")",
)


def _corpus_texts() -> list[tuple[str, type]]:
    texts = []
    for _, f in corpus_functions():
        texts.append((f.to_text(), PartialFunction))
        for kind in ("uniform", "uniform_on_domain"):
            texts.append((make_distribution(kind, f).to_text(), InputDistribution))
    protocols = [
        make_protocol("trivial_const"),
        make_protocol("send_x"),
        make_protocol("noisy_bit", flip=0.25),
        make_protocol("exchange_all", n=1),
        make_protocol("exchange_all", f=corpus_functions()[3][1]),
        make_protocol("and_protocol"),
    ]
    texts.extend((pi.to_text(), ProtocolTree) for pi in protocols)
    return texts


CORPUS_TEXTS = _corpus_texts()


def _odd_token(token: str, rng) -> str:
    value = rng.choice(_ODD_VALUES)
    # Keep a 'key=' prefix or the parentheses around a number half the time,
    # so the mutant gets past the tokenizer and reaches the value checks.
    if "=" in token and rng.random() < 0.5:
        return token.split("=", 1)[0] + "=" + value
    if rng.random() < 0.5:
        return token[: len(token) - len(token.lstrip("("))] + value + token[len(token.rstrip(")")):]
    return value


def _mutate(text: str, rng) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        op = rng.choice(("delete", "duplicate", "swap", "replace", "insert", "truncate"))
        if op == "truncate" or not slots:
            flat = "\n".join(" ".join(line) for line in lines)
            cut = rng.randrange(len(flat) + 1)
            lines = [line.split() for line in flat[:cut].splitlines()]
            continue
        i, j = rng.choice(slots)
        if op == "delete":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            k, m = rng.choice(slots)
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif op == "replace":
            lines[i][j] = _odd_token(lines[i][j], rng)
        else:
            lines[i].insert(j, rng.choice(_ODD_VALUES))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _check_mutant(text: str, cls: type) -> bool:
    """True when the mutant parsed (and round-tripped), False when it was
    rejected with a CommlbError."""
    try:
        parsed = cls.from_text(text)
    except CommlbError:
        return False
    assert min(parsed.x_size, parsed.y_size, getattr(parsed, "z_size", 1)) > 0, text
    again = cls.from_text(parsed.to_text())
    assert again == parsed, text
    assert again.to_text() == parsed.to_text(), text
    return True


def test_corpus_texts_round_trip():
    for text, cls in CORPUS_TEXTS:
        assert _check_mutant(text, cls)


@pytest.mark.parametrize("sizes", ["-1 2 2", "2 0 2", "2 2 -3", "-" + "9" * 40 + " 2 2"])
def test_nonpositive_sizes_rejected(sizes):
    # A tree that is a single leaf reads no input, so only the size check
    # stands between these headers and a protocol over an empty alphabet.
    with pytest.raises(CommlbError):
        ProtocolTree.from_text(f"COMMPROT 1\n{sizes}\n(leaf z=0)\n")
    x, y, _ = sizes.split()
    with pytest.raises(CommlbError):
        PartialFunction.from_text(f"COMMFN 1\n{x} {y} 2\n0\n")
    with pytest.raises(CommlbError):
        InputDistribution.from_text(f"COMMDIST 1\n{x} {y}\n1.0\n")


def test_seeded_parser_fuzz():
    rng = random.Random(20120406)
    parsed = rejected = 0
    for text, cls in CORPUS_TEXTS:
        for _ in range(150):
            if _check_mutant(_mutate(text, rng), cls):
                parsed += 1
            else:
                rejected += 1
    # Both outcomes occur, so the mutations reach past the header checks.
    assert parsed > 100 and rejected > 1000


def test_hypothesis_parser_fuzz():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(CORPUS_TEXTS), st.randoms(use_true_random=False))
    def check(case, rng):
        text, cls = case
        _check_mutant(_mutate(text, rng), cls)

    check()
