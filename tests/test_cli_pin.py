"""The CLI's exact outputs, pinned to literals.

A change that only simplifies the code must keep every CSV byte.  These
cases print exact rational values or pure-Python floats, so the bytes do not
depend on the BLAS build; float-mode LP output is left out for that reason.
"""

import hashlib

import pytest

from commlb.cli import EXIT_OK, main

# SHA-256 prefixes of the `bounds --rational` CSV over all six bounds.
BOUNDS_PINS = [
    ("CONST,1", "0", "0c70455aff838caa"),
    ("CONST,1", "0.1", "3f6ee88ec42263da"),
    ("EQ,1", "0", "c11ab355f88b905c"),
    ("EQ,1", "0.1", "24ff6d32f5922fd9"),
    ("AND,1", "0", "701f839babdf3f9e"),
    ("AND,1", "0.1", "491e66c8e1c6f49a"),
    ("GT,2", "0", "9e2f2f3766343917"),
    ("GT,2", "0.1", "a6da4976812fab7b"),
]


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("fn, eps, digest", BOUNDS_PINS,
                         ids=[f"{fn}-{eps}" for fn, eps, _ in BOUNDS_PINS])
def test_rational_bounds_csv_is_pinned(capsys, fn, eps, digest):
    out = _run(capsys, "bounds", "--fn", f"corpus:{fn}", "--rational", "--eps", eps,
               "--bound", "prt,bprt,bprt-mu,srec,rect,disc")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_ic_exchange_all_is_pinned(capsys):
    out = _run(capsys, "ic", "--prot", "corpus:exchange_all", "--fn", "corpus:IP,2")
    assert out == (
        "quantity,value\n"
        "information_cost,4.0\n"
        "ic_path_conditional_mi,4.0\n"
        "ic_path_divergence,4.0\n"
        "ic_path_difference,0.0\n"
        "depth,4\n"
        "universe_size,16\n"
        "protocol_error,0.0\n"
    )


def test_ic_noisy_bit_is_pinned(capsys):
    out = _run(capsys, "ic", "--prot", "corpus:noisy_bit,0.25")
    assert out == (
        "quantity,value\n"
        "information_cost,0.18872187554086717\n"
        "ic_path_conditional_mi,0.18872187554086717\n"
        "ic_path_divergence,0.18872187554086717\n"
        "ic_path_difference,0.0\n"
        "depth,1\n"
        "universe_size,2\n"
    )
