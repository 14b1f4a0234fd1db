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


# `compress --paper-exact --mode dp` stdout on noisy_bit / EQ,1 under the uniform mu.
COMPRESS_NOISY_BIT_PINS = {
    ("0.1", "0.9"): (
        "# engine=dp mode=paper-exact delta=0.9 delta_exp=26 trials=293239169 hash_bits=35 lambda=4.336808689942018e-19\n"
        "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass\n"
        "0,0,3.8571297532697875e-19,4.336808689942018e-19,True,\n"
        "0,1,3.8571297532697875e-19,4.336808689942018e-19,True,\n"
        "1,0,3.8571297532697875e-19,4.336808689942018e-19,True,\n"
        "1,1,3.8571297532697875e-19,4.336808689942018e-19,True,\n"
        "aggregate,,3.8571297532697875e-19,4.336808689942018e-19,,True\n"
        "eq4,,1.511915592722346e-12,,,True\n"
    ),
    ("0.1", "0.95"): (
        "# engine=dp mode=paper-exact delta=0.95 delta_exp=24 trials=71495598 hash_bits=33 lambda=6.938893903907228e-18\n"
        "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass\n"
        "0,0,6.127624156590704e-18,6.938893903907228e-18,True,\n"
        "0,1,6.127624156590704e-18,6.938893903907228e-18,True,\n"
        "1,0,6.1276241565907034e-18,6.938893903907228e-18,True,\n"
        "1,1,6.1276241565907034e-18,6.938893903907228e-18,True,\n"
        "aggregate,,6.1276241565907034e-18,6.938893903907228e-18,,True\n"
        "eq4,,5.962921129087917e-12,,,True\n"
    ),
    ("0.25", "0.9"): (
        "# engine=dp mode=paper-exact delta=0.9 delta_exp=12 trials=17898 hash_bits=21 lambda=1.1641532182693481e-10\n"
        "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass\n"
        "0,0,1.0354085495730461e-10,1.1641532182693481e-10,True,\n"
        "0,1,1.0354085495730461e-10,1.1641532182693481e-10,True,\n"
        "1,0,1.0354085495730461e-10,1.1641532182693481e-10,True,\n"
        "1,1,1.0354085495730461e-10,1.1641532182693481e-10,True,\n"
        "aggregate,,1.0354085495730461e-10,1.1641532182693481e-10,,True\n"
        "eq4,,3.2254653919983056e-08,,,True\n"
    ),
    ("0.25", "0.95"): (
        "# engine=dp mode=paper-exact delta=0.95 delta_exp=11 trials=8728 hash_bits=20 lambda=4.656612873077393e-10\n"
        "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass\n"
        "0,0,4.112384961539687e-10,4.656612873077393e-10,True,\n"
        "0,1,4.112384961539687e-10,4.656612873077393e-10,True,\n"
        "1,0,4.112384961539687e-10,4.656612873077393e-10,True,\n"
        "1,1,4.112384961539687e-10,4.656612873077393e-10,True,\n"
        "aggregate,,4.112384961539687e-10,4.656612873077393e-10,,True\n"
        "eq4,,6.36075704329997e-08,,,True\n"
    ),
    ("0.4", "0.9"): (
        "# engine=dp mode=paper-exact delta=0.9 delta_exp=6 trials=280 hash_bits=15 lambda=4.76837158203125e-07\n"
        "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass\n"
        "0,0,4.2467595455157653e-07,4.76837158203125e-07,True,\n"
        "0,1,4.2467595455157653e-07,4.76837158203125e-07,True,\n"
        "1,0,4.2467595455157653e-07,4.76837158203125e-07,True,\n"
        "1,1,4.2467595455157653e-07,4.76837158203125e-07,True,\n"
        "aggregate,,4.2467595455157653e-07,4.76837158203125e-07,,True\n"
        "eq4,,1.058412415239074e-06,,,True\n"
    ),
    ("0.4", "0.95"): (
        "# engine=dp mode=paper-exact delta=0.95 delta_exp=6 trials=273 hash_bits=15 lambda=4.76837158203125e-07\n"
        "x,y,prob_not_abort,lambda,eq5_pass,eq6_pass\n"
        "0,0,4.216541591232369e-07,4.76837158203125e-07,True,\n"
        "0,1,4.216541591232369e-07,4.76837158203125e-07,True,\n"
        "1,0,4.216541591232369e-07,4.76837158203125e-07,True,\n"
        "1,1,4.216541591232369e-07,4.76837158203125e-07,True,\n"
        "aggregate,,4.216541591232369e-07,4.76837158203125e-07,,True\n"
        "eq4,,1.0433998812453549e-06,,,True\n"
    ),
}


@pytest.mark.parametrize("flip, delta", COMPRESS_NOISY_BIT_PINS,
                         ids=[f"{f}-{d}" for f, d in COMPRESS_NOISY_BIT_PINS])
def test_compress_noisy_bit_is_pinned(capsys, flip, delta):
    out = _run(capsys, "compress", "--prot", f"corpus:noisy_bit,{flip}", "--fn", "corpus:EQ,1",
               "--delta", delta, "--paper-exact", "--mode", "dp")
    assert out == COMPRESS_NOISY_BIT_PINS[(flip, delta)]


IC_NOISY_BIT_PINS = {
    "0.1": (
        "quantity,value\n"
        "information_cost,0.5310044064107189\n"
        "ic_path_conditional_mi,0.5310044064107189\n"
        "ic_path_divergence,0.5310044064107189\n"
        "ic_path_difference,0.0\n"
        "depth,1\n"
        "universe_size,2\n"
    ),
    "0.4": (
        "quantity,value\n"
        "information_cost,0.029049405545331364\n"
        "ic_path_conditional_mi,0.029049405545331364\n"
        "ic_path_divergence,0.029049405545331364\n"
        "ic_path_difference,0.0\n"
        "depth,1\n"
        "universe_size,2\n"
    ),
}


@pytest.mark.parametrize("flip", IC_NOISY_BIT_PINS)
def test_ic_noisy_bit_flips_are_pinned(capsys, flip):
    assert _run(capsys, "ic", "--prot", f"corpus:noisy_bit,{flip}") == IC_NOISY_BIT_PINS[flip]
