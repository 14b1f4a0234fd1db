"""CLI contract: CSV output, determinism, exit codes, atomic writes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import commlb
from commlb import compression, protocol, verify
from commlb.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    main,
)
from commlb.core import BadSet, PartialFunction
from commlb.corpus import make_distribution, make_protocol
from commlb.errors import SolverError


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_value(row: str) -> float:
    # bound_name,function,x,y,z,eps,value,log2_value,status with a possibly
    # quoted function label
    tail = row.rsplit(",", 3)
    return float(tail[1])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_prt_eq1(capsys):
    code, out, _ = _run(capsys, "bounds", "--fn", "corpus:EQ,1", "--eps", "0",
                        "--bound", "prt")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("bound_name,")
    assert lines[1].startswith('prt,"corpus:EQ,1",2,2,2,')
    assert _csv_value(lines[1]) == pytest.approx(4.0, abs=1e-6)


def test_bounds_bprt_const(capsys):
    code, out, _ = _run(capsys, "bounds", "--fn", "corpus:CONST,1",
                        "--eps", "0.1", "--bound", "bprt")
    assert code == EXIT_OK
    assert _csv_value(out.strip().split("\n")[1]) == pytest.approx(0.9, abs=1e-6)


def test_bounds_disc_eq1(capsys):
    code, out, _ = _run(capsys, "bounds", "--fn", "corpus:EQ,1",
                        "--bound", "disc")
    assert code == EXIT_OK
    row = out.strip().split("\n")[1]
    assert row == 'disc,"corpus:EQ,1",2,2,2,0.0,0.25,-2.0,exact'


def test_bounds_multiple_and_rational(capsys):
    code, out, _ = _run(capsys, "bounds", "--fn", "corpus:EQ,1", "--eps", "0",
                        "--bound", "prt,bprt,srec,rect", "--rational")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    # prt + bprt + one srec and one rect per label that occurs
    assert len(lines) == 1 + 2 + 2 + 2
    assert all(line.endswith("optimal") for line in lines[1:])


def test_bounds_missing_file(capsys):
    code, _, err = _run(capsys, "bounds", "--fn", "missing.fn")
    assert code == EXIT_BAD_INPUT
    assert err


def test_bounds_unknown_bound(capsys):
    code, _, err = _run(capsys, "bounds", "--fn", "corpus:EQ,1",
                        "--bound", "quantum")
    assert code == EXIT_BAD_INPUT


def test_bounds_capacity_exceeded(capsys, tmp_path):
    # 9 rows exceeds the default rectangle-enumeration side cap of 8.
    f = PartialFunction.from_rows([[x % 2, (x + 1) % 2] for x in range(9)], z_size=2)
    path = tmp_path / "wide.fn"
    path.write_text(f.to_text())
    code, _, err = _run(capsys, "bounds", "--fn", str(path), "--bound", "prt")
    assert code == EXIT_CAPACITY


def test_bounds_n3_at_default_caps(capsys):
    # EQ,3's LPs fold to a few hundred vars, so every LP bound runs at the
    # default caps: bprt, prt, one srec and one rect per label.
    code, out, _ = _run(capsys, "bounds", "--fn", "corpus:EQ,3", "--bound", "bprt,prt,srec,rect")
    assert code == EXIT_OK
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 6 and all(line.endswith("optimal") for line in lines)
    assert [_csv_value(line) for line in lines[:2]] == [pytest.approx(11.5, abs=1e-9)] * 2


def test_bounds_over_the_caps_names_the_reduced_shape(capsys):
    # GT,3's bprt reduces to 72 x 65,280, past the 50,000-var float cap:
    # refused, naming at least that many vars.
    code, _, err = _run(capsys, "bounds", "--fn", "corpus:GT,3", "--bound", "bprt")
    assert code == EXIT_CAPACITY
    num_vars = re.search(r"(\d+) vars x (\d+) rows", err)
    assert num_vars and int(num_vars[1]) >= 65_280


def test_bounds_refuses_a_label_alphabet_refinement_cannot_hold(capsys, tmp_path):
    # A 2x2 table declaring 10^6 labels gives bprt 9,000,000 (rectangle,
    # label) columns, past the 130,050 of two labels on an 8x8 grid: refused
    # before refinement allocates per column.
    path = tmp_path / "labels.fn"
    path.write_text(PartialFunction.from_rows([[1, 0], [0, 1]], z_size=1_000_000).to_text())
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, _, err = _run(capsys, "bounds", "--fn", str(path), "--bound", "bprt",
                            "--eps", "0.1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CAPACITY and "9000000 (rectangle, label) columns" in err
    assert time.perf_counter() - start < 1 and peak < 50 << 20


def test_bounds_solves_only_the_labels_that_occur(capsys, tmp_path):
    # srec and rect are solved for the two labels in the table, not for each
    # of the 10^6 it declares.
    path = tmp_path / "labels.fn"
    path.write_text(PartialFunction.from_rows([[1, 0], [0, 1]], z_size=1_000_000).to_text())
    start = time.perf_counter()
    code, out, _ = _run(capsys, "bounds", "--fn", str(path), "--bound", "rect,srec",
                        "--eps", "0.1")
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK
    names = re.findall(r"^(\w+),.*:z=(\d+),", out, re.M)
    assert names == [("rect", "0"), ("rect", "1"), ("srec", "0"), ("srec", "1")]


@pytest.mark.parametrize("raw", ["rect_side=-1", "no_such_cap=3"])
def test_bounds_bad_caps_env_is_bad_input(capsys, monkeypatch, raw):
    monkeypatch.setenv("CCLB_CAPS", raw)
    code, out, err = _run(capsys, "bounds", "--fn", "corpus:EQ,1", "--bound", "prt")
    assert code == EXIT_BAD_INPUT
    assert "CCLB_CAPS" in err and not out


def test_bounds_out_file_and_determinism(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    argv = ("bounds", "--fn", "corpus:AND,1", "--eps", "0.05",
            "--bound", "prt,bprt,disc", "--out", str(target))
    assert _run(capsys, *argv)[0] == EXIT_OK
    first = target.read_bytes()
    assert _run(capsys, *argv)[0] == EXIT_OK
    assert target.read_bytes() == first
    assert first.decode().startswith("bound_name,")
    # atomic write leaves no temp droppings
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


# ---------------------------------------------------------------------------
# ic
# ---------------------------------------------------------------------------


def _ic_table(out: str) -> dict[str, str]:
    rows = [line.split(",", 1) for line in out.strip().split("\n")[1:]]
    return {k: v for k, v in rows}


def test_ic_send_x(capsys):
    code, out, _ = _run(capsys, "ic", "--prot", "corpus:send_x",
                        "--fn", "corpus:EQ,1")
    assert code == EXIT_OK
    table = _ic_table(out)
    assert float(table["information_cost"]) == pytest.approx(1.0, abs=1e-9)
    assert float(table["protocol_error"]) == pytest.approx(0.5, abs=1e-12)
    assert float(table["ic_path_difference"]) < 1e-9
    assert table["depth"] == "1"


def test_ic_trivial_const(capsys):
    code, out, _ = _run(capsys, "ic", "--prot", "corpus:trivial_const")
    assert code == EXIT_OK
    assert float(_ic_table(out)["information_cost"]) == 0.0


@pytest.mark.parametrize("n", ["-1", "4"])
def test_ic_exchange_all_outside_its_range_is_bad_input(capsys, n):
    code, out, err = _run(capsys, "ic", "--prot", f"corpus:exchange_all,{n}")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: exchange_all needs n in [0, 3]")


def test_ic_noisy_bit(capsys):
    code, out, _ = _run(capsys, "ic", "--prot", "corpus:noisy_bit,0.25")
    assert code == EXIT_OK
    h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert float(_ic_table(out)["information_cost"]) == pytest.approx(1 - h, abs=1e-9)


def test_ic_paths_disagree_is_a_solver_error(capsys, monkeypatch):
    monkeypatch.setattr(protocol, "information_cost_paths", lambda pi, mu: (0.5, 0.75))
    pi = make_protocol("noisy_bit", flip=0.25)
    with pytest.raises(SolverError, match="paths disagree"):
        protocol.information_cost(pi, make_distribution("uniform", pi))
    code, out, err = _run(capsys, "ic", "--prot", "corpus:noisy_bit,0.25")
    assert code == EXIT_SOLVER
    assert out == "" and err.startswith("solver error: information-cost paths disagree")


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


def test_compress_too_deep_protocol_is_bad_input(capsys, tmp_path):
    depth = 3000
    body = "(node owner=A p1=(0.5 0.5) zero=(leaf z=0) one=" * depth + "(leaf z=1)" + ")" * depth
    path = tmp_path / "deep.commprot"
    path.write_text(f"COMMPROT 1\n2 2 2\n{body}\n")
    code, out, err = _run(capsys, "compress", "--prot", str(path), "--delta", "0.9")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: protocol tree deeper than")
    assert "Traceback" not in err


def test_compress_paper_exact_trivial(capsys):
    code, out, _ = _run(capsys, "compress", "--prot", "corpus:trivial_const",
                        "--delta", "0.9", "--paper-exact", "--mode", "dp")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("# engine=dp mode=paper-exact")
    assert lines[-1].startswith("eq4,") and lines[-1].endswith("True")
    assert lines[-2].startswith("aggregate,") and lines[-2].endswith("True")


def test_compress_paper_exact_dp_small_delta(capsys):
    # The DP cap is raised to T = 47,632,711,550; the DP's work grows with
    # log T, so this still finishes at once.
    start = time.perf_counter()
    code, out, _ = _run(capsys, "compress", "--prot", "corpus:noisy_bit,0.25",
                        "--delta", "0.5", "--paper-exact", "--mode", "dp")
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_OK
    assert " trials=47632711550 " in out.split("\n")[0]


@pytest.mark.parametrize("argv,expected", [
    # lambda = 2^-1050 at delta 0.5 and 2^-2884 at 0.3: the masses would be
    # subnormal or 0.
    (("--prot", "corpus:exchange_all,2", "--delta", "0.5", "--paper-exact"), EXIT_CAPACITY),
    (("--prot", "corpus:exchange_all,2", "--delta", "0.3", "--paper-exact"), EXIT_CAPACITY),
    # T = 10^400 is past the float range.
    (("--prot", "corpus:noisy_bit,0.25", "--fn", "corpus:EQ,1", "--delta", "0.5",
      "--override", f"1,{10**400},0"), EXIT_CAPACITY),
    # T^2 / 2 is past the float range, but lambda = 2^-701 is a normal float.
    (("--prot", "corpus:noisy_bit,0.25", "--fn", "corpus:EQ,1", "--delta", "0.5",
      "--override", f"1,{10**200},700"), EXIT_OK),
    # With float factors, S^2 = 2^1400 is past the float range, and a
    # both-accept mass of about 2^-1400 would be lost.
    (("--prot", "corpus:noisy_bit,0.25", "--fn", "corpus:EQ,1", "--delta", "0.5",
      "--override", "700,10,0"), EXIT_CAPACITY),
], ids=["lambda-delta0.5", "lambda-delta0.3", "trials", "t-squared", "scale-squared"])
def test_compress_dp_at_the_float_range(capsys, argv, expected):
    code, out, err = _run(capsys, "compress", *argv, "--mode", "dp")
    assert code == expected
    assert "Traceback" not in err
    if expected == EXIT_CAPACITY:
        assert out == "" and err.startswith("capacity error:")
    else:
        assert out.strip().split("\n")[-2].startswith("aggregate,")


@pytest.mark.parametrize("delta", ["0.3", "0.35"])
def test_compress_dp_refuses_a_rate_past_the_float_range(capsys, delta):
    # At delta 0.3 the rate of both parties accepting one trial, both * rho,
    # is about 2^-1121 and would underflow to 0, so the law is refused rather
    # than reported as a failed eq6.  At 0.35 the smallest rate is 2^-831.
    code, out, err = _run(capsys, "compress", "--prot", "corpus:send_x", "--fn", "corpus:EQ,1",
                          "--delta", delta, "--paper-exact", "--mode", "dp")
    assert "Traceback" not in err
    if delta == "0.3":
        assert code == EXIT_CAPACITY
        assert out == "" and err.startswith("capacity error:") and "2^-1022" in err
    else:
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[2:6] == [f"{x},{y},2.0285958332837637e-168,2.1197879309511924e-168,True,"
                              for x in (0, 1) for y in (0, 1)]


def test_compress_override_mc_deterministic(capsys):
    argv = ("compress", "--prot", "corpus:noisy_bit,0.25", "--delta", "0.5",
            "--override", "2,10,1", "--mode", "mc", "--samples", "20000",
            "--seed", "7")
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == EXIT_OK  # override reports are informational
    assert out1 == out2
    assert out1.split("\n")[0].startswith("# engine=mc mode=override")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_compress_mc_needs_a_sample(capsys, samples):
    code, out, err = _run(capsys, "compress", "--prot", "corpus:noisy_bit,0.25",
                          "--fn", "corpus:EQ,1", "--override", "2,10,1", "--mode", "mc",
                          "--samples", samples)
    assert code == EXIT_BAD_INPUT
    assert out == "" and "at least one sample" in err and "Traceback" not in err


def test_compress_mc_refuses_a_run_past_one_block(capsys):
    # T is about 1.5e158; the DP refuses it too, since lambda = 2^-1050.
    code, out, err = _run(capsys, "compress", "--prot", "corpus:exchange_all,2",
                          "--delta", "0.5", "--paper-exact", "--mode", "mc", "--samples", "1")
    assert code == EXIT_CAPACITY
    assert out == "" and err.startswith("capacity error:") and "MC block" in err


def test_compress_delta_out_of_range(capsys):
    code, _, err = _run(capsys, "compress", "--prot", "corpus:trivial_const",
                        "--delta", "1.5")
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("override", ["1,2", "1,2,3,4", "a,b,c"])
def test_compress_bad_override_is_bad_input(capsys, override):
    code, out, err = _run(capsys, "compress", "--prot", "corpus:noisy_bit,0.25",
                          "--fn", "corpus:EQ,1", "--delta", "0.5", "--override", override)
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith(f"error: bad override {override!r}")
    assert "Traceback" not in err


def test_compress_conflicting_parameter_flags(capsys):
    code, _, err = _run(capsys, "compress", "--prot", "corpus:trivial_const",
                        "--delta", "0.9", "--paper-exact", "--override", "2,10,1")
    assert code == EXIT_BAD_INPUT
    assert "mutually exclusive" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_only_chain(capsys):
    code, out, _ = _run(capsys, "verify", "--only", "chain")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("PASS [") and "chain" in lines[0]


def test_verify_perturb_fails(capsys):
    code, out, _ = _run(capsys, "verify", "--only", "chain",
                        "--self-test-perturb")
    assert code == EXIT_VERIFY
    assert out.startswith("FAIL [")


def _doubled_both(experiment_probabilities):
    def doubled(inp):
        table = experiment_probabilities(inp)
        return dataclasses.replace(table, both=tuple(2 * b for b in table.both))
    return doubled


def _shifted_law(exact_output_distribution):
    # 0.1 of the abort mass moved onto output 0: past 5 standard errors of
    # the MC law at 20,000 samples.
    def shifted(*args, **kwargs):
        law = exact_output_distribution(*args, **kwargs)
        return dataclasses.replace(law, output=(law.output[0] + 0.1, *law.output[1:]),
                                   abort=law.abort - 0.1)
    return shifted


# (check, module, attribute, breaker): each breaker takes the attribute, one
# that a check reads its subject through, and returns a wrong version of it.
BROKEN_SUBJECTS = [
    ("accept-identity", compression, "experiment_probabilities", _doubled_both),
    ("accept-bounds", compression, "experiment_probabilities", _doubled_both),
    ("bad-set-bound", verify, "bad_set",
     lambda bad_set: lambda *args: BadSet(bad_set(*args).members, 1.0)),
    ("dp-vs-mc", compression, "exact_output_distribution", _shifted_law),
    ("ic-paths", verify, "information_cost", lambda _: lambda pi, mu: pi.depth + 1),
]


@pytest.mark.parametrize("only, module, name, breaker", BROKEN_SUBJECTS,
                         ids=[case[0] for case in BROKEN_SUBJECTS])
def test_verify_fails_on_a_broken_subject(capsys, monkeypatch, only, module, name, breaker):
    code, out, _ = _run(capsys, "verify", "--only", only, "--samples", "20000")
    assert code == EXIT_OK and out.startswith("PASS [")
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    code, out, _ = _run(capsys, "verify", "--only", only, "--samples", "20000")
    assert code == EXIT_VERIFY
    assert out.startswith("FAIL [")


def test_verify_unknown_filter(capsys):
    code, _, err = _run(capsys, "verify", "--only", "no-such-check")
    assert code == EXIT_BAD_INPUT


def test_verify_unknown_filter_leaves_no_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out, err = _run(capsys, "verify", "--only", "nonsense", "--out", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: no checks match")
    assert not path.exists()


def test_bad_arguments_exit_code(capsys):
    assert main(["bounds"]) == EXIT_BAD_INPUT  # missing --fn
    capsys.readouterr()
    assert main(["nope"]) == EXIT_BAD_INPUT
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    # ``python -m commlb`` from a checkout, with src on the path, exits with
    # the CLI's own codes.
    src = os.path.dirname(os.path.dirname(commlb.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    ok = subprocess.run([sys.executable, "-m", "commlb", "bounds", "--fn", "corpus:EQ,1",
                         "--bound", "disc"], env=env, capture_output=True, text=True)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert ok.stdout.split("\n")[1] == 'disc,"corpus:EQ,1",2,2,2,0.0,0.25,-2.0,exact'
    bad = subprocess.run([sys.executable, "-m", "commlb", "bounds", "--fn", "missing.fn"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == EXIT_BAD_INPUT
