"""CLI contract: CSV output, determinism, exit codes, atomic writes."""

import math
import time

import pytest

from commlb import protocol
from commlb.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    main,
)
from commlb.core import PartialFunction
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
    assert row.startswith('disc,"corpus:EQ,1",')
    assert _csv_value(row) == pytest.approx(0.25, abs=1e-12)


def test_bounds_multiple_and_rational(capsys):
    code, out, _ = _run(capsys, "bounds", "--fn", "corpus:EQ,1", "--eps", "0",
                        "--bound", "prt,bprt,srec,rect", "--rational")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    # prt + bprt + one srec per nonempty label + one rect per label
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


def test_compress_override_mc_deterministic(capsys):
    argv = ("compress", "--prot", "corpus:noisy_bit,0.25", "--delta", "0.5",
            "--override", "2,10,1", "--mode", "mc", "--samples", "20000",
            "--seed", "7")
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == EXIT_OK  # override reports are informational
    assert out1 == out2
    assert out1.split("\n")[0].startswith("# engine=mc mode=override")


def test_compress_delta_out_of_range(capsys):
    code, _, err = _run(capsys, "compress", "--prot", "corpus:trivial_const",
                        "--delta", "1.5")
    assert code == EXIT_BAD_INPUT


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


def test_verify_unknown_filter(capsys):
    code, _, err = _run(capsys, "verify", "--only", "no-such-check")
    assert code == EXIT_BAD_INPUT


def test_bad_arguments_exit_code(capsys):
    assert main(["bounds"]) == EXIT_BAD_INPUT  # missing --fn
    capsys.readouterr()
    assert main(["nope"]) == EXIT_BAD_INPUT
    capsys.readouterr()
