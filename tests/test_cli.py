import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kpotent import PrimeField, SquareMatrix, left_rep
from kpotent.cli import main

from helpers import matrix_from, quat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verify ------------------------------------------------------------------------


def test_verify_f5_showcase(capsys):
    code, out, err = run(
        capsys, "verify", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "2,3,1,3",
    )
    assert code == 0 and err == ""
    assert "kind: k-potent" in out
    assert "index: 5" in out
    assert "norm: 3" in out


def test_verify_trivial_idempotent(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "q", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "1,0,0,0",
    )
    assert code == 0
    assert "kind: k-potent" in out and "index: 2" in out


def test_verify_f13_octonion(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "f13", "--algebra", "oct",
        "--params", "-1,-1,-1", "--coords", "3,2,1,1,1,1,1,1",
    )
    assert code == 0
    assert "index: 13" in out


def test_verify_matrices_and_transport(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "2,3,1,3", "--matrices",
    )
    assert code == 0
    assert "left representation (4x4):" in out
    assert out.count("potency transport: ok") == 2


def test_verify_json_envelope(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "2,3,1,3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["result"]["kind"] == "k-potent"
    assert data["result"]["index"] == 5


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "2,3,1,3", "--format", "csv",
    )
    assert out.splitlines() == ["kind,index,trace,norm", "k-potent,5,4,3"]
    assert code == 0


def test_verify_parse_error(capsys):
    code, out, err = run(
        capsys, "verify", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "2,3,x,3",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "coordinate 2" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--params", "1/0,1", "--coords", "1,0,0,0"),
         "error: bad rational literal '1/0': zero denominator\n"),
        (("--params", "-1,-1", "--coords", "1/0,0,0,0"),
         "error: coordinate 0: bad rational literal '1/0': zero denominator\n"),
    ],
)
def test_verify_zero_denominator_error(capsys, flags, message):
    code, out, err = run(capsys, "verify", "--field", "q", "--algebra", "quat", *flags)
    assert code == 1 and out == ""
    assert err == message


# -- rep ----------------------------------------------------------------------------


def test_rep_phi_matches_known_matrix(capsys):
    code, out, _ = run(
        capsys, "rep", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "2,3,1,3", "--rep", "phi",
        "--format", "csv",
    )
    assert code == 0
    field = PrimeField(5)
    printed = SquareMatrix.from_csv(field, out)
    expected = matrix_from(field, ["2,-3,-1,-3", "3,2,-3,1", "1,3,2,-3", "3,-1,3,2"])
    assert printed == expected


def test_rep_zero_coords(capsys):
    code, out, _ = run(
        capsys, "rep", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "0,0,0,0", "--rep", "left",
        "--format", "csv",
    )
    assert code == 0
    assert set(out.replace("\n", ",").strip(",").split(",")) == {"0"}


def test_rep_psi_octonion(capsys):
    code, out, _ = run(
        capsys, "rep", "--field", "f13", "--algebra", "oct",
        "--params", "-1,-1,-1", "--coords", "3,2,1,1,1,1,1,1", "--rep", "Psi",
        "--format", "csv",
    )
    assert code == 0
    field = PrimeField(13)
    printed = SquareMatrix.from_csv(field, out)
    expected = matrix_from(field, [
        "3,-2,-1,-1,-1,-1,-1,-1",
        "2,3,1,-1,1,-1,-1,1",
        "1,-1,3,2,1,1,-1,-1",
        "1,1,-2,3,1,-1,1,-1",
        "1,-1,-1,-1,3,2,1,1",
        "1,1,-1,1,-2,3,-1,1",
        "1,1,1,-1,-1,1,3,-2",
        "1,-1,1,1,-1,-1,2,3",
    ])
    assert printed == expected


def test_rep_alias_algebra_mismatch(capsys):
    code, _, err = run(
        capsys, "rep", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "1,0,0,0", "--rep", "Phi",
    )
    assert code == 1
    assert err.startswith("error: ")


def test_rep_round_trips_through_parser(capsys):
    code, out, _ = run(
        capsys, "rep", "--field", "q[sqrt2]", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "0,1/2,-1/2,1/2s", "--rep", "left",
        "--format", "csv",
    )
    assert code == 0
    from kpotent import QuadraticField

    field = QuadraticField(2)
    alg = quat(field, "-1", "-1")
    x = alg.parse_element("0,1/2,-1/2,1/2s")
    assert SquareMatrix.from_csv(field, out) == left_rep(x)


# -- generate ------------------------------------------------------------------------


def test_generate_rotor(capsys):
    code, out, _ = run(
        capsys, "generate", "rotor", "--k", "7", "--direction", "1,1,1",
        "--field", "q",
    )
    assert code == 0
    assert "element: 1/2,1/2,1/2,1/2" in out
    assert "kind: k-potent" in out and "index: 7" in out


def test_generate_idempotent(capsys):
    code, out, _ = run(
        capsys, "generate", "idempotent", "--field", "q", "--params", "1,1",
        "--direction", "1,1,1",
    )
    assert code == 0
    assert "element: 1/2,1/2,1/2,1/2" in out
    assert "index: 2" in out


def test_generate_nilpotent(capsys):
    code, out, _ = run(
        capsys, "generate", "nilpotent", "--field", "q[sqrt2]", "--params", "1,1",
        "--direction", "1/2,1/2,1/2s",
    )
    assert code == 0
    assert "element: 0,1/2,1/2,1/2s" in out
    assert "kind: nilpotent" in out and "index: 2" in out


def test_generate_rotor_quadratic_square_root(capsys):
    # |direction|^2 = (3+2s)^2 and 1/(3+2s)^2 = (3-2s)^2, so the axis is f1
    code, out, err = run(
        capsys, "generate", "rotor", "--field", "q[sqrt2]", "--k", "5",
        "--direction", "3+2s,0,0",
    )
    assert code == 0 and err == ""
    assert out == "element: 0,1,0,0\nkind: k-potent\nindex: 5\n"


def test_generate_unsupported_k(capsys):
    code, _, err = run(
        capsys, "generate", "rotor", "--k", "6", "--direction", "1,1,1",
        "--field", "q",
    )
    assert code == 1
    assert err.startswith("error: unsupported k=6")


def test_generate_rotor_rejects_octonions(capsys):
    code, out, err = run(capsys, "generate", "rotor", "--field", "q", "--k", "5",
                         "--direction", "0,3,4", "--algebra", "oct")
    assert (code, out, err) == (
        1, "", "error: rotor generation applies to quat algebras, got --algebra oct\n")


def test_generate_rotor_checks_parameter_count(capsys):
    # rotors build their algebra like every other command
    code, out, err = run(capsys, "generate", "rotor", "--field", "q", "--k", "5",
                         "--direction", "0,3,4", "--params", "-1,-1,-1")
    assert (code, out, err) == (
        1, "", "error: quaternion algebras take two parameters a,b\n")


def test_generate_idempotent_past_two_to_the_twenty(capsys):
    # square roots over F_p have no size cap
    code, out, err = run(capsys, "generate", "idempotent", "--field", "f1048583",
                         "--params", "1,1", "--direction", "1,1,1")
    assert code == 0 and err == ""
    assert out == "element: 524292,524291,524291,524291\nkind: k-potent\nindex: 2\n"


def test_generate_json(capsys):
    code, out, _ = run(
        capsys, "generate", "rotor", "--k", "4", "--direction", "1,-1,1",
        "--field", "q", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["element"] == "-1/2,1/2,-1/2,1/2"
    assert data["result"]["index"] == 4


# -- search ---------------------------------------------------------------------------


def test_search_exhaustive_csv(capsys):
    code, out, _ = run(
        capsys, "search", "--field", "f3", "--algebra", "quat",
        "--params", "-1,-1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,index,count,sample"
    assert lines[1] == 'k-potent,2,14,"0,0,0,0"'
    assert lines[-1] == 'nilpotent,2,8,"0,1,1,1"'


def test_search_sample_deterministic(capsys):
    argv = (
        "search", "--field", "f13", "--algebra", "oct", "--params", "-1,-1,-1",
        "--mode", "sample", "--budget", "500", "--seed", "7",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_sample_requires_budget(capsys):
    code, _, err = run(
        capsys, "search", "--field", "f5", "--algebra", "quat",
        "--params", "-1,-1", "--mode", "sample",
    )
    assert code == 1 and "budget" in err


def test_search_budget_error_directs_to_sampling(capsys):
    code, _, err = run(
        capsys, "search", "--field", "f1259", "--algebra", "oct",
        "--params", "-1,-1,-1",
    )
    assert code == 1
    assert "search_sample" in err or "sample" in err


@pytest.mark.parametrize("mode", [("--mode", "exhaustive"),
                                  ("--mode", "sample", "--budget", "50")])
def test_search_rejects_max_k_below_two(capsys, mode):
    code, out, err = run(
        capsys, "search", "--field", "f5", "--params", "-1,-1", "--max-k", "-5", *mode,
    )
    assert code == 1 and out == ""
    assert err == "error: max_k must be at least 2\n"


def test_search_json(capsys):
    code, out, _ = run(
        capsys, "search", "--field", "f3", "--algebra", "quat",
        "--params", "-1,-1", "--format", "json",
    )
    data = json.loads(out)
    assert code == 0 and data["ok"] is True
    assert data["result"]["rows"][0] == {
        "kind": "k-potent", "index": 2, "count": 14, "sample": "0,0,0,0",
    }


# -- paper-report ------------------------------------------------------------------------


def test_paper_report_text(capsys):
    code, out, _ = run(capsys, "paper-report")
    assert code == 0
    assert out.splitlines()[0].startswith("exact-identity report v")
    assert "f5-showcase-norm-value" in out
    assert "quat-right-map-direct-order" in out


def test_paper_report_csv(capsys):
    code, out, _ = run(capsys, "paper-report", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,regime,verdict,detail"


# -- flag preconditions -----------------------------------------------------------------


def test_bad_field_token(capsys):
    code, _, err = run(
        capsys, "verify", "--field", "z9", "--algebra", "quat",
        "--params", "-1,-1", "--coords", "1,0,0,0",
    )
    assert code == 1 and err.startswith("error: ")


def test_params_arity_checked(capsys):
    code, _, err = run(
        capsys, "verify", "--field", "f5", "--algebra", "oct",
        "--params", "-1,-1", "--coords", "1,0,0,0,0,0,0,0",
    )
    assert code == 1 and "three parameters" in err


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["paper-report"], False),   # larger than the stdout buffer: print writes
        (["verify", "--field", "f5", "--params", "-1,-1", "--coords", "2,3,1,3"], False),
        # argparse drops a failed help write when stdout is unbuffered
        (["--help"], False),
        (["--help"], True),
        (["verify", "--help"], False),
        (["verify", "--help"], True),
    ],
    ids=["paper-report", "verify", "help", "help-unbuffered", "verify-help",
         "verify-help-unbuffered"],
)
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader before the child starts: every write fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "kpotent", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == (
        "error: broken pipe: stdout was closed before the output was written\n"
    )


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_bad_int_is_one_error_line(capsys):
    code, out, err = usage_error(
        capsys, "verify", "--field", "f5", "--params", "-1,-1",
        "--coords", "1,2,3,4", "--max-k", "x",
    )
    assert (code, out) == (1, "")
    assert err == "error: argument --max-k: invalid int value: 'x'\n"


def test_missing_field_is_one_error_line(capsys):
    code, out, err = usage_error(
        capsys, "verify", "--params", "-1,-1", "--coords", "1,2,3,4",
    )
    assert (code, out) == (1, "")
    assert err == "error: the following arguments are required: --field\n"


def test_unknown_subcommand_is_one_error_line(capsys):
    code, out, err = usage_error(capsys, "frobnicate")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")


def test_help_is_unchanged(capsys):
    code, out, err = usage_error(capsys, "verify", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: kpotent verify")
