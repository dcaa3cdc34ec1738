"""Grammar fuzz of the command line: every argv built from the subcommands'
flags, with valid, malformed and out-of-range tokens, must either succeed
(exit 0, nothing on stderr) or fail with exactly one ``error: ...`` line on
stderr and exit code 1, never a traceback.

An argv starts from a coherent request (a field, an algebra of that field,
coordinates in its scalar grammar) and then has flags dropped, values
swapped for malformed or out-of-range tokens, and stray tokens inserted, so
both the success paths and every error path are reached.  Sizes stay
small: fields up to F13 (plus one prime near 2^20, beyond the square-root
cap), max_k <= 64 and sampling budgets <= 200.
"""

import contextlib
import io
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpotent import cli

FIELDS = ("f3", "f5", "f7", "f13", "f1048573", "q", "q[sqrt2]", "q[sqrt3]")
# scalar literals of each family, zero included
SCALARS = {
    "f": ("0", "1", "2", "-1", "-3", "12", "100"),
    "q": ("0", "1", "-1", "2", "1/2", "-3/4", "5"),
    "s": ("0", "1", "-1", "s", "-s", "1+s", "3+2s", "1/2-1/3s", "2s"),
}
BAD = {
    "--field": ("f4", "f2", "f1", "f0", "f-5", "F5", "q[sqrt4]", "q[sqrt0]",
                "q[sqrt1]", "x", "", "f" + "9" * 30,
                "f18446744073709551557", "f18446744073709551629"),
    "--algebra": ("sed", "", "QUAT"),
    "--params": ("0,1", "1/0,1", "a,b", "", ",", "1,2,3,4", "-1", "1,,1", "s,s"),
    "--coords": ("1,2,3", "x,1,2,3", "1/0,0,0,0", "", "1,,2,3", "1,2,3,4,5",
                 "1/2s/3,0,0,0", "--1,0,0,0"),
    "--direction": ("0,0,0", "1,1", "x,1,1", "1/0,1,1", "", "0,0,0,0,0,0,0"),
    "--max-k": ("1", "0", "-5", "x", "", "1e3", "64.0", "0x10"),
    "--k": ("2", "6", "-1", "1000", "x", ""),
    "--budget": ("0", "-1", "x", "", "1.5"),
    "--seed": ("-1", "18446744073709551616", "-18446744073709551617", "x", ""),
    "--mode": ("all", "", "Sample"),
    "--rep": ("psi", "", "up"),
    "--format": ("xml", "", "JSON"),
}
STRAYS = ("--bogus", "extra", "-x", "--max-k", "--field", "--", "-1", "--help")


def _family(field):
    return "f" if field.startswith("f") else "q" if field == "q" else "s"


def _scalars(field, n):
    return st.lists(st.sampled_from(SCALARS[_family(field)]), min_size=n, max_size=n).map(
        ",".join
    )


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ("verify", "rep", "generate", "search", "paper-report", "frobnicate")
    ))
    field = draw(st.sampled_from(FIELDS))
    algebra = draw(st.sampled_from(("quat", "oct")))
    dim = 4 if algebra == "quat" else 8
    n_params = 2 if algebra == "quat" else 3
    params = draw(st.one_of(
        st.just(",".join(["-1"] * n_params)), _scalars(field, n_params)
    ))
    flags = {"--field": field, "--algebra": algebra, "--params": params}
    positional = []
    if command == "verify":
        flags["--coords"] = draw(_scalars(field, dim))
        flags["--max-k"] = str(draw(st.integers(2, 64)))
        if draw(st.booleans()):
            flags["--matrices"] = None
    elif command == "rep":
        flags["--coords"] = draw(_scalars(field, dim))
        flags["--rep"] = draw(st.sampled_from(
            ("left", "right") + (("phi", "rho") if dim == 4 else ("Phi", "Psi"))
        ))
    elif command == "generate":
        kind = draw(st.sampled_from(("rotor", "idempotent", "tripotent", "nilpotent")))
        positional = [kind] if draw(st.integers(0, 9)) else ["cubic"]
        if kind == "rotor":
            flags["--algebra"], dim = "quat", 4
            flags["--params"] = "-1,-1"
            flags["--k"] = draw(st.sampled_from(("3", "4", "5", "7")))
        flags["--direction"] = draw(_scalars(field, dim - 1))
        flags["--max-k"] = str(draw(st.integers(2, 64)))
    elif command == "search":
        flags["--mode"] = draw(st.sampled_from(("exhaustive", "sample")))
        flags["--budget"] = str(draw(st.integers(1, 200)))
        flags["--seed"] = str(draw(st.integers(0, 2**64 - 1)))
        flags["--max-k"] = str(draw(st.integers(2, 64)))
    elif command == "paper-report":
        flags = {}
    flags["--format"] = draw(st.sampled_from(("text", "json", "csv")))

    argv = [command] + positional
    for flag, value in flags.items():
        roll = draw(st.integers(0, 11))
        if roll == 0:      # leave the flag out
            continue
        if roll == 1 and flag in BAD:
            value = draw(st.sampled_from(BAD[flag]))
        argv.append(flag)
        if value is not None:
            argv.append(value)
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRAYS)))
    return argv


_REPORT = {}
_discrepancy_report = cli.discrepancy_report


def _cached_report():
    # the report's content is not under test here, only the grammar around it
    if not _REPORT:
        _REPORT["v"] = _discrepancy_report()
    return _REPORT["v"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "discrepancy_report", _cached_report):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_exits_cleanly(argv):
    code, out, err = run_cli(argv)
    if code in (0, None):
        assert err == "", (argv, err)
    else:
        assert code == 1, (argv, code, err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert err.endswith("\n") and out == "", (argv, out)
