"""Stable, versioned report on which classically quoted identities for the
representation maps actually hold, regime by regime.

One routine decides every law and block-form finding.  A suite names one
or more identifiers and one check that gives a verdict for each of them on
a case, a tuple of basis elements; it decides its identifiers together,
and each identifier's first counterexample, if any, is its finding's
detail.  A law is a suite of one identifier; the four octonion block forms
are one suite, decided by one ``block_check`` per element.  The regime
algebras are built once per report.  The report has no inputs and is
fully deterministic.  Disagreement with a quoted identity is recorded as
data (the whole point of the report), never raised.

Basis tuples decide every verdict: a law linear in each argument holds iff
it holds on them, and the tests prove the quadratic square, sandwich and
inverse laws for every regime from their polarized discrepancy polynomials
(``tests/helpers.py``).
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product

from .algebra import OctAlgebra, QuatAlgebra, cd_double_mul
from .fields import parse_field
from .represent import block_check, left_rep, right_rep

REPORT_VERSION = "1"

_QUAT_REGIMES = (
    ("f5", ("-1", "-1")),
    ("f5", ("2", "3")),
    ("f13", ("-1", "-1")),
    ("q", ("-1", "-1")),
    ("q", ("1", "1")),
    ("q", ("2", "3")),
    ("q[sqrt2]", ("-1", "-1")),
)

_OCT_REGIMES = (
    ("f5", ("-1", "-1", "-1")),
    ("f13", ("-1", "-1", "-1")),
    ("q", ("-1", "-1", "-1")),
    ("q", ("1", "1", "1")),
    ("q", ("2", "3", "6")),
    ("q[sqrt2]", ("-1", "-1", "-1")),
)


def _finding(ident: str, regime: str, verdict: str, detail: str) -> dict:
    # the key order is part of the report-v1 contract
    return {"id": ident, "regime": regime, "verdict": verdict, "detail": detail}


_KINDS = {
    "quat": ("H", QuatAlgebra, _QUAT_REGIMES),
    "oct": ("O", OctAlgebra, _OCT_REGIMES),
}


def _algebras(kind):
    letter, algebra_cls, regimes = _KINDS[kind]
    for field_str, params in regimes:
        field = parse_field(field_str)
        label = f"{letter}({','.join(params)})/{field_str}"
        yield label, algebra_cls(field, *(field.parse(t) for t in params))


def _cases(algebra, arity: int):
    """The tuples of `arity` elements a law is checked on: every tuple of
    basis elements."""
    return product(algebra.basis(), repeat=arity)


def _counterexample(case) -> str:
    return "counterexample " + " ".join(f"{name}={v}" for name, v in zip("xy", case))


def _suite_findings(suite, algebras):
    """Decide a suite in every regime of its kind: one `verdicts(*case)`
    per case gives a verdict per identifier, each identifier keeps its
    first failing case as the counterexample, and the walk stops once
    every identifier has failed."""
    kind, arity, idents, verdicts = suite
    for regime, alg in algebras[kind]:
        failed = {}
        for case in _cases(alg, arity):
            for ident, ok in zip(idents, verdicts(*case)):
                if not ok and ident not in failed:
                    failed[ident] = _counterexample(case)
            if len(failed) == len(idents):
                break
        for ident in idents:
            detail = failed.get(ident, "")
            yield _finding(ident, regime, "fails" if detail else "holds", detail)


def _law_suite(kind: str, arity: int, ident: str, check):
    """A suite of one identifier."""
    return kind, arity, (ident,), lambda *case: (check(*case),)


def _on_both_maps(law):
    """A law of `rep` that must hold for both the left and the right map."""
    return lambda *case: law(left_rep, *case) and law(right_rep, *case)


def _block_forms(x):
    checked = block_check(x)
    return (
        checked.left_classical_agrees,
        checked.right_classical_agrees,
        checked.left_parametric_agrees,
        checked.right_parametric_agrees,
    )


_CONJUGATE_TRANSPOSE = _on_both_maps(
    lambda rep, x: rep(x.conjugate()) == rep(x).transpose()
)

# every law and block-form suite, in report order
_SUITES = (
    _law_suite("quat", 2, "quat-left-map-multiplicative",
               lambda x, y: left_rep(x * y) == left_rep(x) * left_rep(y)),
    _law_suite("quat", 2, "quat-right-map-direct-order",
               lambda x, y: right_rep(x * y) == right_rep(x) * right_rep(y)),
    _law_suite("quat", 2, "quat-right-map-reversed-order",
               lambda x, y: right_rep(x * y) == right_rep(y) * right_rep(x)),
    _law_suite("quat", 1, "quat-conjugate-transpose-law", _CONJUGATE_TRANSPOSE),
    _law_suite("quat", 1, "quat-inverse-law",
               lambda x: x.norm().is_zero
               or left_rep(x) * left_rep(x.inverse()) == left_rep(x.algebra.one)),
    _law_suite("oct", 1, "oct-conjugate-transpose-law", _CONJUGATE_TRANSPOSE),
    _law_suite("oct", 1, "oct-square-law",
               _on_both_maps(lambda rep, x: rep(x * x) == rep(x) ** 2)),
    (
        "oct", 1,
        (
            "oct-left-block-form-classical",
            "oct-right-block-form-classical",
            "oct-left-block-form-parametric",
            "oct-right-block-form-parametric",
        ),
        _block_forms,
    ),
    _law_suite("oct", 2, "oct-sandwich-law",
               _on_both_maps(lambda rep, x, y:
                             rep(x * (y * x)) == rep(x) * rep(y) * rep(x))),
    _law_suite("oct", 2, "oct-table-vs-doubling",
               lambda x, y: x * y == cd_double_mul(x, y)),
)


def _erratum_findings(algebras):
    # the quoted norm of the F5 showcase element does not match the norm form
    x = dict(algebras["quat"])["H(-1,-1)/f5"].element((2, 3, 1, 3))
    computed = str(x.norm())
    verdict = "matches" if computed == "1" else "differs"
    yield _finding(
        ident="f5-showcase-norm-value",
        regime="H(-1,-1)/f5",
        verdict=verdict,
        detail=f"quoted norm 1, computed {computed} for element {x}",
    )
    # the doubled-basis diagonal entry that is normalized to the first
    # parameter: f1*f1 = a, cross-checked against the doubling product
    ok = True
    for _, oct_alg in algebras["oct"]:
        f1 = oct_alg.basis_element(1)
        ok = ok and (f1 * f1 == oct_alg.one.scale(oct_alg.a))
        ok = ok and (cd_double_mul(f1, f1) == f1 * f1)
    yield _finding(
        ident="oct-table-f1-square-normalization",
        regime="all octonion regimes",
        verdict="consistent" if ok else "inconsistent",
        detail="the ambiguous diagonal entry is read as f1*f1 = a; "
        "the doubling product confirms it",
    )


def discrepancy_report() -> dict:
    """Run every recorded-finding suite on the basis tuples; returns a
    JSON-ready dict, the report-v1 contract.

    ``tests/test_report.py::test_basis_and_random_evidence_agree`` replays
    seeded random tuples after the basis tuples and checks that they
    change no byte.
    """
    algebras = {kind: list(_algebras(kind)) for kind in _KINDS}
    findings = [f for suite in _SUITES for f in _suite_findings(suite, algebras)]
    findings += _erratum_findings(algebras)
    return {
        "version": REPORT_VERSION,
        "findings": findings,
    }


def render_text(report: dict) -> str:
    lines = [f"exact-identity report v{report['version']}"]
    for f in report["findings"]:
        line = f"[{f['verdict']:<10}] {f['id']:<36} {f['regime']}"
        if f["detail"]:
            line += f"  ({f['detail']})"
        lines.append(line)
    return "\n".join(lines)


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "regime", "verdict", "detail"])
    for f in report["findings"]:
        writer.writerow([f["id"], f["regime"], f["verdict"], f["detail"]])
    return buf.getvalue()


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2)
