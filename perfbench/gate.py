"""Correctness gate: checks every request's output outside the timed region.

A request passes when the CLI exited 0 with nothing on stderr and its
output is right by a route that does not repeat the code under test:

- census rows must add up to p^dim (exhaustive) or to the budget (sample),
  and each row's lex-min sample, re-classified by the element-level
  ``potency.classify``, must land in its own row;
- generated and constructed elements must get their known kind and index;
  every ``*_transport`` of a potent or nilpotent element must be true;
- representation matrices must match the products x*f_j (left) and f_j*x
  (right) column by column, computed by algebra multiplication;
- the report must equal the frozen report-v1 output byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os

REPORT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_v1.json")


class GateError(Exception):
    """An output failed its check; the message says which and why."""


class Gate:
    """Checks outputs; caches the algebras it rebuilds and the golden report."""

    def __init__(self):
        with open(REPORT_GOLDEN, encoding="utf-8") as fh:
            self.golden_report = fh.read()
        self._algebras = {}

    def check(self, req, rc, out: str, err: str) -> None:
        """Raise GateError unless the request's output is correct."""
        if rc != 0:
            raise GateError(f"exit code {rc}: {err.strip()[:200]}")
        if err:
            raise GateError(f"unexpected stderr: {err.strip()[:200]}")
        if req.kind in ("exhaustive", "sample"):
            self.check_census(req, out)
        elif req.kind == "report":
            if out != self.golden_report:
                raise GateError("report differs from the report-v1 contract")
        elif req.kind == "verify":
            self._check_verify(req, _envelope(out))
        elif req.kind == "rep":
            self._check_rep(req, out)
        elif req.kind == "generate":
            self._check_generate(req, _envelope(out))
        else:
            raise GateError(f"unknown request kind {req.kind!r}")

    # -- census -------------------------------------------------------

    def check_census(self, req, out: str) -> None:
        from kpotent import classify

        reader = csv.reader(io.StringIO(out))
        if next(reader, None) != ["kind", "index", "count", "sample"]:
            raise GateError("census CSV header is wrong")
        algebra = self.algebra(req.algebra)
        total, seen = 0, set()
        for kind, index, count, sample in reader:
            key = (kind, int(index))
            if key in seen:
                raise GateError(f"census row {key} appears twice")
            seen.add(key)
            total += int(count)
            coords = tuple(int(c) for c in sample.split(","))
            got = classify(algebra.element(coords))
            if (got.kind, got.index) != key:
                raise GateError(
                    f"sample {sample} of row {key} classifies as {(got.kind, got.index)}")
        expected = req.work
        if total != expected:
            raise GateError(f"census counts sum to {total}, expected {expected}")

    # -- elements -----------------------------------------------------

    def _check_verify(self, req, result: dict) -> None:
        kind, index = result["kind"], result["index"]
        target = req.expect.get("target")
        if target is not None and (kind, index) != tuple(target):
            raise GateError(f"classified as {(kind, index)}, expected {tuple(target)}")
        if kind not in ("k-potent", "nilpotent", "none"):
            raise GateError(f"unknown kind {kind!r}")
        mats = result["matrices"]
        for side in ("left", "right"):
            transport = mats[f"{side}_transport"]
            if transport is not (None if kind == "none" else True):
                raise GateError(f"{side}_transport is {transport} for kind {kind}")
            self._check_matrix(req, side, mats[side])

    def _check_rep(self, req, out: str) -> None:
        if req.expect["format"] == "json":
            rows = _envelope(out)["matrix"]
        else:
            rows = [line.split(",") for line in out.splitlines()]
        self._check_matrix(req, req.expect["side"], rows)

    def _check_generate(self, req, result: dict) -> None:
        got = (result["kind"], result["index"])
        if got != tuple(req.expect["target"]):
            raise GateError(f"generated a {got}, expected {tuple(req.expect['target'])}")
        if len(result["element"].split(",")) != self.algebra(req.algebra).dim:
            raise GateError("generated element has the wrong number of coordinates")

    def _check_matrix(self, req, side: str, rows) -> None:
        algebra = self.algebra(req.algebra)
        x = algebra.parse_element(req.expect["coords"])
        columns = [
            (x * e if side == "left" else e * x).coords for e in algebra.basis()
        ]
        expected = [[str(col[i]) for col in columns] for i in range(algebra.dim)]
        if [list(r) for r in rows] != expected:
            raise GateError(f"{side} matrix disagrees with algebra multiplication")

    def algebra(self, key: str):
        """Build (once) the algebra behind a request's "field|kind|params" key."""
        alg = self._algebras.get(key)
        if alg is None:
            from kpotent import OctAlgebra, QuatAlgebra, parse_field

            token, kind, params = key.split("|")
            field = parse_field(token)
            values = [field.parse(t) for t in params.split(",")]
            alg = (QuatAlgebra if kind == "quat" else OctAlgebra)(field, *values)
            self._algebras[key] = alg
        return alg


def _envelope(out: str) -> dict:
    try:
        data = json.loads(out)
    except json.JSONDecodeError as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    if data.get("ok") is not True:
        raise GateError("JSON envelope is not ok")
    return data["result"]
