import hashlib
import json
from pathlib import Path

import pytest

from kpotent import REPORT_VERSION, discrepancy_report
from kpotent.report import render_csv, render_json, render_text

FROZEN = Path(__file__).resolve().parent.parent / "perfbench" / "report_v1.json"


@pytest.fixture(scope="module")
def report():
    return discrepancy_report()


def verdicts(rep):
    return {(f["id"], f["regime"]): f["verdict"] for f in rep["findings"]}


def test_report_is_versioned(report):
    assert report["version"] == REPORT_VERSION


def test_report_stable_across_runs(report):
    assert discrepancy_report() == report


def test_basis_and_random_evidence_agree(report):
    basis = discrepancy_report("basis")
    rand = discrepancy_report("random")
    key = lambda rep: [(f["id"], f["regime"], f["verdict"]) for f in rep["findings"]]
    assert key(basis) == key(rand) == [
        (f["id"], f["regime"], f["verdict"]) for f in report["findings"]
    ]
    # each route's counterexamples and details are pinned too: the basis
    # route finds the same first counterexamples as "both", and the random
    # route's bytes are pinned by their SHA-256
    assert (render_json(basis) + "\n").encode() == FROZEN.read_bytes()
    assert hashlib.sha256((render_json(rand) + "\n").encode()).hexdigest() == (
        "12e95e781848132ceaea8b3b224e8b2ad5566d1b9f296cd6bf62ac1edb74ce31"
    )


def test_left_map_multiplicative_everywhere(report):
    v = verdicts(report)
    for (ident, regime), verdict in v.items():
        if ident == "quat-left-map-multiplicative":
            assert verdict == "holds", regime


def test_right_map_order_is_reversed(report):
    v = verdicts(report)
    directs = [x for (i, _), x in v.items() if i == "quat-right-map-direct-order"]
    reverses = [x for (i, _), x in v.items() if i == "quat-right-map-reversed-order"]
    assert directs and set(directs) == {"fails"}
    assert reverses and set(reverses) == {"holds"}


def test_transpose_law_scope(report):
    v = verdicts(report)
    for (ident, regime), verdict in v.items():
        if ident in ("quat-conjugate-transpose-law", "oct-conjugate-transpose-law"):
            all_minus_one = "(-1,-1" in regime
            assert verdict == ("holds" if all_minus_one else "fails"), regime


def test_inverse_law_holds_everywhere(report):
    v = verdicts(report)
    for (ident, regime), verdict in v.items():
        if ident == "quat-inverse-law":
            assert verdict == "holds", regime


def test_block_form_scopes(report):
    v = verdicts(report)
    for (ident, regime), verdict in v.items():
        if ident == "oct-left-block-form-classical":
            assert verdict == ("holds" if "-1)" in regime else "fails"), regime
        elif ident == "oct-right-block-form-classical":
            assert verdict == "fails", regime
        elif ident.endswith("parametric"):
            assert verdict == "holds", regime


def test_sandwich_square_doubling_hold(report):
    v = verdicts(report)
    for (ident, regime), verdict in v.items():
        if ident in ("oct-sandwich-law", "oct-square-law", "oct-table-vs-doubling"):
            assert verdict == "holds", (ident, regime)


def test_showcase_norm_erratum(report):
    rows = [f for f in report["findings"] if f["id"] == "f5-showcase-norm-value"]
    assert len(rows) == 1
    assert rows[0]["verdict"] == "differs"
    assert "computed 3" in rows[0]["detail"]


def test_diagonal_normalization_consistent(report):
    rows = [f for f in report["findings"] if f["id"] == "oct-table-f1-square-normalization"]
    assert rows and rows[0]["verdict"] == "consistent"


def test_renderers(report):
    text = render_text(report)
    assert text.splitlines()[0] == f"exact-identity report v{REPORT_VERSION}"
    assert "quat-left-map-multiplicative" in text
    data = json.loads(render_json(report))
    assert data == report
    csv_text = render_csv(report)
    assert csv_text.splitlines()[0] == "id,regime,verdict,detail"
    assert len(csv_text.splitlines()) == len(report["findings"]) + 1


def test_json_matches_frozen_report_v1(report):
    # the benchmark's frozen copy of report v1: every verdict, first
    # counterexample and detail string, byte for byte
    assert (render_json(report) + "\n").encode() == FROZEN.read_bytes()


def test_bad_evidence_route_rejected():
    with pytest.raises(ValueError):
        discrepancy_report("guess")
