"""The identity report: which classically quoted representation laws hold
in which parameter regimes.

The report is deterministic and versioned; each finding is decided on
every tuple of basis elements (the test suite proves the verdicts of the
laws that are not block forms for every parameter).  The same report backs
the ``kpotent paper-report`` subcommand.
"""

from kpotent import discrepancy_report
from kpotent.report import render_text

report = discrepancy_report()
print(render_text(report))

print("\nhighlights:")
by_id = {}
for finding in report["findings"]:
    by_id.setdefault(finding["id"], []).append(finding)

for ident in (
    "quat-right-map-direct-order",
    "quat-conjugate-transpose-law",
    "oct-left-block-form-classical",
    "f5-showcase-norm-value",
):
    rows = by_id[ident]
    verdicts = {f["verdict"] for f in rows}
    print(f"  {ident}: {sorted(verdicts)} across {len(rows)} regime(s)")
