"""Command-line surface: verify elements, emit representation matrices,
generate potent elements, run censuses, and print the identity report.

Every run is deterministic given its flags (including --seed).  Errors,
argparse's usage errors included, are a single machine-parsable
``error: ...`` line on stderr with exit code 1, a closed stdout included.
``--format json`` wraps each result in an ``{"ok": true, "result": ...}``
envelope for scripting, except ``paper-report``, which prints the bare
report-v1 object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algebra import OctAlgebra, QuatAlgebra
from .fields import ParseError, parse_field
from .potency import (
    DEFAULT_MAX_K,
    classify,
    rotor_generate,
    split_generate,
)
from .report import discrepancy_report, render_csv, render_json, render_text
from .represent import left_rep, right_rep
from .search import census_to_csv, search_exhaustive, search_sample

_REP_TOKENS = {
    "left": ("any", "left"),
    "right": ("any", "right"),
    "phi": ("quat", "left"),
    "rho": ("quat", "right"),
    "Phi": ("oct", "left"),
    "Psi": ("oct", "right"),
}


def _build_algebra(args):
    field = parse_field(args.field)
    params = [field.parse(tok) for tok in args.params.split(",")]
    if args.algebra == "quat":
        if len(params) != 2:
            raise ParseError("quaternion algebras take two parameters a,b")
        return QuatAlgebra(field, *params)
    if len(params) != 3:
        raise ParseError("octonion algebras take three parameters a,b,c")
    return OctAlgebra(field, *params)


def _emit_json(payload) -> None:
    print(json.dumps({"ok": True, "result": payload}))


def _matrix_payload(x, report):
    maps = (("left", left_rep), ("right", right_rep))
    out = {}
    for name, rep_fn in maps:
        m = rep_fn(x)
        out[name] = m.to_lists()
        if report.kind == "k-potent":
            out[f"{name}_transport"] = (m ** (report.index - 1)) * m == m
        elif report.kind == "nilpotent":
            out[f"{name}_transport"] = (m ** report.index).is_zero
        else:
            out[f"{name}_transport"] = None
    return out


def _cmd_verify(args) -> int:
    algebra = _build_algebra(args)
    x = algebra.parse_element(args.coords)
    report = classify(x, args.max_k)
    payload = report.as_dict()
    if args.matrices:
        payload["matrices"] = _matrix_payload(x, report)
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        print("kind,index,trace,norm")
        print(f"{report.kind},{report.index},{report.trace},{report.norm}")
    else:
        for key in ("kind", "index", "trace", "norm"):
            print(f"{key}: {payload[key]}")
        if args.matrices:
            mats = payload["matrices"]
            for name in ("left", "right"):
                print(f"{name} representation ({algebra.dim}x{algebra.dim}):")
                for row in mats[name]:
                    print(",".join(row))
                transport = mats[f"{name}_transport"]
                state = "n/a" if transport is None else ("ok" if transport else "FAILED")
                print(f"{name} potency transport: {state}")
    return 0


def _cmd_rep(args) -> int:
    algebra = _build_algebra(args)
    wanted_kind, side = _REP_TOKENS[args.rep]
    actual_kind = "quat" if isinstance(algebra, QuatAlgebra) else "oct"
    if wanted_kind not in ("any", actual_kind):
        raise ParseError(
            f"representation {args.rep!r} applies to {wanted_kind} algebras, "
            f"got --algebra {actual_kind}"
        )
    x = algebra.parse_element(args.coords)
    m = left_rep(x) if side == "left" else right_rep(x)
    if args.format == "json":
        _emit_json({"rep": args.rep, "matrix": m.to_lists()})
    else:
        print(m.to_csv())
    return 0


def _cmd_generate(args) -> int:
    rotor = args.kind == "rotor"
    if rotor and args.algebra != "quat":
        raise ParseError(
            f"rotor generation applies to quat algebras, got --algebra {args.algebra}"
        )
    algebra = _build_algebra(args)
    if rotor and args.k is None:
        raise ParseError("rotor generation needs --k")
    direction = [algebra.field.parse(tok) for tok in args.direction.split(",")]
    if rotor:
        element = rotor_generate(args.k, direction, algebra)
    else:
        element = split_generate(args.kind, algebra, direction)
    report = classify(element, args.max_k)
    if args.format == "json":
        payload = {"element": str(element)}
        payload.update(report.as_dict())
        _emit_json(payload)
    elif args.format == "csv":
        print(str(element))
    else:
        print(f"element: {element}")
        print(f"kind: {report.kind}")
        print(f"index: {report.index}")
    return 0


def _cmd_search(args) -> int:
    algebra = _build_algebra(args)
    if args.mode == "exhaustive":
        rows = search_exhaustive(algebra, args.max_k)
    else:
        if args.budget is None:
            raise ParseError("sampling mode needs --budget")
        rows = search_sample(algebra, args.budget, args.seed, args.max_k)
    if args.format == "json":
        _emit_json({"mode": args.mode, "rows": [r.as_dict() for r in rows]})
    elif args.format == "csv":
        print(census_to_csv(rows), end="")
    else:
        print(f"{'kind':<10} {'index':>5} {'count':>10}  sample")
        for r in rows:
            d = r.as_dict()
            print(f"{d['kind']:<10} {d['index']:>5} {d['count']:>10}  {d['sample']}")
    return 0


def _cmd_paper_report(args) -> int:
    report = discrepancy_report()
    if args.format == "json":
        print(render_json(report))
    elif args.format == "csv":
        print(render_csv(report), end="")
    else:
        print(render_text(report))
    return 0


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )


def _add_algebra_flags(parser, params_default=None) -> None:
    parser.add_argument("--field", required=True,
                        help="coefficient field: f<p>, q or q[sqrt<d>]")
    parser.add_argument("--algebra", choices=("quat", "oct"), default="quat",
                        help="algebra kind (default: quat)")
    params_help = "algebra parameters a,b or a,b,c"
    if params_default is not None:
        params_help += f" (default: {params_default})"
    parser.add_argument("--params", required=params_default is None,
                        default=params_default, help=params_help)


class _Parser(argparse.ArgumentParser):
    # let values like "-1,-1" or "-1/2,1,..." follow --params/--coords/
    # --direction without being mistaken for option names
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        # usage errors keep the one-line contract too (subparsers inherit it)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kpotent",
        description="Exact quaternion/octonion algebras, their matrix "
        "representations, and k-potent element machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="classify an element and optionally "
                       "print its representation matrices")
    _add_algebra_flags(p)
    p.add_argument("--coords", required=True, help="comma-separated coordinates")
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K, dest="max_k")
    p.add_argument("--matrices", action="store_true",
                   help="also print both representation matrices and the "
                   "matrix-level potency check")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rep", help="print one representation matrix")
    _add_algebra_flags(p)
    p.add_argument("--coords", required=True)
    p.add_argument("--rep", required=True, choices=sorted(_REP_TOKENS),
                   help="left/right, or the aliases phi/rho (4x4) and Phi/Psi (8x8)")
    _add_format(p)
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("generate", help="construct a k-potent, idempotent, "
                       "tripotent or nilpotent element")
    p.add_argument("kind", choices=("rotor", "idempotent", "tripotent", "nilpotent"))
    _add_algebra_flags(p, params_default="-1,-1")
    p.add_argument("--k", type=int, default=None, help="target potency index (rotor)")
    p.add_argument("--direction", required=True,
                   help="pure-part direction coordinates")
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K, dest="max_k")
    _add_format(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("search", help="census of potency classes over Z/p")
    _add_algebra_flags(p)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--budget", type=int, default=None, help="draws in sampling mode")
    p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K, dest="max_k")
    _add_format(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("paper-report", help="report which classically quoted "
                       "identities hold in which parameter regimes")
    _add_format(p)
    p.set_defaults(func=_cmd_paper_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush here rather than at exit, so that a closed stdout lands below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, or the
        # flush at exit would fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: broken pipe: stdout was closed before the output was written",
              file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
