"""Span tracer that the benchmark installs around the program's public
callables, from outside the program: every wrapper lives here and is put
in the namespace the caller looks the callable up in (``kpotent.cli.classify``,
``kpotent.report.left_rep``, ``SquareMatrix.__mul__``, ``SplitMix64.below``).

A span is (name, start, end, parent span, request id).  Spans are kept in
memory in flat arrays and written out once, at the end.  A layer's self
time is the sum over its spans of duration minus the duration of their
direct child spans; calls are the number of spans.  Counters are bumped at
the same wrappers.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

FIELD_ELEMENT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts = defaultdict(int)
        self.request_id = 0
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `after(args, result)` runs once the span has ended, to bump counters.
        """
        fn = getattr(owner, attr)
        name_id = self._name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of owner.attr under `key`, without a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, owned, original = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading the spans ------------------------------------------------

    def layers(self) -> tuple:
        """(calls by span name, self time in ns by span name)."""
        n = len(self.name)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            self_ns[nm] += self.end[i] - self.start[i] - child_ns[i]
        return calls, self_ns

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        want, top = self._name_ids[name], self._name_ids[ancestor]
        under = bytearray(len(self.name))  # parents precede their children
        total = 0
        for i, nm in enumerate(self.name):
            p = self.parent[i]
            under[i] = nm == top or (p >= 0 and under[p])
            if nm == want and p >= 0 and under[p]:
                total += 1
        return total

    def write(self, path: str) -> None:
        """Write every span as CSV: id,name,start_ns,end_ns,parent,request."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0},"
                         f"{self.end[i] - t0},{self.parent[i]},{self.request[i]}\n")


def install(tracer: Tracer, kpotent) -> None:
    """Wrap the public callables of every kpotent module, where they are
    looked up by their callers."""
    cli, report = kpotent.cli, kpotent.report
    counts = tracer.counts

    def after_classify(args, result):
        counts["potency.classify.none"] += result.kind == "none"

    def after_census(key):
        def hook(args, rows):
            counts[key] += sum(r.count for r in rows)
            counts[key + ".none"] += sum(r.count for r in rows if r.kind == "none")
        return hook

    def after_report(args, result):
        counts["report.findings"] += len(result["findings"])

    tracer.span(cli, "main", "cli")
    for module in (cli, report):
        tracer.span(module, "parse_field", "fields.parse")
        tracer.span(module, "left_rep", "represent.rep")
        tracer.span(module, "right_rep", "represent.rep")
    tracer.span(kpotent.fields.Field, "parse", "fields.parse")
    for op in FIELD_ELEMENT_OPS:
        tracer.count(kpotent.FieldElement, op, "fields.elem_ops")
    tracer.span(kpotent.algebra.AlgebraElement, "__mul__", "algebra.mul")
    tracer.count(report, "cd_double_mul", "algebra.cd_mul.calls")
    tracer.span(kpotent.SquareMatrix, "__mul__", "represent.matmul")
    tracer.span(kpotent.SquareMatrix, "__matmul__", "represent.matmul")
    tracer.span(report, "block_check", "represent.block_check")
    tracer.span(cli, "classify", "potency.classify", after_classify)
    tracer.span(cli, "split_generate", "potency.generate")
    tracer.span(cli, "rotor_generate", "potency.generate")
    tracer.span(cli, "search_exhaustive", "search.exhaustive",
                after_census("search.exhaustive.elements"))
    tracer.span(cli, "search_sample", "search.sample", after_census("search.sample.draws"))
    tracer.span(kpotent.SplitMix64, "below", "rng.below")
    tracer.span(cli, "discrepancy_report", "report", after_report)


def layer_metrics(tracer: Tracer, scale: float) -> dict:
    """The per-layer metrics, by name, as plain numbers; self times are
    multiplied by `scale`."""
    calls, self_ns = tracer.layers()
    c = tracer.counts

    def s(name):
        return self_ns.get(name, 0) / 1e9 * scale

    def ratio(num, den):
        return num / den if den else 0.0

    classify_calls = calls.get("potency.classify", 0)
    draws = c["search.sample.draws"]
    return {
        "search.exhaustive.self_s": s("search.exhaustive"),
        "search.exhaustive.elements": c["search.exhaustive.elements"],
        "search.sample.self_s": s("search.sample"),
        "search.sample.draws": draws,
        "search.sample.none_ratio": ratio(c["search.sample.draws.none"], draws),
        "rng.below.calls": calls.get("rng.below", 0),
        "rng.below.self_s": s("rng.below"),
        "potency.classify.calls": classify_calls,
        "potency.classify.self_s": s("potency.classify"),
        "potency.classify.mul_per_call": ratio(
            tracer.calls_under("algebra.mul", "potency.classify"), classify_calls),
        "potency.classify.none_ratio": ratio(c["potency.classify.none"], classify_calls),
        "potency.generate.calls": calls.get("potency.generate", 0),
        "potency.generate.self_s": s("potency.generate"),
        "algebra.mul.calls": calls.get("algebra.mul", 0),
        "algebra.mul.self_s": s("algebra.mul"),
        "algebra.cd_mul.calls": c["algebra.cd_mul.calls"],
        "represent.rep.calls": calls.get("represent.rep", 0),
        "represent.rep.self_s": s("represent.rep"),
        "represent.matmul.calls": calls.get("represent.matmul", 0),
        "represent.matmul.self_s": s("represent.matmul"),
        "represent.block_check.self_s": s("represent.block_check"),
        "fields.parse.calls": calls.get("fields.parse", 0),
        "fields.parse.self_s": s("fields.parse"),
        "fields.elem_ops": c["fields.elem_ops"],
        "report.self_s": s("report"),
        "report.findings": c["report.findings"],
        "cli.calls": calls.get("cli", 0),
        "cli.self_s": s("cli"),
    }
