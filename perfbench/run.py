"""kpotent benchmark: one workload, one seed, measured end to end or traced.

    python3 perfbench/run.py --workload census|elements|report --seed N \
        --seconds S --trace 0|1

With --trace 0 it times the workload with nothing installed and prints the
end-to-end metrics; with --trace 1 it runs round 0 of the workload untraced
and then traced, and prints the per-layer metrics.  Every workload runs in
child processes started one at a time (see worker.py), so no workload's
imports or heap leak into another's numbers.  Lines before the last are
for people; the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits nonzero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "search.exhaustive.self_s": "s",
    "search.exhaustive.elements": "count",
    "search.sample.self_s": "s",
    "search.sample.draws": "count",
    "search.sample.none_ratio": "ratio",
    "rng.below.calls": "count",
    "rng.below.self_s": "s",
    "potency.classify.calls": "count",
    "potency.classify.self_s": "s",
    "potency.classify.mul_per_call": "mul/call",
    "potency.classify.none_ratio": "ratio",
    "potency.generate.calls": "count",
    "potency.generate.self_s": "s",
    "algebra.mul.calls": "count",
    "algebra.mul.self_s": "s",
    "algebra.cd_mul.calls": "count",
    "represent.rep.calls": "count",
    "represent.rep.self_s": "s",
    "represent.matmul.calls": "count",
    "represent.matmul.self_s": "s",
    "represent.block_check.self_s": "s",
    "fields.parse.calls": "count",
    "fields.parse.self_s": "s",
    "fields.elem_ops": "count",
    "report.self_s": "s",
    "report.findings": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace_overhead": "x",
}


class BenchError(Exception):
    """The benchmark could not run the program."""


def child(mode: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values):
    """(percentile, value, samples beyond it) for the highest percentile with
    at least ten samples beyond it, by nearest rank; None if there is none."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50):
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return None


def rate(records, **where) -> float:
    picked = [r for r in records if all(r[k] == v for k, v in where.items())]
    seconds = sum(r["seconds"] for r in picked)
    return sum(r["work"] for r in picked) / seconds if seconds else 0.0


def workload_lines(workload: str, records) -> list:
    """(name, value, unit) rows of the workload-specific metrics for people."""
    rows = []
    if workload == "census":
        rows.append(("census_exhaustive_elems_per_s", rate(records, kind="exhaustive"), "1/s"))
        rows.append(("census_sample_draws_per_s", rate(records, kind="sample"), "1/s"))
    elif workload == "elements":
        for family in workloads.FAMILIES:
            rows.append((f"elements_{family}_per_s", rate(records, family=family), "1/s"))
        latencies = [r["seconds"] * 1000 for r in records]
        rows.append(("elements_p50_ms", statistics.median(latencies), "ms"))
        found = tail(latencies)
        if found is not None:
            q, value, beyond = found
            rows.append(("elements_tail_ms", value, f"ms (p{q:g}, {beyond} of "
                         f"{len(latencies)} samples beyond)"))
        seen, repeats = set(), 0
        for r in records:
            repeats += r["algebra"] in seen
            seen.add(r["algebra"])
        rows.append(("elements_repeat_algebra_share", repeats / len(records), "ratio"))
    else:
        rows.append(("report_s", statistics.median(r["seconds"] for r in records), "s"))
    return rows


def measure(workload: str, seed: int, seconds: float):
    """Repeat set-up probes and passes over the same requests for `seconds`.

    Each request's time is its fastest over the passes; `setup_s` is the
    median of every set-up sample (two per pass).  Both are then scaled by
    worker.PROBE_NOMINAL_S over the fastest probe time of the run, so they
    read as at a fixed machine speed; see NOTES.md for why.
    """
    reqs = workloads.pass_requests(workload, seed)
    child("setup", workload, seed)  # warm-up: bytecode caches
    setups, rss, probes, passes = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for result in (child("setup", workload, seed), child("pass", workload, seed)):
            setups.append(result["setup_s"])
            probes.append(result["probe_s"])
        rss.append(result["peak_rss_mb"])
        passes.append(result["records"])
    scale = worker.PROBE_NOMINAL_S / min(probes)
    records = [
        {"kind": req.kind, "family": req.family, "algebra": req.algebra, "work": req.work,
         "seconds": min(p[i][0] for p in passes) * scale}
        for i, req in enumerate(reqs)
    ]
    reasons = [(req, p[i][1]) for p in passes for i, req in enumerate(reqs) if p[i][1]]
    attempted = len(reqs) * len(passes)
    failed = len(reasons)
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "work_per_s": rate(records),
        "p50_ms": statistics.median(r["seconds"] for r in records) * 1000,
        "peak_rss_mb": max(rss),
    }
    lines = [("setup_s", metrics["setup_s"], f"s (median of {len(setups)})"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
             ("fail_ratio", failed / attempted, "ratio")]
    lines += workload_lines(workload, records)
    lines += [("work_per_s", metrics["work_per_s"], "1/s"),
              ("p50_ms", metrics["p50_ms"], "ms"),
              ("speed_scale", scale, f"x (probe nominal {worker.PROBE_NOMINAL_S * 1000:g} ms, "
               f"fastest seen {min(probes) * 1000:.4g} ms)"),
              ("passes", len(passes), f"count (of {len(reqs)} requests each)")]
    failures = [{"argv": list(req.argv), "reason": reason} for req, reason in reasons[:5]]
    return attempted, failed, failures, metrics, END_TO_END_UNITS, lines


def traced(workload: str, seed: int, seconds: float):
    result = child("trace", workload, seed)
    metrics = result["metrics"]
    lines = [(name, metrics[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS]
    lines.append(("spans", result["spans"], f"count (in {result['span_file']})"))
    return (result["attempted"], result["failed"], result["failures"], metrics,
            PER_LAYER_UNITS, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kpotent", "__init__.py")):
        print(f"error: no kpotent sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run_fn = traced if args.trace else measure
    try:
        attempted, failed, failures, metrics, units, lines = run_fn(
            args.workload, args.seed, args.seconds)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value, unit in lines:
        print(f"{name} {value:.6g} {unit}")
    for failure in failures:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
