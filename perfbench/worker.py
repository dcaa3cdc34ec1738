"""One workload in one fresh interpreter; run.py starts it, one at a time.

Modes:
  setup  import kpotent and build the workload's algebras; print the time.
  pass   set up, then send each request of the workload's pass list once
         through ``kpotent.cli.main(argv)`` in-process (closed loop, one
         client, one thread); gate every output outside the timed region;
         print each request's time and verdict.
  trace  run round 0 twice untraced (warm-up, then timed), then once with
         spans installed; print the per-layer metrics, scaled to the probe
         speed like run.py's times, and write the spans to .perfbench_out/.

The last stdout line is one JSON object; nothing else goes to stdout,
because the program's own output is captured per request.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PIN_EVERY_S = 0.25
TICK_S = 0.05
PROBE_ITERATIONS = 4000
TICK_PROBE_ITERATIONS = 600
# probe(PROBE_ITERATIONS) in the fast state of a shared 2-vCPU x86 VM;
# times are reported as if the machine ran at that speed
PROBE_NOMINAL_S = 0.0015

sys.path.insert(0, HERE)
import gate as gate_mod  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import kpotent from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import kpotent
    import kpotent.cli  # noqa: F401  (the entry point the requests go through)

    if not os.path.abspath(kpotent.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kpotent imported from {kpotent.__file__}, not from {SRC}")
    return kpotent


class Pinner:
    """Keeps this process on whichever allowed CPU runs a probe loop fastest
    right now, and remembers the fastest probe it has seen.

    On a shared host each CPU of a small VM flips between a fast state and
    one about 1.7x slower every second or so, independently of the other,
    and for minutes at a time both can stay slow.  Moving to the faster CPU
    before each request (at most every PIN_EVERY_S) and, inside a request,
    on a SIGALRM tick every TICK_S, cuts the first kind of noise; the time
    spent in ticks is left out of the request's time.  The fastest probe
    lets run.py scale away the second kind.  Only this process's own
    affinity and its SIGALRM handler change; the program is untouched.
    """

    def __init__(self):
        can_pin = hasattr(os, "sched_setaffinity")
        self.cpus = sorted(os.sched_getaffinity(0)) if can_pin else []
        self.last = None
        self.fastest = float("inf")
        self.overhead = 0.0

    def _move_to_fastest(self, iterations: int, repeats: int) -> float:
        timings = []
        for cpu in self.cpus or [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            timings.append((min(probe(iterations) for _ in range(repeats)), cpu))
        best, cpu = min(timings, key=lambda t: t[0])
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        return best

    def maybe_pin(self) -> None:
        now = time.perf_counter()
        if self.last is not None and now - self.last < PIN_EVERY_S:
            return
        self.fastest = min(self.fastest, self._move_to_fastest(PROBE_ITERATIONS, 2))
        self.last = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._move_to_fastest(TICK_PROBE_ITERATIONS, 1)
        self.overhead += time.perf_counter() - t0

    @contextlib.contextmanager
    def chasing(self):
        """Re-pin on a timer while the body runs (when there is a choice)."""
        if len(self.cpus) < 2 or not hasattr(signal, "setitimer"):
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def probe(iterations: int) -> float:
    """Seconds for a fixed piece of interpreter work like the program's own:
    small ints, tuples, a dict and a few fixed-size fractions."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(iterations):
        key = (i * 7) % 61
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + len(table) + key) % 1000003
        if i % 64 == 0:
            q = Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, 7) + Fraction(1, i % 5 + 2)
            acc += q.numerator % 11
    return time.perf_counter() - t0


def setup(workload: str, seed: int, pinner: Pinner):
    """Time a fresh import of kpotent plus building the workload's algebras."""
    specs = workloads.setup_algebras(workload, seed)
    pinner.maybe_pin()
    t0 = time.perf_counter()
    kpotent = import_program()
    for token, kind, params in specs:
        field = kpotent.parse_field(token)
        values = [field.parse(t) for t in params.split(",")]
        (kpotent.QuatAlgebra if kind == "quat" else kpotent.OctAlgebra)(field, *values)
    return time.perf_counter() - t0, kpotent


def call(cli, argv, pinner: Pinner):
    """One CLI request in-process; returns (rc, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pinner.chasing():
        ticks = pinner.overhead
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
        elapsed = time.perf_counter() - t0 - (pinner.overhead - ticks)
    return rc, out.getvalue(), err.getvalue(), elapsed


def send_all(cli, reqs, pinner: Pinner, tracer=None) -> list:
    """Send every request once; returns (req, rc, stdout, stderr, seconds)."""
    outputs = []
    for i, req in enumerate(reqs):
        pinner.maybe_pin()
        if tracer is not None:
            tracer.request_id = i
        outputs.append((req, *call(cli, req.argv, pinner)))
    return outputs


def checked(gate, req, rc, out, err):
    """Gate one output; returns the failure reason, or None when it passes."""
    try:
        gate.check(req, rc, out, err)
    except Exception as exc:  # noqa: BLE001  (any gate crash is a failed request)
        return f"{type(exc).__name__}: {exc}"
    return None


def run_pass(workload: str, seed: int) -> dict:
    """Set up, then send every request of the workload's pass list once."""
    pinner = Pinner()
    setup_s, kpotent = setup(workload, seed, pinner)
    gate = gate_mod.Gate()
    outputs = send_all(kpotent.cli, workloads.pass_requests(workload, seed), pinner)
    records = [  # (seconds, failure reason or None)
        (elapsed, checked(gate, req, rc, out, err))
        for req, rc, out, err, elapsed in outputs
    ]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "peak_rss_mb": rss_kb / 1024, "records": records,
            "probe_s": pinner.fastest}


def trace(workload: str, seed: int) -> dict:
    pinner = Pinner()
    _, kpotent = setup(workload, seed, pinner)
    gate = gate_mod.Gate()
    reqs = workloads.round_requests(workload, seed, 0)
    send_all(kpotent.cli, reqs, pinner)  # warm-up: first-call costs

    def timed_pass(tracer=None):
        """(outputs, wall seconds scaled like run.py's end-to-end times)."""
        pinner.fastest = float("inf")
        outputs = send_all(kpotent.cli, reqs, pinner, tracer)
        wall = sum(o[-1] for o in outputs)
        return outputs, wall * PROBE_NOMINAL_S / pinner.fastest

    plain, plain_wall = timed_pass()
    tracer = spans.Tracer()
    spans.install(tracer, kpotent)
    try:
        traced, traced_wall = timed_pass(tracer)
    finally:
        tracer.uninstall()
    # gate only after the wrappers are gone, so checks add no spans or counts
    failures = []
    for req, rc, out, err, _ in plain + traced:
        reason = checked(gate, req, rc, out, err)
        if reason is not None:
            failures.append({"argv": list(req.argv), "reason": reason})
    metrics = spans.layer_metrics(tracer, PROBE_NOMINAL_S / pinner.fastest)
    metrics["trace_overhead"] = traced_wall / plain_wall
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}.csv")
    tracer.write(span_file)
    return {
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "spans": len(tracer.name),
        "span_file": os.path.relpath(span_file, ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        pinner = Pinner()
        result = {"setup_s": setup(args.workload, args.seed, pinner)[0],
                  "probe_s": pinner.fastest}
    elif args.mode == "pass":
        result = run_pass(args.workload, args.seed)
    else:
        result = trace(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
