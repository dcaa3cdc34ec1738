"""Tests of the benchmark itself (not of kpotent).

    python3 -m unittest discover -s perfbench/tests -v
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kpotent import cli  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


class ShortRunTest(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        proc = bench("--workload", "elements", "--seed", "3", "--seconds", "0.2", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(units, declared("end_to_end"))
        for name in ("elements_fp_per_s", "elements_q_per_s", "elements_qsqrt_per_s",
                     "elements_p50_ms", "elements_tail_ms", "fail_ratio"):
            self.assertRegex(proc.stdout, rf"(?m)^{name} \S+ \S+")

    def test_traced_runs_emit_every_layer_metric_and_repeat_counts(self):
        results = []
        for _ in range(2):
            proc = bench("--workload", "elements", "--seed", "4", "--seconds", "1", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            results.append(last_json(proc))
        units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
        self.assertEqual(units, declared("per_layer"))
        self.assertTrue(results[0]["correct"])
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] not in ("s", "x")}
            for r in results
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["potency.classify.calls"], 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, os.path.join(tmp, "perfbench", "run.py"), "--workload",
                 "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.gate = gate.Gate()
        self.req = workloads._census_job("quat", 5, (1, 2), "exhaustive")
        rc, self.out = run_cli(self.req.argv)
        self.assertEqual(rc, 0)

    def test_census_output_passes(self):
        self.gate.check(self.req, 0, self.out, "")

    def test_flags_a_census_count_that_does_not_add_up(self):
        lines = self.out.splitlines()
        kind, index, count, sample = lines[1].split(",", 3)
        lines[1] = f"{kind},{index},{int(count) + 1},{sample}"
        with self.assertRaisesRegex(gate.GateError, "sum to"):
            self.gate.check(self.req, 0, "\n".join(lines) + "\n", "")

    def test_flags_a_census_sample_from_another_row(self):
        lines = self.out.splitlines()
        first = lines[1].split(",", 3)
        second = lines[2].split(",", 3)
        lines[1] = ",".join(first[:3] + [second[3]])
        with self.assertRaisesRegex(gate.GateError, "classifies as"):
            self.gate.check(self.req, 0, "\n".join(lines) + "\n", "")

    def test_flags_an_altered_report(self):
        req = workloads.round_requests("report", 1, 0)[0]
        golden = self.gate.golden_report
        self.gate.check(req, 0, golden, "")
        altered = golden.replace('"holds"', '"fails"', 1)
        with self.assertRaisesRegex(gate.GateError, "report-v1"):
            self.gate.check(req, 0, altered, "")
        with self.assertRaises(gate.GateError):
            self.gate.check(req, 0, golden.rstrip("\n"), "")

    def test_flags_a_wrong_generated_kind_and_a_failed_transport(self):
        reqs = workloads.round_requests("elements", 2, 0)
        for kind in ("generate", "verify"):
            req = next(r for r in reqs if r.kind == kind and r.expect.get("target"))
            rc, out = run_cli(req.argv)
            self.gate.check(req, rc, out, "")
            data = json.loads(out)
            if kind == "generate":
                data["result"]["index"] += 1
            else:
                data["result"]["matrices"]["left_transport"] = False
            with self.assertRaises(gate.GateError):
                self.gate.check(req, rc, json.dumps(data), "")

    def test_flags_a_nonzero_exit(self):
        with self.assertRaisesRegex(gate.GateError, "exit code"):
            self.gate.check(self.req, 1, "", "error: boom\n")


class RequestStreamTest(unittest.TestCase):
    def test_same_seed_same_requests_other_seed_other_requests(self):
        for workload in ("census", "elements"):
            for index in (0, 1):
                first = workloads.round_requests(workload, 7, index)
                self.assertEqual(first, workloads.round_requests(workload, 7, index))
                self.assertNotEqual(first, workloads.round_requests(workload, 8, index))

    def test_report_input_is_fixed_by_its_contract(self):
        self.assertEqual(workloads.round_requests("report", 1, 0),
                         workloads.round_requests("report", 2, 0))

    def test_every_round_has_the_same_mix(self):
        def mix(reqs):
            return sorted((r.kind, r.family, r.work if r.kind != "sample" else 0)
                          for r in reqs)

        for workload in ("census", "elements"):
            base = mix(workloads.round_requests(workload, 1, 0))
            for seed, index in ((1, 1), (2, 0), (99, 5)):
                self.assertEqual(mix(workloads.round_requests(workload, seed, index)), base)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children_and_uninstall_restores(self):
        class Box:
            def inner(self):
                return sum(range(20000))

            def outer(self):
                return self.inner() + self.inner()

        original = Box.outer
        tracer = spans.Tracer()
        tracer.span(Box, "outer", "outer")
        tracer.span(Box, "inner", "inner")
        Box().outer()
        tracer.uninstall()
        self.assertIs(Box.outer, original)
        calls, self_ns = tracer.layers()
        self.assertEqual(dict(calls), {"outer": 1, "inner": 2})
        total = tracer.end[0] - tracer.start[0]
        self.assertEqual(self_ns["outer"] + self_ns["inner"], total)
        self.assertEqual(tracer.calls_under("inner", "outer"), 2)


if __name__ == "__main__":
    unittest.main()
