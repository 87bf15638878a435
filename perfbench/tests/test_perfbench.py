#!/usr/bin/env python3
"""Tests of the benchmark itself, run at a tiny input size.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (see perfbench/run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
SCALE = "0.02"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seed=3, extra=(), cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def check_metrics(self, result, expected):
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        out = last_json(result.stdout)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in expected})
        printed = {}
        for line in result.stdout.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric":
                printed[parts[1]] = parts[3]
        for m in expected:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        self.assertEqual(printed.get("join_failures"), "ratio")
        return out

    def test_every_workload_prints_every_metric(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = self.check_metrics(run_bench(w["name"], trace),
                                             self.spec[key])
                    if trace == 0:
                        for m in self.spec[key]:
                            self.assertGreater(out["metrics"][m["name"]]["value"],
                                               0, m["name"])

    def test_same_seed_gives_same_inputs(self):
        a = last_json(run_bench("zipf-4tj", 0, seed=9).stdout)["metrics"]
        b = last_json(run_bench("zipf-4tj", 0, seed=9).stdout)["metrics"]
        c = last_json(run_bench("zipf-4tj", 0, seed=10).stdout)["metrics"]
        self.assertEqual(a["network_bytes"], b["network_bytes"])
        self.assertEqual(a["max_nic_bytes"], b["max_nic_bytes"])
        self.assertNotEqual(a["network_bytes"], c["network_bytes"])

    def test_wrong_reference_digest_fails(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                result = run_bench("pipelined-4tj", trace,
                                   extra=["--wrong-reference"])
                self.assertNotEqual(result.returncode, 0)
                out = last_json(result.stdout)
                self.assertFalse(out["correct"])
                self.assertEqual(out["failed"], out["attempted"])

    def test_bad_arguments_fail(self):
        for extra in (["--workload", "nope"], ["--trace", "2"],
                      ["--seconds", "0"]):
            with self.subTest(extra=extra):
                result = run_bench("zipf-4tj", 0, extra=extra)
                self.assertNotEqual(result.returncode, 0)
                self.assertIsNone(last_json(result.stdout))

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            result = run_bench("zipf-4tj", 0, cwd=tmp)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
