#!/usr/bin/env python3
"""The benchmark's own tests, run at tiny size.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit
on every workload, that a wrong recorded digest is reported as a
failure, and that shed, malformed and expired requests land in the
failure count.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--size", "tiny",
         "--seed", "3", "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if len(lines) >= 2:
        result["provenance"] = json.loads(lines[-2])["provenance"]
    return proc.returncode, result, proc.stderr


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


class MetricsTest(unittest.TestCase):
    def check(self, trace, section):
        units = {m["name"]: m["unit"] for m in BENCH[section]}
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                rc, res, err = run(w, "--trace", trace)
                self.assertEqual(rc, 0, err[-2000:])
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics", "provenance"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), set(units))
                for name, unit in units.items():
                    self.assertEqual(res["metrics"][name]["unit"], unit)
                    self.assertIsInstance(res["metrics"][name]["value"],
                                          (int, float))

    def test_end_to_end_metrics(self):
        self.check("0", "end_to_end")

    def test_per_layer_metrics(self):
        self.check("1", "per_layer")


class CorrectnessTest(unittest.TestCase):
    def test_corrupted_expected_digest_fails(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        os.makedirs(build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            for w in WORKLOADS:
                key = w + "@tiny"
                bad = dict(expected)
                bad[key] = ("0" if expected[key][0] != "0" else "1") \
                    + expected[key][1:]
                path = os.path.join(tmp, "expected.json")
                with open(path, "w") as f:
                    json.dump(bad, f)
                with self.subTest(workload=w):
                    rc, res, _ = run(w, "--expected", path)
                    self.assertNotEqual(rc, 0)
                    self.assertFalse(res["correct"])
                    self.assertGreaterEqual(res["failed"], 1)
                    self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_shed_error_and_deadline_count_as_failed(self):
        rc, res, _ = run("service_mix", "--inject-faults", "--trace", "1")
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        m = res["metrics"]
        # Every pass has one malformed, one shed and one expired
        # request; nothing else fails.
        failed = 3 * res["provenance"]["passes"]
        self.assertEqual(res["failed"], failed)
        self.assertAlmostEqual(m["failed_frac"]["value"],
                               failed / res["attempted"])
        self.assertEqual(m["service.shed"]["value"], 1)
        self.assertEqual(m["service.deadline_expired"]["value"], 1)
        self.assertGreaterEqual(m["service.errors"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
