#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny sizes, every workload, both modes.

    python3 perfbench/selftest.py

Checks that each run ends with a correct result that carries exactly the
metrics BENCHMARK.json names, with their units, and that the benchmark
refuses to run in a tree without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        proc = run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["mc_sweep", "certify", "analyze_counts"])
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"], trace=0):
                self.check_run(workload["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=workload["name"], trace=1):
                self.check_run(workload["name"], 1, SPEC["per_layer"])

    def test_refuses_tree_without_package(self):
        bare = HERE / "results" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run("--workload", "certify", "--seed", "0", "--seconds", "1",
                       "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
