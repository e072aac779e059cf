#!/usr/bin/env python3
"""Self-test of the benchmark: tiny-size runs of every workload.

  python3 perfbench/test_perfbench.py

Fails when a run's output has a metric name outside [A-Za-z0-9_.-], when a
metric BENCHMARK.json declares is missing or has no unit, and when a planted
wrong outcome digest is not reported as a failed operation.  The first run
builds the program (see run.py).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark runner)

WORKLOADS = run.WORKLOADS


def tiny_run(workload, trace, *extra):
    """Runs one tiny workload; returns (exit code, result dict or None)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


class Validation(unittest.TestCase):
    """run.validate() must flag each kind of bad output."""

    declared = {"latency_ms": "ms"}

    def test_accepts_good_result(self):
        good = {"metrics": {"latency_ms": {"value": 1.0, "unit": "ms"}}}
        self.assertEqual(run.validate(good, self.declared), [])

    def test_flags_bad_name(self):
        bad = {"metrics": {"latency_ms": {"value": 1.0, "unit": "ms"},
                           "bad name!": {"value": 1.0, "unit": "ms"}}}
        self.assertTrue(run.validate(bad, self.declared))

    def test_flags_missing_metric(self):
        self.assertTrue(run.validate({"metrics": {}}, self.declared))

    def test_flags_missing_unit(self):
        bad = {"metrics": {"latency_ms": {"value": 1.0}}}
        self.assertTrue(run.validate(bad, self.declared))


class TinyRuns(unittest.TestCase):
    """Every workload, untraced and traced, reports every declared metric."""

    def check(self, workload, trace):
        code, result = tiny_run(workload, trace)
        self.assertIsNotNone(result, f"{workload}: no result line")
        self.assertEqual(code, 0, f"{workload} trace={trace}: {result}")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = run.declared_metrics(trace == 1)
        self.assertEqual(run.validate(result, declared), [])
        self.assertEqual(set(result["metrics"]), set(declared))

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1)


class PlantedDigest(unittest.TestCase):
    """A corrupted reference digest is a failed operation in every mode."""

    def test_reported(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = tiny_run(workload, trace,
                                            "--plant-bad-digest")
                    self.assertIsNotNone(result)
                    self.assertEqual(code, 1)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
