#!/usr/bin/env python3
"""Self-test for check_soak.py: synthetic --metrics-out snapshots.

For every sweep in check_soak.SWEEPS, a snapshot inside all of the sweep's
limits must pass and one that breaks a limit must fail; a snapshot with no
active namespace, or with two, must fail too.

Usage:
  python3 tools/test_check_soak.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_soak  # noqa: E402


def series(values, window=60):
    return {"window_seconds": window, "mode": "sum", "clipped": 0,
            "values": values}


# Healthy counter values per sweep; each failing case edits one of them.
PASSING = {
    "chaos": {
        "chaos.diagnosed_messages": 400,
        "chaos.false_accusations": 40,
        "chaos.correct_accusations": 300,
        "chaos.false_accusations.by_minute": series([3, 0, 1]),
    },
    "attack": {
        "attack.diagnosed_messages": 374,
        "attack.false_accusations": 22,
        "attack.attackers_with_drops": 40,
        "attack.attackers_caught": 37,
        "attack.attackers_evaded": 0,
        "attack.slander_successes": 0,
        "attack.false_accusations.by_minute": series([]),
    },
    "recovery": {
        "recovery.soak_messages": 600,
        "recovery.diagnosed_messages": 300,
        "recovery.false_accusations": 30,
        "recovery.correct_attributions": 200,
        "recovery.insufficient_outcomes": 12,
        "recovery.orphaned_messages": 1,
        "recovery.crashes": 9,
        "recovery.restarts": 9,
        "recovery.false_accusations.by_minute": series([2, 5]),
    },
    "daemon": {
        "daemon.messages_fed": 40000,
        "daemon.messages_diagnosed": 9000,
        "daemon.false_accusations": 500,
        "daemon.correct_attributions": 7000,
        "daemon.insufficient_outcomes": 30,
        "daemon.orphaned_messages": 0,
        "daemon.checkpoints_written": 56,
        "daemon.crash_events": 14,
        "daemon.false_accusations.by_hour": series([1, 0, 4], window=3600),
    },
}

# One limit broken per sweep, with the stderr text that names it.
FAILING = {
    "chaos": ({"chaos.false_accusations": 130}, "false_rate"),
    "attack": ({"attack.slander_successes": 1}, "slander"),
    "recovery": ({"recovery.restarts": 0}, "no restarts"),
    "daemon": ({"daemon.checkpoints_written": 12}, "checkpoints"),
}


class CheckSoakTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, metrics):
        path = os.path.join(self.tmp.name, "snapshot.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"metrics": metrics, "timing": {}}, f)
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "check_soak.py"), path],
            capture_output=True, text=True, check=False)

    def test_every_sweep_has_a_case(self):
        self.assertEqual(set(PASSING), set(check_soak.SWEEPS))
        self.assertEqual(set(FAILING), set(check_soak.SWEEPS))

    def test_healthy_snapshots_pass(self):
        for sweep, metrics in PASSING.items():
            with self.subTest(sweep=sweep):
                run = self.gate(metrics)
                self.assertEqual(run.returncode, 0, run.stderr)
                self.assertTrue(run.stdout.endswith("ok\n"), run.stdout)

    def test_broken_limits_fail(self):
        for sweep, (edit, reason) in FAILING.items():
            with self.subTest(sweep=sweep):
                run = self.gate({**PASSING[sweep], **edit})
                self.assertEqual(run.returncode, 1, run.stdout)
                self.assertIn(reason, run.stderr)

    def test_idle_soak_fails(self):
        run = self.gate({**PASSING["chaos"], "chaos.diagnosed_messages": 5,
                         "chaos.false_accusations": 0})
        self.assertEqual(run.returncode, 1)
        self.assertIn("ran effectively idle", run.stderr)

    def test_sweep_must_be_unambiguous(self):
        run = self.gate({"chaos.diagnosed_messages": 0})
        self.assertEqual(run.returncode, 1)
        self.assertIn("found none", run.stderr)
        run = self.gate({**PASSING["chaos"], **PASSING["attack"]})
        self.assertEqual(run.returncode, 1)
        self.assertIn("found chaos, attack", run.stderr)


if __name__ == "__main__":
    unittest.main()
