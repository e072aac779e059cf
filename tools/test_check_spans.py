#!/usr/bin/env python3
"""Self-test for check_spans.py: synthetic --spans-out trace dumps.

Two traces whose sim sections match must compare equal even when their
wall sections differ; a changed or missing sim event must fail, and so
must a trace whose rings dropped events, whatever its sim section holds.

Usage:
  python3 tools/test_check_spans.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))


def sim_event(name, ts, seq, arg=0):
    return {"name": name, "cat": "sim", "ph": "X", "pid": 1, "tid": 0,
            "ts": ts, "dur": 10,
            "args": {"scope": 1, "seq": seq, "causal": 3, "arg": arg}}


def wall_event(name, ts):
    return {"name": name, "cat": "wall", "ph": "X", "pid": 2, "tid": 0,
            "ts": ts, "dur": 5}


def trace(dropped=0, wall_ts=100):
    return {
        "displayTimeUnit": "ms",
        "otherData": {"tool": "concilium util::spans", "dropped": dropped},
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "sim clock (deterministic)"}},
            {"name": "process_name", "ph": "M", "pid": 2,
             "args": {"name": "wall clock"}},
            sim_event("diagnosis", 0, 0),
            sim_event("judgment", 20, 1, arg=2),
            wall_event("world_build", wall_ts),
        ],
    }


class CheckSpansTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, data):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        return path

    def tool(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "check_spans.py"), *args],
            capture_output=True, text=True, check=False)

    def compare(self, a, b):
        return self.tool("compare", self.write("a.json", a),
                         self.write("b.json", b))

    def test_matching_sim_sections_pass(self):
        run = self.compare(trace(wall_ts=100), trace(wall_ts=999))
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("sim sections identical", run.stdout)

    def test_changed_sim_event_fails(self):
        b = trace()
        b["traceEvents"][3]["args"]["arg"] = 5
        run = self.compare(trace(), b)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("differ at event 1", run.stderr)

    def test_missing_sim_event_fails(self):
        b = trace()
        del b["traceEvents"][3]
        run = self.compare(trace(), b)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("2 events in", run.stderr)

    def test_dropped_events_fail_even_when_sections_match(self):
        for dropped_a, dropped_b in ((7, 0), (0, 7), (7, 7)):
            with self.subTest(a=dropped_a, b=dropped_b):
                run = self.compare(trace(dropped=dropped_a),
                                   trace(dropped=dropped_b))
                self.assertEqual(run.returncode, 1, run.stdout)
                self.assertIn("7 events dropped", run.stderr)

    def test_validate_accepts_fixture_and_enforces_require(self):
        path = self.write("t.json", trace())
        run = self.tool("validate", path, "--require", "judgment")
        self.assertEqual(run.returncode, 0, run.stderr)
        run = self.tool("validate", path, "--require", "probe_round")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("required span 'probe_round' absent", run.stderr)

    def test_validate_rejects_wall_data_in_sim_section(self):
        bad = copy.deepcopy(trace())
        del bad["traceEvents"][2]["args"]["seq"]
        run = self.tool("validate", self.write("bad.json", bad))
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("lacks integer arg 'seq'", run.stderr)


if __name__ == "__main__":
    unittest.main()
