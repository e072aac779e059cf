#!/usr/bin/env python3
"""Self-test for check_hot_path.py: a passing and a failing fixture per rule.

Each case writes a miniature source tree (src/...) to a temporary
directory and runs the lint's rules over it.

Usage:
  python3 tools/test_check_hot_path.py
"""

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_hot_path  # noqa: E402

# (relative path, source text) per fixture.
NODEID_MAP_OK = ("src/overlay/table.h", """\
// Resolved once where ids enter from the wire.
std::unordered_map<util::NodeId, std::uint32_t, util::NodeIdHash>
    member_of_;  // hot-path-lint: boundary
""")
NODEID_MAP_BAD = ("src/overlay/table.h", """\
// Hashes a NodeId per lookup.
std::unordered_map<util::NodeId, std::uint32_t, util::NodeIdHash> member_of_;
""")
CALLBACK_OK = ("src/runtime/cluster.cpp", """\
void Cluster::push() {
    post(params_.control_latency, Op::kDeliverSnapshot, peer, slot);
    // hot-path-lint: cold
    sim_->schedule_after(params_.control_latency, [this, evidence] {
        relay(evidence);
    });
    sim_->schedule_at(t, [this] { heal(); });  // hot-path-lint: cold
}
""")
CALLBACK_BAD = ("src/runtime/cluster.cpp", """\
void Cluster::send_snapshot() {
    sim_->schedule_after(params_.control_latency, deliver);
}
""")
# Outside src/runtime/ the callback API is not linted.
CALLBACK_ELSEWHERE = ("src/net/transport.cpp", """\
void Transport::send() {
    sim_->schedule_after(latency(path), std::move(on_deliver));
}
""")


class CheckHotPathTest(unittest.TestCase):
    def lint(self, *files):
        """Both rules' violations over a tree holding `files`."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for rel, text in files:
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            return (check_hot_path.find_violations(root) +
                    check_hot_path.find_callback_violations(root))

    def assert_passes(self, *files):
        self.assertEqual(self.lint(*files), [])

    def assert_fails(self, where, *files):
        violations = self.lint(*files)
        self.assertEqual(len(violations), 1, violations)
        self.assertTrue(violations[0].startswith(where), violations)

    def test_annotated_nodeid_map_passes(self):
        self.assert_passes(NODEID_MAP_OK)

    def test_unannotated_nodeid_map_fails(self):
        self.assert_fails("src/overlay/table.h:2", NODEID_MAP_BAD)

    def test_annotated_runtime_callbacks_pass(self):
        self.assert_passes(CALLBACK_OK, CALLBACK_ELSEWHERE)

    def test_unannotated_runtime_callback_fails(self):
        self.assert_fails("src/runtime/cluster.cpp:2", CALLBACK_BAD)

    def test_this_checkout_passes(self):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "check_hot_path.py")],
            capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertEqual(run.stdout, "check_hot_path: ok\n")


if __name__ == "__main__":
    unittest.main()
