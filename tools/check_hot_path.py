#!/usr/bin/env python3
"""Hot-path lint: NodeId-keyed hash containers and runtime callbacks.

Two rules, both enforcing DESIGN.md's "Memory architecture" contract.

The arena/index refactor's contract (DESIGN.md, "Memory architecture"): per
packet, per probe, and per judgment the simulation addresses state by dense
MemberIndex / LinkId / slot, never by hashing a 20-byte NodeId.  NodeId-keyed
maps are allowed only at the wire boundary, where identifiers enter from a
message and are resolved to an index exactly once.

Mechanically: every declaration in src/ matching

    unordered_map< ... NodeId ... >   or   unordered_set< ... NodeId ... >

must carry the annotation comment

    // hot-path-lint: boundary

on the declaration's first line or an adjacent line (up to two lines above
or below, for declarations wrapped by clang-format).  Fails
listing every unannotated declaration; passes silently otherwise.

Scope: src/ only.  Tests, benches, and examples build whatever ad-hoc maps
they like -- they are not the simulation hot path.

Rule two: the protocol runtime (src/runtime/) schedules its events as POD
ops on EventSim's queue.  Every call of the std::function API there,

    schedule_at(   or   schedule_after(

must carry the annotation comment

    // hot-path-lint: cold

on the call's line or an adjacent line (one line above or below).  The
annotation marks the few control messages that carry evidence by value;
it keeps snapshot delivery and other hot events from drifting back onto
the callback slab.
"""

import re
import sys
from pathlib import Path

ANNOTATION = "hot-path-lint: boundary"
DECL = re.compile(r"unordered_(?:map|set)\s*<[^;{}]*NodeId")

COLD_ANNOTATION = "hot-path-lint: cold"
CALLBACK = re.compile(r"\bschedule_(?:at|after)\(")


def sources(root, sub):
    base = root / sub
    return sorted(base.rglob("*.h")) + sorted(base.rglob("*.cpp"))


def find_violations(root):
    violations = []
    for path in sources(root, "src"):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            # Join wrapped declarations: the template argument list can
            # span lines, so look at a 3-line window for the NodeId match.
            window = " ".join(lines[i:i + 3])
            if not DECL.search(window):
                continue
            if "unordered_" not in line:
                continue  # attribute the violation to the opening line only
            context = lines[max(0, i - 2):i + 4]
            if any(ANNOTATION in c for c in context):
                continue
            violations.append(f"{path.relative_to(root)}:{i + 1}: {line.strip()}")
    return violations


def find_callback_violations(root):
    violations = []
    for path in sources(root, "src/runtime"):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not CALLBACK.search(line.split("//", 1)[0]):
                continue
            context = lines[max(0, i - 1):i + 2]
            if any(COLD_ANNOTATION in c for c in context):
                continue
            violations.append(
                f"{path.relative_to(root)}:{i + 1}: {line.strip()}")
    return violations


def main():
    root = Path(__file__).resolve().parent.parent
    violations = find_violations(root)
    callbacks = find_callback_violations(root)
    if violations:
        print("check_hot_path: NodeId-keyed hash containers without a "
              f"'// {ANNOTATION}' annotation:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        print(f"\n{len(violations)} violation(s).  Either address the state "
              "by dense index (preferred on hot paths) or, if this is a "
              "sanctioned wire-boundary resolution, annotate the "
              "declaration.", file=sys.stderr)
    if callbacks:
        print("check_hot_path: std::function events in src/runtime/ without "
              f"a '// {COLD_ANNOTATION}' annotation:", file=sys.stderr)
        for v in callbacks:
            print(f"  {v}", file=sys.stderr)
        print(f"\n{len(callbacks)} violation(s).  Post a Cluster::Op instead "
              "or, for a rare control message that carries evidence by "
              "value, annotate the call.", file=sys.stderr)
    if violations or callbacks:
        sys.exit(1)
    print("check_hot_path: ok")


if __name__ == "__main__":
    main()
