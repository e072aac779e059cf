#!/usr/bin/env python3
"""Validator for --spans-out Chrome trace-event dumps (see OBSERVABILITY.md).

Usage:
  check_spans.py validate TRACE.json [--require NAME ...]
      Checks that the trace is loadable Chrome trace-event JSON: a dict
      with displayTimeUnit / otherData / traceEvents, two clock-metadata
      process_name events, every span event carrying name/cat/ph/pid/
      tid/ts (and dur >= 0 for ph "X"), names drawn from the recorder's
      catalogue, sim-section events on pid 1 with deterministic integer
      args, wall-section events on pid 2.  --require NAME fails unless at
      least one event with that name is present (repeatable).

  check_spans.py compare A.json B.json
      Checks that the canonical sim sections are identical (the
      cross---jobs determinism guarantee).  Wall-section events are
      wall-clock derived and deliberately ignored.  Fails when either
      trace dropped events (otherData.dropped > 0): once a ring has
      overflowed, which events survive depends on which worker ran which
      trial, so neither a match nor a mismatch means anything.

  check_spans.py tail TRACE.json [N]
      Prints the flight-recorder view: the last N (default 40) sim-clock
      events, oldest first.
"""

import json
import sys

from gatelib import flight_tail, make_die

die = make_die("check_spans")

# Keep in sync with span_name() in src/util/spans.cpp.
KNOWN_NAMES = {
    "world_build", "topology_gen", "overlay_build", "tree_build",
    "failure_timeline", "scenario_index", "fault_plan", "trial", "shard",
    "probe_round", "heavyweight_session", "mle_solve", "snapshot_exchange",
    "diagnosis", "judgment", "recovery_handshake",
}

SIM_PID = 1
WALL_PID = 2


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"{path}: {e}")
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        die(f"{path}: not a trace-event dump (missing 'traceEvents')")
    return trace


def sim_events(trace):
    return [e for e in trace["traceEvents"] if e.get("cat") == "sim"]


def canonical_sim(trace):
    """The sim section as canonical bytes (order- and field-exact)."""
    return json.dumps(sim_events(trace), sort_keys=True,
                      separators=(",", ":")).encode()


def validate(path, required):
    trace = load(path)
    for field in ("displayTimeUnit", "otherData", "traceEvents"):
        if field not in trace:
            die(f"{path}: missing top-level '{field}'")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        die(f"{path}: empty traceEvents")

    meta = [e for e in events if e.get("ph") == "M"]
    meta_pids = {e.get("pid") for e in meta
                 if e.get("name") == "process_name"}
    if not {SIM_PID, WALL_PID} <= meta_pids:
        die(f"{path}: missing clock process_name metadata "
            f"(got pids {sorted(meta_pids)})")

    spans = [e for e in events if e.get("ph") in ("X", "i")]
    if not spans:
        die(f"{path}: no span events (recorder never armed?)")
    for e in spans:
        for field in ("name", "cat", "pid", "tid", "ts"):
            if field not in e:
                die(f"{path}: span event missing '{field}': {e!r}")
        if e["name"] not in KNOWN_NAMES:
            die(f"{path}: unknown span name {e['name']!r} "
                f"(update KNOWN_NAMES after extending SpanType)")
        if e["ph"] == "X" and e.get("dur", -1) < 0:
            die(f"{path}: negative/missing dur on {e['name']}")
        if e["cat"] == "sim":
            if e["pid"] != SIM_PID:
                die(f"{path}: sim event on pid {e['pid']}")
            args = e.get("args", {})
            for field in ("scope", "seq", "causal", "arg"):
                if not isinstance(args.get(field), int):
                    die(f"{path}: sim event {e['name']} lacks integer "
                        f"arg '{field}' (wall data leaking into the "
                        f"deterministic section?)")
        elif e["cat"] == "wall":
            if e["pid"] != WALL_PID:
                die(f"{path}: wall event on pid {e['pid']}")
        else:
            die(f"{path}: unknown cat {e['cat']!r} on {e['name']}")

    names = {e["name"] for e in spans}
    for name in required:
        if name not in names:
            die(f"{path}: required span '{name}' absent "
                f"(names present: {sorted(names)})")

    n_sim = sum(1 for e in spans if e["cat"] == "sim")
    print(f"{path}: ok ({len(spans)} spans, {n_sim} sim / "
          f"{len(spans) - n_sim} wall, {len(names)} span types, "
          f"dropped={trace['otherData'].get('dropped', 0)})")


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    for path, trace in ((path_a, a), (path_b, b)):
        dropped = trace.get("otherData", {}).get("dropped", 0)
        if dropped:
            die(f"{path}: {dropped} events dropped (a span ring overflowed); "
                f"the sim section is incomplete and cannot be compared")
    if canonical_sim(a) != canonical_sim(b):
        sa, sb = sim_events(a), sim_events(b)
        if len(sa) != len(sb):
            die(f"sim sections differ: {len(sa)} events in {path_a} vs "
                f"{len(sb)} in {path_b}")
        for i, (ea, eb) in enumerate(zip(sa, sb)):
            if ea != eb:
                die(f"sim sections differ at event {i}: "
                    f"{ea!r} vs {eb!r}")
        die(f"sim sections differ between {path_a} and {path_b}")
    print(f"sim sections identical: {path_a} == {path_b} "
          f"({len(sim_events(a))} events)")


def tail(path, last_n):
    for line in flight_tail(path, last_n):
        print(line)


def main(argv):
    if len(argv) >= 3 and argv[1] == "validate":
        required = []
        rest = argv[3:]
        while rest:
            if rest[0] == "--require" and len(rest) >= 2:
                required.append(rest[1])
                rest = rest[2:]
            else:
                die(f"unknown validate argument {rest[0]!r}")
        validate(argv[2], required)
    elif len(argv) == 4 and argv[1] == "compare":
        compare(argv[2], argv[3])
    elif len(argv) in (3, 4) and argv[1] == "tail":
        tail(argv[2], int(argv[3]) if len(argv) == 4 else 40)
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)
