#!/usr/bin/env python3
"""Regression gate on a soak's --metrics-out snapshot.

Every soak scores its messages against simulation ground truth
(runtime::classify_outcome) and exports the scores under its own metric
namespace:

  chaos.*     soak --chaos SPEC, with no crash or partition kind
  attack.*    soak --attack SPEC [--chaos SPEC]
  recovery.*  soak --chaos SPEC, with a crash or partition kind
  daemon.*    soak_daemon --trace FILE

The gate works out which sweep wrote the snapshot -- the one namespace
whose activity counter is non-zero -- and applies that sweep's row of the
SWEEPS table below.  A snapshot with no active namespace, or with more than
one, fails.

Usage:
  check_soak.py SNAPSHOT.json [--flight SPANS.json]

  --flight SPANS.json  on failure, dump the last sim events of this
                       --spans-out trace (the flight-recorder post-mortem)
"""

import argparse
import sys

import gatelib

die = gatelib.make_die("check_soak")

# One row per sweep.  `counters` names the values the row reads (alias ->
# metric), `rates` derives ratios from them (0 when the denominator is 0),
# `floor` is the activity a run must reach before anything else is judged,
# `limits` are the thresholds the nightly enforces (max_X bounds value X
# from above, min_X from below, checked in order), `implies` (optional) lists
# "a non-zero A needs a non-zero B" rules, and `summary` is the line printed
# before the limits are checked.
SWEEPS = {
    "chaos": {
        "activity": "chaos.diagnosed_messages",
        "producer": "soak --chaos",
        "counters": {
            "diagnosed": "chaos.diagnosed_messages",
            "false": "chaos.false_accusations",
            "correct": "chaos.correct_accusations",
        },
        "rates": {"false_rate": ("false", "diagnosed")},
        "floor": ("diagnosed", 10),
        # The sweep reaches 4x intensity on a world whose baseline failure
        # timeline already produces ambiguous diagnoses.
        "limits": {"max_false_rate": 0.3},
        "summary": "diagnosed={diagnosed} correct={correct} false={false} "
                   "rate={false_rate:.4f} (max {max_false_rate})",
        "series": ("chaos.false_accusations.by_minute", "by minute", 60),
    },
    "attack": {
        "activity": "attack.diagnosed_messages",
        "producer": "soak --attack",
        "counters": {
            "diagnosed": "attack.diagnosed_messages",
            "false": "attack.false_accusations",
            "with_drops": "attack.attackers_with_drops",
            "caught": "attack.attackers_caught",
            "evaded": "attack.attackers_evaded",
            "slander": "attack.slander_successes",
        },
        "rates": {
            "evasion_rate": ("evaded", "with_drops"),
            "false_rate": ("false", "diagnosed"),
        },
        "floor": ("diagnosed", 10),
        # Slander must never verify: cherry-picked bundles fail the
        # freshness and sufficiency checks.
        "limits": {"max_evasion_rate": 0.25, "max_slander": 0,
                   "max_false_rate": 0.1},
        "summary": "diagnosed={diagnosed} caught={caught} "
                   "evaded={evaded}/{with_drops} (rate {evasion_rate:.4f}, "
                   "max {max_evasion_rate}) slander={slander} "
                   "(max {max_slander}) false={false} "
                   "(rate {false_rate:.4f}, max {max_false_rate})",
        "series": ("attack.false_accusations.by_minute", "false by minute",
                   60),
    },
    "recovery": {
        "activity": "recovery.soak_messages",
        "producer": "soak --chaos crash/partition",
        "counters": {
            "sent": "recovery.soak_messages",
            "diagnosed": "recovery.diagnosed_messages",
            "false": "recovery.false_accusations",
            "correct": "recovery.correct_attributions",
            "insufficient": "recovery.insufficient_outcomes",
            "orphans": "recovery.orphaned_messages",
            "crashes": "recovery.crashes",
            "restarts": "recovery.restarts",
        },
        "rates": {
            "false_rate": ("false", "diagnosed"),
            "orphan_rate": ("orphans", "sent"),
        },
        "floor": ("diagnosed", 10),
        "implies": [("crashes", "restarts")],
        # The 4x level is deliberately brutal and the intensity-0 level
        # keeps the plain lossy-IP baseline in the denominator; crash
        # recovery must still close out virtually every stewardship.
        "limits": {"max_false_rate": 0.25, "max_orphan_rate": 0.02},
        "summary": "diagnosed={diagnosed} correct={correct} "
                   "insufficient={insufficient} false={false} "
                   "(rate {false_rate:.4f}, max {max_false_rate}) "
                   "orphans={orphans}/{sent} (rate {orphan_rate:.4f}, "
                   "max {max_orphan_rate}) crashes={crashes}",
        "series": ("recovery.false_accusations.by_minute", "false by minute",
                   60),
    },
    "daemon": {
        "activity": "daemon.messages_fed",
        "producer": "soak_daemon",
        "counters": {
            "fed": "daemon.messages_fed",
            "diagnosed": "daemon.messages_diagnosed",
            "false": "daemon.false_accusations",
            "correct": "daemon.correct_attributions",
            "insufficient": "daemon.insufficient_outcomes",
            "orphans": "daemon.orphaned_messages",
            "checkpoints": "daemon.checkpoints_written",
            "crashes": "daemon.crash_events",
        },
        "rates": {
            "false_rate": ("false", "diagnosed"),
            "orphan_rate": ("orphans", "fed"),
        },
        "floor": ("fed", 10000),
        # The trace mixes honest churn and IP faults where abstention, not
        # blame, is right.  Fourteen days at a 6 h cadence cut ~56
        # checkpoints; a daemon that stopped checkpointing fails even with
        # good rates.
        "limits": {"max_false_rate": 0.15, "max_orphan_rate": 0.02,
                   "min_checkpoints": 50},
        "summary": "fed={fed} diagnosed={diagnosed} correct={correct} "
                   "insufficient={insufficient} false={false} "
                   "(rate {false_rate:.4f}, max {max_false_rate}) "
                   "orphans={orphans}/{fed} (rate {orphan_rate:.4f}, "
                   "max {max_orphan_rate}) checkpoints={checkpoints} "
                   "crashes={crashes}",
        "series": ("daemon.false_accusations.by_hour", "false by hour", 3600),
    },
}


def detect_sweep(metrics, path, fail):
    """The one sweep whose activity counter is non-zero in the snapshot."""
    active = [name for name, row in SWEEPS.items()
              if metrics.get(row["activity"], 0) != 0]
    if len(active) != 1:
        found = ", ".join(active) if active else "none"
        fail(f"{path}: expected exactly one active soak namespace among "
             f"{', '.join(SWEEPS)}; found {found}")
    return active[0]


def show(value):
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def gate(path, flight):
    """Checks one snapshot against its sweep's row; exits non-zero on a
    failure."""
    fail = gatelib.with_flight(die, flight)
    metrics = gatelib.load_metrics(path, fail)
    sweep = detect_sweep(metrics, path, fail)
    row = SWEEPS[sweep]
    counter = gatelib.counter_reader(metrics, path, fail, row["producer"])
    series = gatelib.series_reader(metrics, path, fail, row["producer"])

    values = {alias: counter(name) for alias, name in row["counters"].items()}
    for alias, (num, den) in row["rates"].items():
        values[alias] = 0.0 if values[den] == 0 else values[num] / values[den]
    series_name, series_label, window = row["series"]
    by_window = series(series_name)

    floor_alias, floor = row["floor"]
    if values[floor_alias] < floor:
        fail(f"only {values[floor_alias]} {floor_alias} (need >= {floor}); "
             f"the soak ran effectively idle")
    for cause, effect in row.get("implies", ()):
        if values[cause] > 0 and values[effect] == 0:
            fail(f"{values[cause]} {cause} but no {effect}")

    print(f"{path}: " + row["summary"].format(**values, **row["limits"]))
    print(f"  {series_label}: "
          f"{gatelib.describe_series(by_window, window_seconds=window)}")
    for limit, bound in row["limits"].items():
        kind, alias = limit.split("_", 1)
        value = values[alias]
        if kind == "max" and value > bound:
            fail(f"{alias} {show(value)} exceeds {bound}")
        if kind == "min" and value < bound:
            fail(f"{alias} {show(value)} is below {bound}")
    print("ok")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshot")
    parser.add_argument("--flight", default=None)
    args = parser.parse_args(argv[1:])
    gate(args.snapshot, args.flight)


if __name__ == "__main__":
    main(sys.argv)
