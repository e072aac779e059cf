#!/usr/bin/env python3
"""Validator for --metrics-out snapshots (see OBSERVABILITY.md).

Usage:
  check_metrics.py validate SNAPSHOT.json KEYS.txt
      Checks that the snapshot is well-formed JSON with "metrics" and
      "timing" sections whose key sets exactly match KEYS.txt (one
      `section<TAB>name` per line), that histogram objects are internally
      consistent, and that every instrumented namespace is present.

  check_metrics.py compare A.json B.json
      Checks that the raw bytes of the "metrics" section are identical in
      both files (the cross---jobs determinism guarantee).  The "timing"
      section is wall-clock derived and deliberately ignored.
"""

import json
import sys

from gatelib import make_die

NAMESPACES = ("net.", "tomography.", "overlay.", "core.", "runtime.",
              "sim.", "chaos.", "attack.", "defense.", "dht.",
              "recovery.", "partition.", "crypto.", "daemon.")

die = make_die("check_metrics")


def metrics_section_bytes(path):
    """The raw text of the "metrics" section, for byte-level comparison."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    start = text.find('"metrics": {')
    end = text.find('"timing"')
    if start < 0 or end < 0 or end <= start:
        die(f"{path}: snapshot lacks metrics/timing sections")
    return text[start:end]


def check_histogram(name, value):
    for field in ("lo", "hi", "total", "sum", "counts"):
        if field not in value:
            die(f"histogram {name} missing field '{field}'")
    if value["total"] != sum(value["counts"]):
        die(f"histogram {name}: total {value['total']} != "
            f"sum of counts {sum(value['counts'])}")
    if not value["counts"]:
        die(f"histogram {name} has no bins")


def check_series(name, value):
    """A windowed time-series object (see OBSERVABILITY.md)."""
    for field in ("window_seconds", "mode", "clipped", "values"):
        if field not in value:
            die(f"series {name} missing field '{field}'")
    if value["mode"] not in ("sum", "max"):
        die(f"series {name}: unknown mode {value['mode']!r}")
    if value["window_seconds"] <= 0:
        die(f"series {name}: non-positive window {value['window_seconds']}")
    if value["clipped"] < 0:
        die(f"series {name}: negative clipped count")
    if not all(isinstance(v, (int, float)) for v in value["values"]):
        die(f"series {name}: non-numeric window value")
    if value["values"] and value["values"][-1] == 0:
        die(f"series {name}: trailing zero windows were not trimmed")


def validate(snapshot_path, keys_path):
    with open(snapshot_path, encoding="utf-8") as f:
        snap = json.load(f)
    for section in ("metrics", "timing"):
        if section not in snap:
            die(f"{snapshot_path}: missing '{section}' section")

    expected = {"metrics": set(), "timing": set()}
    with open(keys_path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            section, _, name = line.partition("\t")
            if section not in expected or not name:
                die(f"{keys_path}: malformed line {line!r}")
            expected[section].add(name)

    for section in ("metrics", "timing"):
        got = set(snap[section])
        missing = expected[section] - got
        extra = got - expected[section]
        if missing:
            die(f"{section}: missing keys {sorted(missing)}")
        if extra:
            die(f"{section}: unexpected keys {sorted(extra)} "
                f"(new instrumentation? update {keys_path})")
        for name, value in snap[section].items():
            if isinstance(value, dict):
                if "window_seconds" in value:
                    check_series(name, value)
                else:
                    check_histogram(name, value)
            elif not isinstance(value, (int, float)):
                die(f"{section}.{name}: unexpected value {value!r}")

    for ns in NAMESPACES:
        if not any(k.startswith(ns) for k in snap["metrics"]):
            die(f"metrics section covers no '{ns}*' instrument")

    print(f"{snapshot_path}: ok "
          f"({len(snap['metrics'])} metrics, {len(snap['timing'])} timing)")


def compare(path_a, path_b):
    a = metrics_section_bytes(path_a)
    b = metrics_section_bytes(path_b)
    if a != b:
        die(f"metrics sections differ between {path_a} and {path_b}")
    print(f"metrics sections identical: {path_a} == {path_b}")


def main(argv):
    if len(argv) == 4 and argv[1] == "validate":
        validate(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "compare":
        compare(argv[2], argv[3])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)
