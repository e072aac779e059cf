#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, checks it.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are declared in BENCHMARK.json at the root;
README.md in this directory explains them.  The program is built from the
checkout's sources into .bench_build/ on first use.  stdout ends with a run
context line ("# context {...}") and then one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run also writes
its per-layer table and Chrome trace under .bench_build/results/.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line is still printed, with correct=false); 2 when the benchmark
cannot run at all (no sources, build failure), in which case no result line
is printed.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("protocol_e2e", "scan_world", "daemon_trace")

# daemon_trace: two-hour traces for 48 nodes at the event mix of the nightly
# daemon soak's trace (.github/workflows/nightly.yml: 2 messages a minute at
# the diurnal midline, 6 churn regions, 3 churn events, 1 crash and 4 link
# faults a sim day); only the horizon is shorter.  The soak's flash-crowd
# density (6 ten-minute crowds in 14 days, about 2% of its messages) would
# round to none in a run, so the first trace of a run carries one crowd,
# two minutes long, which keeps the crowd's share of messages near 2%.
NIGHTLY_MIX = ["--rate-per-min", "2", "--regions", "6",
               "--churn-per-day", "3", "--crashes-per-day", "1",
               "--link-faults-per-day", "4"]
TRACE_FLAGS = {
    "full": ["--nodes", "48", "--minutes", "120"] + NIGHTLY_MIX,
    "tiny": ["--nodes", "16", "--hosts", "120", "--stubs", "6",
             "--minutes", "30"] + NIGHTLY_MIX,
}
FLASH_CROWD = ["--flash-crowds", "1", "--flash-minutes", "2"]
NO_FLASH_CROWD = ["--flash-crowds", "0"]
ATTACK_ROLES = ("equivocate", "replay", "drop")
# Traces per run: each pass replays a different one and the figures pool
# over them, so one unusual trace (one that draws a crash, say) moves a
# run's figures less.
TRACES = {"full": 4, "tiny": 2}
# The trace's world directive is pinned: the world (and the daemon's
# protocol randomness, which it seeds) is a fixture, and the benchmark seed
# varies the records -- arrivals, crowds, churn, crashes, faults, attackers.
# A seeded world would make a pass's cost, dominated by probing every tree,
# differ by seed.
WORLD_SEED = 1


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: the self-test's small worlds")
    p.add_argument("--plant-bad-digest", action="store_true",
                   help="self-test: corrupt the reference outcome digest")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_quiet(cmd, **kw):
    """Runs a build step with its output on stderr; True on success."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)
    return done.returncode == 0


def build():
    """Configures and builds perfbench; returns (binary, build context)."""
    if not (ROOT / "src" / "sim" / "scenario.cpp").is_file():
        die(f"Concilium sources not found under {ROOT / 'src'}")
    out = BUILD / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]):
            die("cmake configure failed")
    if not run_quiet(["cmake", "--build", str(out), "-j", jobs]):
        die("build failed")
    binary = out / "perfbench"
    if not binary.is_file():
        die("build produced no perfbench binary")
    return binary, build_context(out)


def build_context(out):
    cache = (out / "CMakeCache.txt").read_text(errors="replace")

    def cached(key):
        m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
        return m.group(1).strip() if m else ""

    build_type = cached("CMAKE_BUILD_TYPE") or "(empty)"
    compiler = cached("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    ctx = {"build_type": build_type, "compiler": f"{compiler} ({version})"}
    if build_type not in ("RelWithDebInfo", "Release"):
        ctx["build_warning"] = "not an optimized build; do not compare"
    ctx.update(source_identity())
    return ctx


def source_identity():
    """The commit when the checkout is a git repository, and always a digest
    of the sources the benchmark built and ran."""
    ident = {}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            ident["commit"] = rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    ident["source_sha256"] = h.hexdigest()[:16]
    return ident


def make_traces(args, tmp):
    """Generates the daemon_trace workload from the seed (untimed): TRACES
    traces, each from the repository's generator with the world directive
    pinned, plus one equivocator, one replayer and one dropper on distinct
    seed-chosen nodes."""
    gen = ROOT / "tools" / "gen_workload.py"
    if not gen.is_file():
        die(f"trace generator not found at {gen}")
    paths = []
    for k in range(TRACES[args.size]):
        sub_seed = args.seed * TRACES[args.size] + k
        raw = tmp / f"raw-{k}.trace"
        crowd = FLASH_CROWD if k == 0 else NO_FLASH_CROWD
        if not run_quiet([sys.executable, str(gen), "--out", str(raw),
                          "--seed", str(sub_seed)] + TRACE_FLAGS[args.size]
                         + crowd):
            die("trace generation failed")
        lines = raw.read_text().splitlines()
        nodes = int(next(l.split()[1] for l in lines
                         if l.startswith("nodes ")))
        head, records = [], []
        for line in lines:
            kind = line.split(" ", 1)[0]
            if kind in ("msg", "churn", "crash", "fault"):
                records.append(line)
            elif kind == "seed":
                head.append(f"seed {WORLD_SEED}")
            elif kind not in ("end", "attack"):
                head.append(line)
        rng = random.Random(sub_seed ^ 0xA77AC4)
        attackers = rng.sample(range(nodes), len(ATTACK_ROLES))
        records = [f"attack 0us {n} {role}"
                   for n, role in zip(attackers, ATTACK_ROLES)] + records
        trace = tmp / f"workload-{k}.trace"
        trace.write_text("\n".join(head + records + [f"end {len(records)}"])
                         + "\n")
        paths.append(trace)
    return paths


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, declared):
    """Checks the result's shape and metric names; returns the problems."""
    problems = []
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is outside [A-Za-z0-9_.-]")
        if not isinstance(m, dict) or not UNIT_RE.match(str(m.get("unit", ""))):
            problems.append(f"metric {name!r} has no valid unit")
    for name, unit in declared.items():
        if name not in metrics:
            problems.append(f"declared metric {name!r} is missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name!r} has unit "
                            f"{metrics[name].get('unit')!r}, declared {unit!r}")
    return problems


def main(argv):
    args = parse_args(argv)
    binary, ctx = build()
    tmp = BUILD / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--scratch", str(tmp),
               "--out-dir", str(results)]
        if args.workload == "daemon_trace":
            for trace in make_traces(args, tmp):
                cmd += ["--trace-file", str(trace)]
        if args.plant_bad_digest:
            cmd.append("--plant-bad-digest")
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2 or \
            not lines[-2].startswith("# context "):
        sys.stderr.write(done.stdout)
        die(f"perfbench exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2][len("# context "):])
    context.update(ctx)

    declared = declared_metrics(args.trace == 1)
    problems = validate(result, declared)
    for p in problems:
        print(f"perfbench: FAILED: {p}", file=sys.stderr)
    failed = int(result["failed"]) + len(problems)
    extra = {k: v for k, v in result["metrics"].items() if k not in declared}
    if extra:
        context["undeclared_metrics"] = {k: v["value"] for k, v in extra.items()}
    out = {
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": failed,
        "metrics": {k: v for k, v in result["metrics"].items()
                    if k in declared},
    }
    for line in lines[:-2]:
        print(line)
    print("# context " + json.dumps(context, sort_keys=True))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
