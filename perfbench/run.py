#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload steady-mix|compile-storm|online-mix|all
                             --seed N --seconds S --trace 0|1

The binary (perfbench/src, built by perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR or .bench_build) prints its deterministic report on
stdout and writes wall-clock results to a JSON file; this wrapper echoes the
report and prints, as its last stdout line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  Exit code 0 only when every serve passed the
correctness gate; a missing source tree or a failed build exits 2 without a
result line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady-mix", "compile-storm", "online-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")




def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "runtime" / "MultiAppService.h").is_file():
        fail(f"no schedfilter sources under {ROOT / 'src'}")
    bdir = build_root() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir)])
    build_jobs = max(1, min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", str(build_jobs)])
    log_path = bdir / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    exe = bdir / "perfbench"
    if not exe.is_file():
        fail("build produced no perfbench binary")
    return exe


def result_path(workload, trace, tag=""):
    """Where the binary writes its result JSON (spans and sample counts)."""
    name = f"result-{workload}-t{trace}{tag}.json"
    return build_root() / "perfbench-work" / name


def run_binary(exe, workload, seed, seconds, trace, extra=(), expected=None,
               tag="", quiet=False):
    """Runs the binary once; returns (exit code, stdout, result JSON or None)."""
    out = result_path(workload, trace, tag)
    work = out.parent
    work.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--work", str(work),
           "--expected", str(expected or HERE / "expected_digests.txt"),
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL if quiet else None,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    result = json.loads(out.read_text()) if out.is_file() else None
    return proc.returncode, proc.stdout, result


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def result_line(rc, result, trace):
    """The last stdout line's result object, checked against BENCHMARK.json."""
    end_to_end, per_layer = metric_spec()
    wanted = per_layer if trace else end_to_end
    runs = result["workloads"]
    metrics = {}
    for name, run in runs.items():
        have = run["per_layer" if trace else "end_to_end"]
        for m in wanted:
            got = have.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail(f"{name}: metric {m['name']} [{m['unit']}] missing")
            key = m["name"] if len(runs) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": got["value"], "unit": got["unit"]}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return {"correct": rc == 0 and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be >= 0")

    exe = build()
    rc, stdout, result = run_binary(exe, args.workload, args.seed,
                                    args.seconds, args.trace)
    sys.stdout.write(stdout)
    if result is None:
        fail(f"perfbench exited {rc} without writing a result")
    line = result_line(rc, result, args.trace)
    print(json.dumps(line), flush=True)
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
