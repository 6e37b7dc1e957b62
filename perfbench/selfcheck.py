#!/usr/bin/env python3
"""Quick self-check of the benchmark itself (about a minute on 4 cores).

Usage (from the repository root):
    python3 perfbench/selfcheck.py

Builds the binary like run.py, then runs every workload for one or two short
serves and checks that:
  - the determinism lint (scripts/lint_determinism.sh) is clean on perfbench/;
  - every end-to-end and per-layer metric of BENCHMARK.json is reported, with
    its unit, and run.py's result line can be formed from both runs;
  - traced and untraced serves of a stream yield identical stats (digests),
    and so do pool sizes 1 and 4;
  - harness.traced_blocks is 0 after the warm-up (the corpus cache is warm);
  - the held-out seed passes the gate (rep-to-rep and replay checks);
  - a corrupted pinned digest is caught: failed ops and a non-zero exit.
Exits 1 when any check fails.
"""

import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
QUICK = ["--streams", "1", "--max-serves", "2", "--setup-reps", "1"]


def main():
    exe = run.build()
    end_to_end, per_layer = run.metric_spec()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    lint = subprocess.run(
        ["sh", str(run.ROOT / "scripts" / "lint_determinism.sh"), "perfbench"],
        capture_output=True, text=True)
    check(lint.returncode == 0,
          "determinism lint is clean on perfbench/ " + lint.stderr.strip())

    rc0, _, plain = run.run_binary(exe, "all", DEFAULT_SEED, 0, 0, QUICK,
                                   tag="-quick")
    rc1, _, traced = run.run_binary(exe, "all", DEFAULT_SEED, 0, 1, QUICK,
                                    tag="-quick")
    check(rc0 == 0 and rc1 == 0 and plain and traced,
          f"quick untraced and traced runs pass the gate (exit {rc0}, {rc1})")
    if not (plain and traced):
        sys.exit(1)
    for trace, result in ((0, plain), (1, traced)):
        line = run.result_line(0, result, trace)
        check(line["correct"] and line["attempted"] >= 1,
              f"result line forms with --trace {trace}")

    for w in run.WORKLOADS:
        a, b = plain["workloads"][w], traced["workloads"][w]
        missing = [m["name"] for m in end_to_end
                   if a["end_to_end"].get(m["name"], {}).get("unit") != m["unit"]]
        missing += [m["name"] for m in per_layer
                    if b["per_layer"].get(m["name"], {}).get("unit") != m["unit"]]
        check(not missing, f"{w}: every named metric present with its unit"
              + (f" (missing {missing})" if missing else ""))
        check(b["traced_samples"] >= 1 and a["digests"] == b["digests"],
              f"{w}: traced and untraced serves yield identical stats")
        check(b["per_layer"].get("harness.traced_blocks", {}).get("value") == 0,
              f"{w}: harness.traced_blocks is 0 after warm-up")

    rcj, _, jobs1 = run.run_binary(exe, "all", DEFAULT_SEED, 0, 0,
                                   QUICK + ["--jobs", "1"], tag="-jobs1")
    check(rcj == 0 and jobs1 and all(
        jobs1["workloads"][w]["digests"] == plain["workloads"][w]["digests"]
        for w in run.WORKLOADS), "pool sizes 1 and 4 yield identical stats")

    rch, _, _ = run.run_binary(exe, "all", HELD_OUT_SEED, 0, 1, QUICK,
                               tag="-heldout")
    check(rch == 0, f"held-out seed {HELD_OUT_SEED} passes the gate")

    # Flip one hex digit of every pinned digest.
    bad = run.build_root() / "perfbench-work" / "corrupted_digests.txt"
    lines = []
    for line in (run.HERE / "expected_digests.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            line = line[:-1] + ("0" if line[-1] != "0" else "1")
        lines.append(line)
    bad.write_text("\n".join(lines) + "\n")
    rcc, _, corrupt = run.run_binary(exe, "all", DEFAULT_SEED, 0, 0,
                                     ["--streams", "1", "--max-serves", "1",
                                      "--setup-reps", "1"],
                                     expected=bad, tag="-corrupt", quiet=True)
    caught = corrupt is not None and all(
        corrupt["workloads"][w]["failed"] >= 1 and
        corrupt["workloads"][w]["end_to_end"]["failed_op_ratio"]["value"] > 0
        for w in run.WORKLOADS)
    check(rcc != 0 and caught,
          f"a corrupted pinned digest is a failed op with exit {rcc} != 0")

    print(f"selfcheck: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
