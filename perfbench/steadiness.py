#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage (from the repository root):
    python3 perfbench/steadiness.py [--workloads steady-mix,...]
                                    [--seeds 1,2,...] [--out FILE.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json; a
spread under a third of the bound reads "steady".  Each run is one
`run.py` invocation with BENCHMARK.json's run_seconds, one after another.
With --out the per-run values, each run's serve count and tail percentile
(from the binary's result JSON) and the summary are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

HERE = run.HERE
ROOT = run.ROOT


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            try:
                line = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                ok = False
                print(f"{wl} seed {seed}: no result (exit {proc.returncode})")
                continue
            if not line["correct"]:
                ok = False
                print(f"{wl} seed {seed}: INCORRECT ({line['failed']} failed)")
            for k, v in line["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            result = json.loads(run.result_path(wl, 0).read_text())
            res = result["workloads"][wl]
            runs.append({"seed": seed,
                         "serve_samples": res["serve_samples"],
                         "serve_tail_percentile": res["serve_tail_percentile"],
                         "serve_tail_beyond": res["serve_tail_beyond"]})
            print(f"{wl} seed {seed}: {res['serve_samples']} serves, tail "
                  f"p{res['serve_tail_percentile']} with "
                  f"{res['serve_tail_beyond']} beyond", flush=True)
        summary = {}
        for k, v in values.items():
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            summary[k] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": v}
            verdict = ""
            if bound:
                verdict = (f" bound {bound:.2f}: "
                           + ("steady" if spread < bound / 3 else "WIDE"))
            print(f"  {wl} {k}: median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]"
                  f" spread {spread * 100:.2f}%{verdict}", flush=True)
        report["workloads"][wl] = {"runs": runs, "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
