#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports, for every
end-to-end metric, its median and the spread of its values: the distance
between the first and third quartile as a share of the median.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run it from the repository root. It reads the command, workloads, run
length and bounds from BENCHMARK.json, and flags every metric whose spread
exceeds a third of its bound (setup_s is reported, not flagged).
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    flagged = 0
    digests = {}
    for workload in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed")
                return 1
            for line in lines:
                if line.startswith("digest "):
                    digests.setdefault(workload, set()).add(line.split()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, digests {sorted(digests.get(workload, []))})")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                flagged += 1
            print(f"  {name:<20} median {med:>14.4f}  spread {spread:6.3f}  bound {bound}{flag}")
            print("      " + " ".join(f"{x:.4g}" for x in v))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
