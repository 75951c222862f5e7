#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints every end-to-end metric's median, quartiles and spread beside its
bound.

Run from the repository root:

    python3 benchmark/steady.py [--runs 10] [--first-seed 1]
                                [--workloads paper-suite,serve-mix]
                                [--seconds N]

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A metric
is steady when its spread is below a third of its bound, `setup_s`
included. The share of failed operations must be identical in every run.
Exits 1 when any metric is unsteady.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    unsteady = 0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.monotonic() - t0)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs of {args.seconds} s, wall "
              f"{min(walls):.1f}-{max(walls):.1f} s, failed share {sorted(shares)}")
        print(f"   {'metric':<16}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            unsteady += not steady
            print(f"   {m['name']:<16}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{spread:>9.3f}"
                  f"{m['bound']:>8.2f}{'' if steady else '  UNSTEADY'}")
        if len(shares) != 1:
            unsteady += 1
            print("   failed share differs between runs")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
