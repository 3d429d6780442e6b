#!/usr/bin/env python3
"""Steadiness report for the resoptd benchmark.

Runs one workload with each of the seeds 1..k and prints for every
metric the median, the quartiles (statistics.quantiles(values, n=4)),
min and max, and the quartile spread as a share of the median next to
the metric's bound from BENCHMARK.json. A spread above a third of its
bound marks the metric as the noisy one. With --sets 2 it runs the
seeds twice, prints the same table for the second set, and how far each
second median moved from the first, the other check a benchmark has to
pass.

Run from the root of the source tree:

    python3 perfbench/steady.py --workload sweep --runs 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True).stdout
    took = time.monotonic() - t0
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    return res, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        values = {name: [] for name in bounds}
        for r in range(args.runs):
            seed = r + 1
            res, took = run_once(bench["command"], args.workload, seed,
                                 bench["run_seconds"])
            print(f"set {s + 1} seed {seed}: {took:.1f} s, "
                  f"{res['attempted']} ops", file=sys.stderr)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        sets.append(values)

    print(f"{args.workload}: seeds 1..{args.runs}")
    for s, values in enumerate(sets):
        print(f"set {s + 1}: {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}  {'vs set 1':>8}")
        for name, bound in bounds.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound / 3:
                flag = "  NOISY" if spread <= bound else "  OVER BOUND"
            move = ""
            if s > 0:
                med1 = statistics.median(sets[0][name])
                move = f"{(med - med1) / med1:+8.1%}" if med1 else ""
            print(f"       {name:22} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(vals):12.5g} "
                  f"{max(vals):12.5g} {spread:7.1%} {bound:6.2f}  {move:>8}{flag}")


if __name__ == "__main__":
    main()
