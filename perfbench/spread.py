#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs the benchmark once
per seed on each workload and prints, per metric, the median and the
interquartile range as a share of the median (statistics.quantiles,
n=4), beside the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--seconds S]
                                [--workload NAME ...]

Use it to confirm the benchmark is steady before relying on a bound: a
spread near its bound means two sets of runs of the same code can
disagree by more than the bound allows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: %d of %d failed" % (
                    workload, seed, result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print("%-14s %-16s median %12.6g  spread %6.2f%%  bound "
                  "%5.1f%%" % (workload, name, med, 100 * spread,
                               100 * bounds[name]), flush=True)
    print("worst spread / bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
