#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload random_nests|all --runs 5 [--seconds S]

Runs the benchmark once per seed (1..runs by default, or --first-seed),
then prints, for each end-to-end metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound from BENCHMARK.json. A spread under a third of the
bound is steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    for workload in workloads:
        print("== " + workload)
        spread(bench, workload, args)


def spread(bench, workload, args):
    seconds = args.seconds or bench["run_seconds"]
    here = os.path.dirname(os.path.abspath(__file__))
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: failed %d of %d" %
                  (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "steady" if spread < bound / 3 else
            "within bound" if spread <= bound else "TOO WIDE")
        print("%-16s median %-12.6g spread %6.3f  bound %s  %s" %
              (name, med, spread, bound, flag))


if __name__ == "__main__":
    main()
