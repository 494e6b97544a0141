#!/usr/bin/env python3
"""The benchmark's own test.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

For every workload in BENCHMARK.json it checks that:
  * a plain run answers everything correctly and prints exactly the
    end-to-end metrics BENCHMARK.json declares, with their units;
  * a traced run prints exactly the declared per-layer metrics;
  * a run fed one deliberately wrong answer (--canary) reports
    failed > 0 and correct = false;
  * the same seed gives the same input digest.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys


def run(here, workload, seed, seconds, trace=0, canary=False):
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if canary:
        cmd.append("--canary")
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("%s: no output from %s" % (workload, " ".join(cmd)))
    digest = next((l for l in lines if " digest " in l), "")
    return json.loads(lines[-1]), digest.split(" digest ")[-1]


def expect(cond, message):
    if not cond:
        print("FAIL " + message)
        sys.exit(1)
    print("ok   " + message)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in (w["name"] for w in bench["workloads"]):
        plain, digest = run(here, w, 7, args.seconds)
        expect(plain["correct"] and plain["failed"] == 0 and
               plain["attempted"] > 0, w + ": plain run answers correctly")
        expect({n: m["unit"] for n, m in plain["metrics"].items()} == e2e,
               w + ": prints every end-to-end metric with its unit")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               w + ": no end-to-end metric reads 0")

        traced, _ = run(here, w, 7, args.seconds, trace=1)
        expect(traced["correct"] and traced["failed"] == 0,
               w + ": traced run answers correctly")
        expect({n: m["unit"] for n, m in traced["metrics"].items()} == layers,
               w + ": prints every per-layer metric with its unit")

        canary, canary_digest = run(here, w, 7, args.seconds, canary=True)
        expect(canary["failed"] > 0 and not canary["correct"],
               w + ": the wrong-answer canary is caught")
        expect(digest and digest == canary_digest,
               w + ": the same seed gives the same input digest")


if __name__ == "__main__":
    main()
