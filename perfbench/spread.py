#!/usr/bin/env python3
"""Run one workload several times with distinct seeds and report, for each
metric, the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds 20] [--trace 0] [--out FILE]

Each run is `python3 perfbench/run.py ...`; the JSON results are appended,
one per line, to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    results = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.returncode != 0:
            sys.exit("seed %d: exit %d" % (seed, p.returncode))
        r = json.loads(p.stdout.strip().splitlines()[-1])
        results.append(r)
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": seed, "result": r}) + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, r["correct"], r["attempted"], r["failed"]),
              file=sys.stderr)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("%s: %d runs, failed share %s, all correct: %s"
          % (a.workload, len(results), shares, all(r["correct"] for r in results)))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print("  %-24s median %14.6g  spread %6.3f  min %12.6g  max %12.6g"
              % (name, med, spread, min(vals), max(vals)))


if __name__ == "__main__":
    main()
