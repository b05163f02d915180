#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload once per seed and
report, per end-to-end metric, the median and the spread (distance between
the first and third quartile as a share of the median) against the metric's
bound in BENCHMARK.json.

Run from the repository root, e.g.:

    python3 perfbench/spread.py --seeds 10 --workloads sim-sweep real-data

A spread above a third of its bound is flagged; setup_s is reported but not
held to its bound (only its median is compared between commits).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    a = p.parse_args()

    worst = 0.0
    for w in a.workloads:
        runs = [run_once(w, s, a.seconds)
                for s in range(a.first_seed, a.first_seed + a.seeds)]
        wrong = sum(r["failed"] for r in runs)
        print("%s: %d runs, %d wrong results, all correct: %s"
              % (w, len(runs), wrong, all(r["correct"] for r in runs)))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
            print("  %-12s median %-12.6g spread %6.2f%% (bound %4.0f%%)%s"
                  % (m["name"], med, 100 * spread, 100 * m["bound"], flag))
            print("    " + " ".join("%.5g" % v for v in vals))
    print("largest spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
