#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds 30]

Runs the untraced benchmark once per seed (seeds 1 to ``--runs``) on each
workload, then prints, per metric, the median
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound and a third of it from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling build-and-run script)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", default=None)
    args = p.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if not run.build():
        return 1
    ok = True
    for workload in run.WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            r = run.run_once(workload, seed, seconds, False)
            if r is None or not r["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect: {r}")
                ok = False
                continue
            runs.append(r)
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: {values}")
        print(f"\n{workload}: {len(runs)} runs, {seconds} s each")
        print(f"  {'metric':18} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:18} {med:14.4f} {spread:8.4f} {bound:6.2f} {bound / 3:8.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
