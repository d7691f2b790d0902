#!/usr/bin/env python3
"""Build the CoolAir benchmark from source and run it.

    python3 perfbench/run.py --workload <free-cooled|ac-bound> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seconds <s>]

Run from the root of a checkout. The first form builds the benchmark
package (``perfbench/Cargo.toml``) into ``$CARGO_TARGET_DIR``, default
``.bench_build``, then runs the untraced binary (``--trace 0``, end-to-end
metrics) or the traced one (``--trace 1``, per-layer metrics). The last
line of standard output is the JSON result. A failed build exits non-zero
without printing a result.

The traced run runs the untraced binary and then the traced one, each for
half of ``--seconds``, and adds the cost of tracing to the per-layer
metrics: for each phase, the traced binary's end-to-end figure against
the untraced binary's (``trace.<phase>_overhead_pct``), and their mean
(``trace.overhead_pct``).

``--self-test`` runs the traced run twice on one seed per workload and
requires every count metric to repeat exactly, then reruns the output
checks, untraced and traced, on a held-out seed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["free-cooled", "ac-bound"]
# Metrics that count work rather than time it: they must repeat exactly.
COUNT_METRIC = re.compile(
    r"(_calls$|^alloc\.|^runner\.jobs_|^runner\.artifacts$|^runner\.store_bytes$|_hit_ratio"
    r"|ticks_per_day$|_tick_share$|^learn\.rollouts$|^fleet\.lanes_per_container_epoch$)"
)
SELF_TEST_SEED = 1
HELD_OUT_SEED = 917_203
# The end-to-end figure each phase's cost of tracing is read from, and
# whether higher is better.
OVERHEAD_FROM = {
    "annual": ("sim_days_per_s", True),
    "campaign": ("cold_s", False),
    "serve": ("step_p10_us", False),
}
E2E_LINE = re.compile(r"^e2e\s+(\S+) = (\S+) ")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins",
    ]
    # Build output goes to stderr: stdout carries only the benchmark's
    # report and its JSON last line.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def binary(trace):
    name = "perfbench-traced" if trace else "perfbench"
    return os.path.join(target_dir(), "release", name)


def run_binary(workload, seed, seconds, trace):
    """Runs one benchmark process; returns its report lines and its JSON
    result (None if it failed)."""
    cmd = [binary(trace), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_traced(workload, seed, seconds):
    """The traced run: the untraced binary, then the traced one, each for
    half of ``seconds``. Returns the traced report lines and the per-layer
    result with the cost of tracing added (None if either run failed)."""
    half = float(seconds) / 2
    plain_lines, plain = run_binary(workload, seed, half, False)
    lines, traced = run_binary(workload, seed, half, True)
    if plain is None or traced is None:
        return plain_lines + lines, None
    traced_e2e = {m.group(1): float(m.group(2))
                  for m in map(E2E_LINE.match, lines) if m}
    overheads = []
    for phase, (name, higher_is_better) in OVERHEAD_FROM.items():
        before, after = plain["metrics"][name]["value"], traced_e2e[name]
        pct = (before / after if higher_is_better else after / before) * 100.0 - 100.0
        overheads.append(pct)
        traced["metrics"][f"trace.{phase}_overhead_pct"] = {"value": pct, "unit": "%"}
        lines.append(f"layer trace.{phase}_overhead_pct = {pct:.6f} %  "
                     f"[{name}: {before:.6f} untraced, {after:.6f} traced]")
    mean = sum(overheads) / len(overheads)
    traced["metrics"]["trace.overhead_pct"] = {"value": mean, "unit": "%"}
    lines.append(f"layer trace.overhead_pct = {mean:.6f} %  [mean of the three phases]")
    lines.append(f"untraced run of {half} s before the traced one: "
                 f"{plain['attempted']} checks, {plain['failed']} failed")
    traced["correct"] = traced["correct"] and plain["correct"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return lines, traced


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark once; returns its JSON result (or None)."""
    if trace:
        return run_traced(workload, seed, seconds)[1]
    return run_binary(workload, seed, seconds, False)[1]


def self_test(seconds):
    ok = True
    for workload in WORKLOADS:
        a = run_once(workload, SELF_TEST_SEED, seconds, True)
        b = run_once(workload, SELF_TEST_SEED, seconds, True)
        if a is None or b is None:
            print(f"{workload}: traced run failed")
            ok = False
            continue
        counts = sorted(n for n in a["metrics"] if COUNT_METRIC.search(n))
        differ = [n for n in counts
                  if a["metrics"][n]["value"] != b["metrics"].get(n, {}).get("value")]
        print(f"{workload}: {len(counts)} count metrics, {len(differ)} differ between "
              f"two traced runs of seed {SELF_TEST_SEED}: {differ or 'none'}")
        ok = ok and not differ and a["correct"] and b["correct"]
        for trace in (False, True):
            r = run_once(workload, HELD_OUT_SEED, seconds, trace)
            good = r is not None and r["correct"] and r["failed"] == 0
            detail = "no result" if r is None else f"{r['attempted']} checks, {r['failed']} failed"
            print(f"{workload}: held-out seed {HELD_OUT_SEED}, trace {int(trace)}: "
                  f"{'pass' if good else 'FAIL'} ({detail})")
            ok = ok and good
    print("self-test:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args(argv)
    if not args.self_test and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(args.seconds)
    if args.trace == "0":
        return subprocess.run([binary(False)] + argv, cwd=ROOT).returncode
    lines, result = run_traced(args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    if result is None:
        print("perfbench: traced run failed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
