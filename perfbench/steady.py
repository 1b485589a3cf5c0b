#!/usr/bin/env python3
"""Steadiness check for the ddws benchmark.

Runs each workload in two sets of runs, each run with its own seed, and
prints for every end-to-end metric each set's median and quartiles, the
spread (inter-quartile distance over the median) and whether the second
set's median is within the metric's bound of the first. One traced run
per workload then gives the tracing overhead: the traced median verdict
time against the untraced one.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads bank_loan,served]

Exits 1 when a spread (other than setup_s's) exceeds its bound, when the
two sets disagree by more than a bound, when the failed share differs
between the sets, or when a run reports wrong answers.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            rows = []
            for seed in seeds:
                r = run(bench, w, seed, 0)
                if not r["correct"]:
                    print(f"{w} seed {seed}: wrong answers")
                    ok = False
                rows.append(r)
            sets.append(rows)
        shares = [
            sorted({r["failed"] / r["attempted"] for r in rows}) for rows in sets
        ]
        print(f"\n{w}: failed share per set {shares}")
        if len(shares[0]) != 1 or shares[0] != shares[1]:
            ok = False
        print(f"  {'metric':22s} {'set':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, rows in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in rows]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                meds.append(med)
                bad = name != "setup_s" and spread > bound
                ok &= not bad
                print(f"  {name:22s} {i + 1:3d} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                      f"{spread:7.4f} {bound:6.3f}  {'SPREAD' if bad else ''}")
            change = meds[1] / meds[0] - 1
            worse = change if m["better"] == "lower" else -change
            agree = worse <= bound
            ok &= agree
            print(f"  {'':22s} second set {change:+.4f} vs first: "
                  f"{'agrees' if agree else 'DISAGREES'}")
        traced = run(bench, w, 1, 1)["metrics"]["trace.verdict_s"]["value"]
        q1, med, q3 = quartiles([r["metrics"]["verdict_s"]["value"] for r in sets[0]])
        print(f"  tracing overhead: traced verdict {traced:.6g} s ({traced / med - 1:+.2%}); "
              f"untraced first set q1 {q1:.6g}, median {med:.6g}, q3 {q3:.6g} s")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
