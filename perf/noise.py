#!/usr/bin/env python3
"""Noise study for the benchmark in BENCHMARK.json.

Runs the benchmark command on every workload (trace off) as two sets of
10 runs, A and B, interleaved A, B, A, B, ... with a different seed for
every run. For each workload and end-to-end metric it prints each set's
median, quartiles (statistics.quantiles, n=4), min and max, the relative
spread (Q3 - Q1) / median, and how far set B's median moved from set A's,
as a Markdown table. These are the numbers the bounds in BENCHMARK.json
are set from.

Run from the root of a checkout:

    python3 perf/noise.py
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported incorrect output")
    return result, elapsed


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | set | median | Q1 | Q3 | min | max "
          "| spread | B/A - 1 | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for name in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        longest = 0.0
        for i in range(RUNS):
            for label, base in (("A", 1000), ("B", 2000)):
                result, elapsed = run_once(bench["command"], name, base + i,
                                           bench["run_seconds"])
                longest = max(longest, elapsed)
                sets[label].append(result)
        for metric, bound in bounds.items():
            d = {label: describe([r["metrics"][metric]["value"] for r in rs])
                 for label, rs in sets.items()}
            shift = d["B"]["median"] / d["A"]["median"] - 1
            for label in ("A", "B"):
                s = d[label]
                print(f"| {name} | {metric} | {label} | {s['median']:.6g} "
                      f"| {s['q1']:.6g} | {s['q3']:.6g} | {s['min']:.6g} "
                      f"| {s['max']:.6g} | {s['spread']:.3f} "
                      f"| {shift:+.3f} | {bound} |")
        print(f"<!-- {name}: longest run {longest:.1f} s -->")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
