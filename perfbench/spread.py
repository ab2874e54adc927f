#!/usr/bin/env python3
"""Run one workload of the benchmark under several seeds and report, for
each metric, its median and its spread: the distance between the first
and third quartiles as a share of the median, compared with the bound
BENCHMARK.json gives it.

    python3 perfbench/spread.py <workload> [--runs N] [--first-seed S]
                                [--same-seed]

Run from the repository root; the benchmark runs through the `command`
in BENCHMARK.json. Exits 1 when a run fails or a spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat the first seed instead of counting up")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = spec["command"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    ok = True
    for run in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else run)
        argv = command + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} of {result['attempted']} failed")
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}  runs")
    for name, series in values.items():
        series = [v for v in series if v is not None]
        if len(series) < 2:
            continue
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = " OVER"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = " >1/3"
        shown = f"{bound:.2f}" if bound is not None else "-"
        runs = " ".join(f"{v:.4g}" for v in series)
        print(f"{name:<32} {median:>14.4f} {spread:>8.4f} {shown:>6}{flag:<5}  {runs}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
