#!/usr/bin/env python3
"""Run-to-run spread of the dvbp benchmark.

Runs every workload named in BENCHMARK.json (or those given with
--workload) once per seed, untraced, and prints for each end-to-end metric
its median, quartiles, sample count and spread: the distance between the
quartiles as a share of the median, next to the bound BENCHMARK.json
fixes for it. Run from the root of a dvbp checkout:

    python3 perfbench/spread.py --seeds 10 [--workload served] [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [l for l in lines if l.startswith("check") and "FAILED" in l]
        sys.exit(f"{workload} seed {seed}: incorrect\n" + "\n".join(failed))
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(bench, w, seed)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{w}: {args.seeds} runs")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else \
                "  <- over a third of the bound" if spread <= m["bound"] else "  <- OVER THE BOUND"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(vs):>3} "
                  f"{spread:>8.4f} {m['bound']:>6}{mark}")
        print()
    print(f"largest spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
