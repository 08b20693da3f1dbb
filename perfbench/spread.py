#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads plan,serve --seeds 1-10 \
        [--seconds N] [--json summary.json]

Runs perfbench/run.py once per workload and seed (untraced), then prints,
for each end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json.  A run that fails or reports correct=false stops the
script with exit code 1.  --json writes every value with the provenance
line of each run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr[-4000:])
        sys.exit(f"spread: {workload} seed {seed} exited {run.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"spread: {workload} seed {seed} reported wrong outputs")
    provenance = next((json.loads(l.split(" ", 2)[2]) for l in lines
                       if l.startswith("# provenance ")), {})
    return result, provenance


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="plan,certify,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        runs = []
        for seed in seed_list(args.seeds):
            result, provenance = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "provenance": provenance,
                         "metrics": result["metrics"]})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
                flush=True)
        stats = {}
        print(f"\n{workload}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            stats[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": spread, "bound": bounds[name]}
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print(f"  {name:<24}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bounds[name]:>8}{flag}")
        summary[workload] = {"seconds": seconds, "runs": runs,
                             "stats": stats}
        print(flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
