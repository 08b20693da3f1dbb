#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/tests/determinism_test.py --binary PATH --out DIR \
        [--seconds N]

Registered as the `perfbench_determinism` test of perfbench/CMakeLists.txt
(`ctest --test-dir .bench_build/perfbench`).  For every workload it runs
seed 1 untraced, seed 1 traced, and the held-out seed 9001 untraced, and
checks that:

* every run exits 0 and reports correct=true, failed=0 (error_rate 0);
* the two seed-1 runs agree exactly on every per-op output digest, on the
  modeled totals and on the deterministic per-layer counts;
* the modeled end-to-end totals are the same on the held-out seed (the
  workloads are built so that they do not depend on the seed);
* the printed metric names and units are exactly BENCHMARK.json's;
* the traced run wrote Chrome trace-event JSON whose spans carry name,
  start, end, parent and request id, with every async begin matched.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HELD_OUT_SEED = 9001

DETERMINISTIC_LAYERS = {
    "plan": ["core.eval_cache.hits", "core.eval_cache.misses",
             "core.interlayer_links", "validate.diagnostics"],
    "certify": ["core.interlayer_links", "codegen.commands",
                "hw.dram_busy_mcycles", "hw.pe_busy_mcycles",
                "hw.exposed_mcycles", "analysis.depgraph_nodes",
                "analysis.depgraph_edges", "analysis.opt.layers_reordered",
                "analysis.opt.commands_moved", "analysis.opt.barriers_elided",
                "analysis.opt.transfers_coalesced",
                "analysis.critical_path_mcycles", "analysis.stall_kcycles"],
    "serve": [],
}
SEED_INDEPENDENT = ["offchip_mb", "model_latency_mcycles"]

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL: " + message, flush=True)


def run(binary, out, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    label = f"{workload} seed {seed} trace {trace}"
    check(proc.returncode == 0,
          f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.splitlines()[-1])
    check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
          f"{label}: correct={last['correct']} failed={last['failed']}")
    path = os.path.join(out, f"perfbench-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        result = json.load(handle)
    print(f"ok: {label} ({last['attempted']} ops)", flush=True)
    return last, result


def check_names(label, printed, expected):
    got = {name: entry["unit"] for name, entry in printed.items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, f"{label}: metric names/units differ from "
          f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")


def check_trace(path):
    with open(path) as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    open_async = {}
    spans = 0
    for e in events:
        if e["ph"] == "M":
            continue
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            check(key in e, f"{path}: event without {key}: {e}")
        if e["ph"] == "X":
            spans += 1
            check(e["dur"] >= 0 and {"span", "parent", "request"} <=
                  set(e["args"]), f"{path}: bad complete event {e}")
        elif e["ph"] == "b":
            spans += 1
            open_async[e["id"]] = e["ts"]
        elif e["ph"] == "e":
            check(e["id"] in open_async and open_async.pop(e["id"]) <= e["ts"],
                  f"{path}: async end without begin {e}")
    check(not open_async, f"{path}: {len(open_async)} async spans not closed")
    check(spans > 0, f"{path}: no spans")
    check("otherData" in trace and "git_sha" in trace["otherData"],
          f"{path}: no provenance")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for workload in [w["name"] for w in bench["workloads"]]:
        plain, a = run(args.binary, args.out, workload, 1, args.seconds, 0)
        traced, b = run(args.binary, args.out, workload, 1, args.seconds, 1)
        _, c = run(args.binary, args.out, workload, HELD_OUT_SEED,
                   args.seconds, 0)
        check_names(f"{workload} untraced", plain["metrics"],
                    bench["end_to_end"])
        check_names(f"{workload} traced", traced["metrics"],
                    bench["per_layer"])
        check(a["digests"] == b["digests"] and len(a["digests"]) > 0,
              f"{workload}: per-op digests differ between two seed-1 runs")
        check(a["modeled"] == b["modeled"],
              f"{workload}: modeled totals differ between two seed-1 runs")
        for name in DETERMINISTIC_LAYERS[workload]:
            check(a["per_layer"][name] == b["per_layer"][name],
                  f"{workload}: {name} differs between two seed-1 runs")
        for name in SEED_INDEPENDENT:
            check(a["modeled"][name] == c["modeled"][name],
                  f"{workload}: {name} differs on the held-out seed")
        check_trace(os.path.join(args.out, f"trace-{workload}-seed1.json"))
    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all determinism checks passed")


if __name__ == "__main__":
    main()
