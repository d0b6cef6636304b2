#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and reports, for
each end-to-end metric, the median and the interquartile spread as a
share of the median (statistics.quantiles, n=4) next to the metric's bound
in BENCHMARK.json.

    python3 palmbench/steady.py --workload seismic_stream --seeds 1-10

Run from the root of a checkout. Prints one table per workload and a JSON
summary line; a spread of a third of its bound or more is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seed_list(args.seeds):
            result = run_once(spec, workload, seed, spec["run_seconds"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("== %s" % workload)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < metric["bound"] / 3 else "  <-- >= bound/3"
            print("%-16s median %12.5g  spread %6.3f  bound %5.2f%s"
                  % (metric["name"], med, spread, metric["bound"], flag))
            summary[workload][metric["name"]] = {
                "median": med, "spread": round(spread, 4), "values": vals}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
