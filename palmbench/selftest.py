#!/usr/bin/env python3
"""Self-test of the Palm benchmark.

    python3 palmbench/selftest.py [--binary PATH]

Run from the root of a checkout. Checks that
  1. a tiny run of every workload emits every end-to-end metric of
     BENCHMARK.json with its unit, all answers correct and no failed
     operation (error ratio 0, i.e. success_ratio 1);
  2. a tiny traced run of every workload emits every per-layer metric;
  3. a perturbed expected answer is caught: the run exits non-zero and
     reports correct = false;
  4. run.py in a directory holding only BENCHMARK.json and the benchmark
     exits non-zero without printing a result.
With --binary the runs use an already built benchmark binary instead of
run.py (the CMake test does this). Exits 0 when every check passes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, args):
    proc = subprocess.run(command + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = ([os.path.abspath(args.binary)] if args.binary
               else spec["command"])
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, err = run(command, [
                "--workload", workload, "--seed", "7", "--seconds", "3",
                "--trace", trace, "--tiny"])
            what = "%s trace=%s" % (workload, trace)
            if code != 0 or result is None:
                sys.stderr.write(err)
                expect(False, what + ": exit %d, no result" % code)
                continue
            expect(result["correct"] is True, what + ": answers correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   what + ": no failed operation")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(metrics) == set(wanted),
                   what + ": exactly the %s metrics" % key)
            expect(all(metrics[n]["unit"] == u
                       for n, u in wanted.items() if n in metrics),
                   what + ": units match BENCHMARK.json")
            if trace == "0":
                expect(metrics.get("success_ratio", {}).get("value") == 1,
                       what + ": error ratio 0")

    code, result, _ = run(command, [
        "--workload", "astro_explore", "--seed", "7", "--seconds", "3",
        "--trace", "0", "--tiny", "--perturb"])
    expect(code != 0 and result is not None and result["correct"] is False,
           "perturbed expected answer is caught")

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-",
                               dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path))
        proc = subprocess.run(spec["command"] + [
            "--workload", "astro_explore", "--seed", "1", "--seconds", "1",
            "--trace", "0"], cwd=scratch, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "no sources: non-zero exit, no result")
    finally:
        shutil.rmtree(scratch)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
