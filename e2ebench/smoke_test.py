#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/smoke_test.py [--seconds 2]

For every workload in BENCHMARK.json it makes three short runs (seed 1
untraced, seed 2 untraced, seed 1 traced) and checks that

  * each run exits 0 and ends with the result JSON, correct, with no
    failed frame;
  * the untraced runs emit exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, each with its declared unit and a
    finite value;
  * another seed changes the inputs (their printed fingerprint) but not
    the metric names, and the same seed reproduces the same inputs.

Last, it runs the benchmark from a directory holding only BENCHMARK.json
and the benchmark's own files, where it must fail without a result.
Exits 0 when every check passes.
"""
import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def check_run(proc, spec, trace, label, problems):
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append(f"{label}: last line is not JSON")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} unit {m.get('unit')} != {unit}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    match = re.search(r"inputs fingerprint ([0-9a-f]+)", proc.stdout)
    if match is None:
        problems.append(f"{label}: no inputs fingerprint line")
        return None
    return match.group(1), sorted(got)


def bare_checkout_fails(spec, problems):
    """The benchmark alone (no repository sources) must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec, spec["workloads"][0]["name"], 1, 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare checkout: benchmark did not fail cleanly")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        a = check_run(run(ROOT, spec, name, 1, args.seconds, 0), spec, 0,
                      f"{name} seed 1", problems)
        b = check_run(run(ROOT, spec, name, 2, args.seconds, 0), spec, 0,
                      f"{name} seed 2", problems)
        t = check_run(run(ROOT, spec, name, 1, args.seconds, 1), spec, 1,
                      f"{name} seed 1 traced", problems)
        if a and b:
            if a[0] == b[0]:
                problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
            if a[1] != b[1]:
                problems.append(f"{name}: metric names changed with the seed")
        if a and t and a[0] != t[0]:
            problems.append(f"{name}: seed 1 inputs not reproducible")
        print(f"{name}: checked", flush=True)
    bare_checkout_fails(spec, problems)

    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
