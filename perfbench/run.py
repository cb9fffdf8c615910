#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/METRICS.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) built
against the repository's crates; the build goes to $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the run's JSON
result, printed only after its metric names and units have been checked
against BENCHMARK.json, the one list of workloads and metrics. Any failure
exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return (ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench").resolve()


def check_result(line, spec, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, v in result["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)):
            raise ValueError(f"metric {name}: {v}")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {args.workload!r} is not in BENCHMARK.json")
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--out-dir", str(ROOT / "perfbench" / "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    if done.returncode != 0:
        print(done.stdout, end="", flush=True)
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        check_result(lines[-1], spec, args.trace == "1")
    except (ValueError, KeyError, TypeError) as e:
        fail(f"bad result line: {e}")
    print(lines[-1])


if __name__ == "__main__":
    main()
