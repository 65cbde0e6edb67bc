#!/usr/bin/env python3
"""End-to-end benchmark of the resource-manager server.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (target
directory: $CARGO_TARGET_DIR, default `.bench_build`), runs it on the
seeded workload, and prints the stream digest and then, as the last line
of standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are BENCHMARK.json's
`end_to_end` list, from the untraced binary. With `--trace 1` they are its
`per_layer` list, from the traced binary, which alternates traced passes
with untraced ones to measure `trace.overhead_frac`.

A run whose recovered state differs from the uninterrupted one, or that
rejects any line, exits 1 without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN_TIMEOUT_S = 80


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release")


def run_bin(path, args):
    try:
        proc = subprocess.run([path] + args, stdout=subprocess.PIPE, text=True,
                              timeout=BIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(path)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(path)} exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")

    release = build()
    binary = "perfbench_traced" if a.trace else "perfbench"
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    notes, result = run_bin(os.path.join(release, binary), args)
    if not result["correct"] or result["failed"] != 0:
        fail("the run failed its correctness gate")
    wanted = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}")
    for line in notes:
        print(line)
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
