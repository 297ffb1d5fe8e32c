#!/usr/bin/env python3
"""Build the CRIMES benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload cow-fluid --seed 1
    python3 perfbench/run.py --self-test

Workloads: cow-fluid, web-sync, host-overload, attack-response. The last line
of standard output is the JSON result; the table above it names every metric
with its unit and sample count. --trace 1 reports the per-layer metrics and
writes the spans to <build dir>/spans/<workload>-seed<N>.jsonl.
--seconds defaults to run_seconds in BENCHMARK.json, the run length the
bounds there were set for. --self-test runs the wrapper transparency test
instead.

The build tree lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cow-fluid", "web-sync", "host-overload", "attack-response")


def default_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return int(json.load(f)["run_seconds"])


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if args.seconds is None:
        args.seconds = default_seconds()

    out = build_dir()
    if not build(out):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "transparency_test"),
                               str(args.seed)]).returncode

    cmd = [os.path.join(out, "crimes_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.jsonl" % (args.workload,
                                                         args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
