#!/usr/bin/env python3
"""Build the rvv-svm benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_small|serve_large|paper_tables \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # unit tests of the statistics code

Run from the root of a checkout.  The first call configures and builds the
libraries under src/ plus the perfbench driver into .bench_build/perfbench
(about half a minute on 4 cores); later calls rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is the driver's JSON
result.  The exit status is the driver's: 0 when every output was correct.
A traced run (--trace 1) also writes a Chrome trace (open it in Perfetto)
to .bench_build/perfbench/trace-<workload>-seed<N>.json, and its result
lists every per-layer metric of BENCHMARK.json: one the workload does not
exercise reads 0 (named on stderr).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def fill_layers(line, workload):
    """Adds every per-layer metric of BENCHMARK.json that the result lacks, as 0."""
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(manifest):
        return line
    with open(manifest) as f:
        wanted = json.load(f)["per_layer"]
    result = json.loads(line)
    missing = [m for m in wanted if m["name"] not in result["metrics"]]
    for m in missing:
        result["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
    if missing:
        print("perfbench: not exercised by %s, reported as 0: %s"
              % (workload, " ".join(m["name"] for m in missing)), file=sys.stderr)
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["serve_small", "serve_large", "paper_tables"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    if not args.trace:
        return subprocess.run(cmd).returncode
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if lines and lines[-1].startswith("{"):
        lines[-1] = fill_layers(lines[-1], args.workload)
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
