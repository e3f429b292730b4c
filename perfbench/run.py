#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is configured and built under
$CARGO_TARGET_DIR (default .bench_build)/perfbench from the repository's own
sources; later runs only rebuild what changed. The benchmark's report goes to
standard output and its last line is the JSON result.

Steadiness mode runs every named workload repeatedly, interleaved, one seed
per round, and prints the median and quartiles of each end-to-end metric:
    python3 perfbench/run.py --steadiness 10 [--workloads a,b] [--seconds s]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The workloads BENCHMARK.json lists.
WORKLOADS = ["mail-mixed", "check-verify", "check-bugfind"]
# A run that has not finished by then is stopped and counts as failed.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: %s did not finish in %d s\n" % (workload, RUN_TIMEOUT_S))
        return 3, None
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def steadiness(binary, workloads, rounds, seconds):
    values = {w: {} for w in workloads}
    for r in range(rounds):
        for w in workloads:
            code, result = run_once(binary, w, r + 1, seconds, 0, echo=False)
            if code != 0 or result is None or not result.get("correct"):
                print("round %d %s: FAILED (exit %d)" % (r + 1, w, code))
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %s: %s" % (r + 1, w, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
            sys.stdout.flush()
    print("\n%-18s %-14s %12s %12s %12s %8s" % ("workload", "metric", "q1", "median", "q3",
                                                "iqr/med"))
    for w in workloads:
        for name, vs in values[w].items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-18s %-14s %12.6g %12.6g %12.6g %8.4f" % (w, name, q1, med, q3, spread))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="ROUNDS")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    if args.steadiness is None and args.workload is None:
        p.error("--workload or --steadiness is required")

    binary = build()
    if binary is None:
        return 2
    if args.steadiness is not None:
        steadiness(binary, args.workloads.split(","), args.steadiness, args.seconds)
        return 0
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
