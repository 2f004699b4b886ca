#!/usr/bin/env python3
"""Run one hcs benchmark workload, building the benchmark on first use.

    python3 hcsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper_sweep, warm_hits, drift_mix, wide_hier, or `all` to run each
in turn. Run it from the root of the repository. The benchmark is compiled
from hcsbench/ and src/ into .bench_build/hcsbench (CMake, Release) whenever
a source is newer than the binary; build output goes to standard error.
The last line of standard output is the run's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "hcsbench")
BINARY = os.path.join(BUILD, "hcsbench")
# Sockets and Chrome traces go here. The path stays relative to the
# repository root so UNIX socket paths stay short wherever the checkout is.
SCRATCH = os.path.join(".bench_build", "run")
WORKLOADS = ["paper_sweep", "warm_hits", "drift_mix", "wide_hier"]


def newest_source():
    newest = 0.0
    for top in (HERE, os.path.join(ROOT, "src")):
        for directory, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cpp", ".hpp", ".txt")):
                    newest = max(newest,
                                 os.path.getmtime(os.path.join(directory, name)))
    return newest


def build():
    if os.path.exists(BINARY) and os.path.getmtime(BINARY) >= newest_source():
        return True
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    os.chdir(ROOT)
    if not build():
        print("hcsbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        code = subprocess.run(
            [BINARY, "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--scratch", SCRATCH]).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
