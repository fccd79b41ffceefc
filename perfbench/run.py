#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady_sweep|memory_stall|service_mix \
        --seed N --seconds S --trace 0|1 [perfbench flags...]

The program and the simulator libraries are built in Release mode into
$CARGO_TARGET_DIR (default .bench_build) under the repository root.
Build output goes to stderr, so the last line of stdout is the program's
JSON result.  Any other flag is passed to the program (see
perfbench/BENCHMARK.md).  Exits non-zero without a result when the build
fails, e.g. in a tree without the simulator sources.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run measures for --seconds plus at most one pass; the limit only
# guards against a hung program.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            sys.exit(proc.returncode or 1)
    return os.path.join(out, "perfbench")


def flag_value(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    binary = build()
    args = list(argv)
    if "--expected" not in args:
        args += ["--expected", os.path.join(HERE, "expected.json")]
    if "--trace-out" not in args and flag_value(args, "--trace") == "1":
        workload = flag_value(args, "--workload") or "run"
        path = os.path.join(build_dir(), "trace-%s.jsonl" % workload)
        if os.path.exists(path):
            os.remove(path)
        args += ["--trace-out", path]
    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: program timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
