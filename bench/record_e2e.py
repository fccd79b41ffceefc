#!/usr/bin/env python3
"""Record the paper set's end-to-end wall-clock as an interleaved A/B.

Usage:

    python3 bench/record_e2e.py --base BUILD_A --change BUILD_B \
        [--pairs N] [--out BENCH_e2e.json]

BUILD_A and BUILD_B are Release build trees (``cmake -DCMAKE_BUILD_TYPE=
Release``) of the two commits, each with the ``bench_fig*`` and
``bench_table*`` targets built.  Every bench runs at its default flags,
stdout discarded.  Each pair runs the bench once on each side, the
order alternating between pairs, so host drift lands on both sides
alike.  The report gives, per bench and for the whole set, each side's
median and quartiles in seconds and the number of pairs the change won.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time


def paper_benches(build):
    bench_dir = os.path.join(build, "bench")
    names = sorted(n for n in os.listdir(bench_dir)
                   if n.startswith(("bench_fig", "bench_table"))
                   and os.access(os.path.join(bench_dir, n), os.X_OK))
    if not names:
        sys.exit("no bench_fig*/bench_table* binaries in " + bench_dir)
    return names


def wall(build, name):
    start = time.perf_counter()
    subprocess.run([os.path.join(build, "bench", name)], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (
        xs[0], xs[0], xs[0])
    return {"median_s": round(statistics.median(xs), 4),
            "q1_s": round(q1, 4), "q3_s": round(q3, 4),
            "runs_s": [round(x, 4) for x in xs]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")

    names = paper_benches(args.change)
    if names != paper_benches(args.base):
        sys.exit("the two build trees hold different bench sets")
    times = {side: {n: [] for n in names} for side in ("base", "change")}
    totals = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("change", "base") if i % 2 else ("base", "change")
        for side in order:
            build = args.base if side == "base" else args.change
            total = 0.0
            for n in names:
                t = wall(build, n)
                times[side][n].append(t)
                total += t
            totals[side].append(total)
            print("pair %d %s: %.2f s" % (i + 1, side, total),
                  file=sys.stderr)

    def row(name, base, change):
        return {"name": name, "base": summary(base),
                "change": summary(change),
                "change_faster_pairs": sum(c < b for b, c in
                                           zip(base, change))}

    report = {
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc)
                    .isoformat(timespec="seconds"),
            "num_cpus": os.cpu_count(),
            "build_type": "Release",
            "flags": "default (no arguments)",
            "pairs": args.pairs,
            "method": "interleaved A/B: each pair runs every bench once "
                      "per side, side order alternating between pairs",
        },
        "benches": [row(n, times["base"][n], times["change"][n])
                    for n in names],
        "total": row("paper set", totals["base"], totals["change"]),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
