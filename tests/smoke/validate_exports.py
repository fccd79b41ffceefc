#!/usr/bin/env python3
"""Validate the figure-bench telemetry exports (ctest smoke_telemetry_exports).

Run from the directory holding smoke_out/, which the smoke_bench_fig16,
smoke_bench_fig17 and smoke_bench_ablation_powercap tests fill: at least
three CSV and three JSONL exports, none empty, every value finite.
"""
import csv, glob, json, math, sys

csvs = sorted(glob.glob("smoke_out/*.csv"))
jsonls = sorted(glob.glob("smoke_out/*.jsonl"))
if len(csvs) < 3 or len(jsonls) < 3:
    sys.exit(f"missing exports: {csvs} {jsonls}")
for path in csvs:
    with open(path) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        sys.exit(f"{path}: empty export")
    for row in rows:
        for col in ("t_s", "dt_s", "value"):
            if not math.isfinite(float(row[col])):
                sys.exit(f"{path}: non-finite {col}: {row}")
for path in jsonls:
    points = 0
    with open(path) as f:
        for line in f:
            obj = json.loads(line)
            if "v" in obj:
                points += 1
                if not math.isfinite(obj["v"]):
                    sys.exit(f"{path}: non-finite value: {obj}")
    if points == 0:
        sys.exit(f"{path}: no sample points")
print(f"validated {len(csvs)} CSV + {len(jsonls)} JSONL exports")
