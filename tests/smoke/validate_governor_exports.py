#!/usr/bin/env python3
"""Validate the governed exports in gov_a/ (run by governor.sh).

One bench_governor_compare export per policy; every governed policy
(all but `none`) must carry the governor.* epoch series and the
power.rail.* gauges.
"""
import csv, glob, sys

paths = sorted(glob.glob("gov_a/governor_compare_*.csv"))
if len(paths) < 4:
    sys.exit(f"expected one export per policy, got {paths}")
for path in paths:
    with open(path) as f:
        series = {row["series"] for row in csv.DictReader(f)}
    missing = [s for s in ("governor.freq_mhz", "governor.vdd_v",
                           "governor.power_w", "governor.epochs",
                           "power.rail.vdd_w", "power.rail.vdd_a")
               if s not in series]
    if "_none" not in path and missing:
        sys.exit(f"{path}: missing governor series {missing}")
print(f"validated {len(paths)} governed exports")
