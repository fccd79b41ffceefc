#!/usr/bin/env bash
# Governed telemetry round-trip (ctest smoke_governor_roundtrip).
#
#   governor.sh WORKDIR BENCH_GOVERNOR_COMPARE
#
# Determinism is part of the telemetry contract: two identical governed
# comparisons must export byte-identical CSV/JSONL files (the
# governor.* epoch series and power.rail.* gauges included), and every
# governed export must carry those series.
validator="$(cd "$(dirname "$0")" && pwd)/validate_governor_exports.py"
source "$(dirname "$0")/lib.sh"
smoke_workdir "$1"
compare=$2

"$compare" --out gov_a
"$compare" --out gov_b
for f in gov_a/governor_compare_*.csv \
         gov_a/governor_compare_*.jsonl; do
    [ -f "gov_b/$(basename "$f")" ] || continue
    cmp "$f" "gov_b/$(basename "$f")"
done
python3 "$validator"
