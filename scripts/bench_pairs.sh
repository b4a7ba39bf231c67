#!/usr/bin/env bash
# Alternating benchmark pairs: this checkout (the change) against another
# checkout of the code it changes (the parent), on one or more workloads
# (comma-separated), one seed.
#
# Each round runs, per workload, one `python -m bench run --workload W
# --seed S --output ...` in each checkout: odd pairs run the parent
# first, even pairs the change first, so an order effect (a warm page
# cache, a CPU frequency step) does not always land on one side.  Both
# sides append to per-workload files under this checkout's git-ignored
# bench/out/; the script ends, per workload, with `python -m bench
# compare` on them, then prints in how many pairs the change's
# throughput was ahead of the parent's run of the same pair, and each
# side's throughput quartiles.  One command thus shows whether the
# claimed workload moved and the others did not.
#
# This checkout's bench/out/nominal.json (the host's reference-chunk
# time, calibrated once per checkout on a host bench/reference.py does
# not list) is copied into the parent first, so both sides scale their
# numbers alike — two calibrations read as a speed-up everywhere.
#
# Usage:  scripts/bench_pairs.sh <parent-checkout> <workload>[,<workload>...] [pairs] [seed]
#         (defaults: 10 pairs, seed 4)

set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-checkout> <workload>[,<workload>...] [pairs] [seed]" >&2
    exit 2
fi
PARENT="$(cd "$1" && pwd)"
IFS=, read -r -a WORKLOADS <<< "$2"
PAIRS="${3:-10}"
SEED="${4:-4}"
cd "$(dirname "$0")/.."
CHANGE="$(pwd)"
OUT="$CHANGE/bench/out"
mkdir -p "$OUT" "$PARENT/bench/out"

# Calibrate here (a no-op on a listed host or when already done), then
# hand the one calibration to the parent.
PYTHONPATH=src python -c "from bench import reference; reference.nominal_s()"
if [ -f "$OUT/nominal.json" ]; then
    cp "$OUT/nominal.json" "$PARENT/bench/out/nominal.json"
fi

STAMP="s$SEED-$(date +%Y%m%d%H%M%S)"
runs() {  # runs <workload> <side>: the file one side's runs append to
    echo "$OUT/pairs-$1-$STAMP-$2.jsonl"
}

for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for workload in "${WORKLOADS[@]}"; do
        for side in $order; do
            if [ "$side" = parent ]; then dir="$PARENT"; else dir="$CHANGE"; fi
            (cd "$dir" && PYTHONPATH=src python -m bench run --workload "$workload" \
                --seed "$SEED" --output "$(runs "$workload" "$side")" > /dev/null)
        done
    done
    echo "pair $pair/$PAIRS done"
done

for workload in "${WORKLOADS[@]}"; do
    echo "== $workload"
    PARENT_RUNS="$(runs "$workload" parent)"
    CHANGE_RUNS="$(runs "$workload" change)"
    PYTHONPATH=src python -m bench compare "$PARENT_RUNS" "$CHANGE_RUNS"
    PYTHONPATH=src python - "$workload" "$PARENT_RUNS" "$CHANGE_RUNS" <<'PY'
import json
import statistics
import sys

workload, parent_path, change_path = sys.argv[1:]


def throughputs(path):
    with open(path, encoding="utf-8") as lines:
        return [
            json.loads(line)["workloads"][workload]["end_to_end"]["throughput"]["value"]
            for line in lines
            if line.strip()
        ]


parent, change = throughputs(parent_path), throughputs(change_path)
ahead = sum(b > a for a, b in zip(parent, change))
print(f"change ahead in {ahead}/{len(change)} pairs")
for side, values in (("parent", parent), ("change", change)):
    if len(values) > 1:
        low, median, high = statistics.quantiles(values, n=4)
    else:
        low = median = high = values[0]
    print(f"{side:<7} throughput quartiles {low:.6g} / {median:.6g} / {high:.6g}")
print(f"median ratio change/parent "
      f"{statistics.median(change) / statistics.median(parent):.3f}")
print(f"runs: {parent_path}  {change_path}")
PY
done
