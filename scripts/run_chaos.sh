#!/usr/bin/env bash
# Chaos acceptance sweep: run the fault-injection gauntlet and the
# disk-fault gauntlet — store-backed crash/corrupt/recover (torn write,
# bit flip, dropped snapshot) — over the given seeds, print each run's
# verdict (a failed run names every clause it broke), and fail loudly
# if any run failed.  Last, run the pytest rows marked ``chaos`` (the
# two fixed-seed sweeps and the generated-plan property at length).
#
# Usage:  scripts/run_chaos.sh [seed ...]      (defaults: 0 1 2)

set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=("${@:-0 1 2}")

PYTHONPATH=src python - "${SEEDS[@]}" <<'PY'
import sys

from repro.faults import (
    DISK_SCENARIOS,
    GauntletConfig,
    run_disk_fault_gauntlet,
    run_gauntlet,
)

seeds = [int(arg) for word in sys.argv[1:] for arg in word.split()]


def runs():
    for seed in seeds:
        yield run_gauntlet(GauntletConfig(seed=seed))
    for scenario in DISK_SCENARIOS:
        for seed in seeds:
            yield run_disk_fault_gauntlet(scenario, seed=seed)


total = failures = 0
for result in runs():
    print(result.render())
    total += 1
    failures += not result.ok
if failures:
    print(f"\nchaos gauntlets: {failures}/{total} runs FAILED")
    sys.exit(1)
print(f"\nchaos gauntlets: all {total} runs passed")
PY

PYTHONPATH=src python -m pytest -q -m chaos
