#!/usr/bin/env bash
# Chaos acceptance sweep: run the fault-injection gauntlet over three
# fixed seeds and fail loudly if any invariant is violated or any
# detector report is missing from / duplicated on the canonical chain.
# Then run the disk-fault gauntlet — store-backed crash/corrupt/recover
# (torn write, bit flip, dropped snapshot) — over the same seeds, and
# last the pytest rows marked ``chaos`` (the two fixed-seed sweeps and
# the generated-plan property at length).
#
# Usage:  scripts/run_chaos.sh [seed ...]      (defaults: 0 1 2)

set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=("${@:-0 1 2}")

PYTHONPATH=src python - "${SEEDS[@]}" <<'PY'
import sys

from repro.faults import GauntletConfig, run_gauntlet

seeds = [int(arg) for word in sys.argv[1:] for arg in word.split()]
failures = 0
for seed in seeds:
    result = run_gauntlet(GauntletConfig(seed=seed))
    print(result.render())
    if not result.ok:
        failures += 1
if failures:
    print(f"\nchaos gauntlet: {failures}/{len(seeds)} seeds FAILED")
    sys.exit(1)
print(f"\nchaos gauntlet: all {len(seeds)} seeds passed")
PY

PYTHONPATH=src python - "${SEEDS[@]}" <<'PY'
import sys

from repro.faults import DISK_SCENARIOS, run_disk_fault_gauntlet

seeds = [int(arg) for word in sys.argv[1:] for arg in word.split()]
failures = 0
runs = 0
for scenario in DISK_SCENARIOS:
    for seed in seeds:
        result = run_disk_fault_gauntlet(scenario, seed=seed)
        print(result.render())
        runs += 1
        if not result.ok:
            failures += 1
if failures:
    print(f"\ndisk-fault gauntlet: {failures}/{runs} runs FAILED")
    sys.exit(1)
print(f"\ndisk-fault gauntlet: all {runs} runs passed")
PY

PYTHONPATH=src python -m pytest -q -m chaos
