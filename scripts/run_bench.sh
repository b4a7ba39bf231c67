#!/usr/bin/env bash
# Substrate probe lane: run every probe in benchmarks/substrate.py
# (parity against its oracle first, then the timing), write
# BENCH_substrate.json, print every red gate and exit non-zero if any.
# What each probe measures and its bound: the generated table in
# docs/PERFORMANCE.md ("The substrate gate table").
#
# Usage:  scripts/run_bench.sh [--quick] [--repeats N] [--output FILE]

set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src python -m benchmarks.substrate "$@"
