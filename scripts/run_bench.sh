#!/usr/bin/env bash
# Record the sharded fleet points (benchmarks/substrate.py): a one-shard
# anchor run checked bit-identical to DistributedChain, then the 10k and
# 100k-node points, written to BENCH_substrate.json.  Nothing is gated;
# the end-to-end benchmark is `python -m bench` (bench/README.md).
#
# Usage:  scripts/run_bench.sh [--quick] [--output FILE]

set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src python -m benchmarks.substrate "$@"
