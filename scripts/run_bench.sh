#!/usr/bin/env bash
# Substrate perf-trajectory lane: time the hot paths (header hashing,
# PoW nonce search, batch economics settlement, Merkle build, ECDSA
# keygen/sign/verify — recorded under "ecdsa", never gated — gossip
# round, one mini end-to-end experiment, serial-vs-parallel runner) and
# record the baseline to BENCH_substrate.json so future PRs measure
# regressions against it.
# Includes the runner-scaling probe: the pinned fork-rate sweep run
# serially and at jobs=2, asserted bit-identical, with the wall-clock
# ratio recorded under "runner_scaling".  Parallel probes (including
# the sharded-fleet probe, "fleet_shard") carry a "speedup_gated" flag
# (cpu_count > 1): bit-parity is asserted on every host, but the
# wall-clock ratios are recorded as speedup_gated=false — and never
# gated — on a 1-core host instead of silently passing.  The sharded
# probe also lands the 10k- and 100k-node fleet points (parity asserted
# before timing).
#
# Exits non-zero if the midstate nonce search falls below its 3x floor
# over the naive loop, if the vectorized Eq. 7/10 settlement falls
# below its 5x floor over the scalar loop, if indexed query serving
# falls below its 5x floor over the pinned full-chain scan, or if
# mining with telemetry disabled runs more than 5% slower than the
# pinned pre-telemetry loop.
#
# The same quick workloads run inside tier-1 as a smoke
# (tests/test_bench_smoke.py), so a broken probe fails the normal test
# run, not just this lane.
#
# Usage:  scripts/run_bench.sh [--quick] [--jobs N] [--output FILE]

set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src python -m repro.experiments.bench_substrate "$@"
