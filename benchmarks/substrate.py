"""The fleet scale points ``bench/`` cannot express: 10k and 100k nodes.

The repo's benchmark of record is ``bench/`` (five end-to-end workloads,
a layer budget that reconciles).  What stays here is what no other
check records: the sharded fleet at 10k and 100k nodes, timed once
each, after a one-shard anchor run has proved the engine bit-identical
to the single-process :class:`~repro.core.distributed.DistributedChain`.
Nothing here is gated: the anchor is a parity assertion, the points are
recorded.

Run with ``scripts/run_bench.sh`` or ``python -m benchmarks.substrate``
from the repo root; the result lands in ``BENCH_substrate.json``.
``--quick`` records one 1k-node point instead (the tier-1 smoke size).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.distributed import DistributedChain
from repro.experiments.fleet_scale import _fleet_trial
from repro.faults.invariants import confirmed_chain_bytes
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator

#: Blocks mined per fleet point and by the anchor run.
_FLEET_BLOCKS = 2
_SEED = 93

_POINT_KEYS = (
    "shards", "full_nodes", "light_nodes", "blocks_mined",
    "messages_sent", "bytes_sent", "events_processed", "seconds",
)


def fleet_shard(quick: bool) -> Dict[str, Any]:
    """The one-shard anchor, then the timed (nodes, shards) points."""
    spec = FleetSpec(
        full_nodes=10, light_nodes=190, network=NetworkConfig.large_fleet()
    )
    with ShardedSimulator(spec, seed=_SEED) as engine:
        engine.run_blocks(_FLEET_BLOCKS)
        engine.finalize()
        anchor_state = (engine.heads(), engine.light_heads(), engine.chain_bytes())
    single = DistributedChain(spec=spec, seed=_SEED)
    single.run_blocks(_FLEET_BLOCKS)
    single.finalize()
    single_state = (
        single.heads(),
        {name: light.tip_id() for name, light in single.light_replicas.items()},
        {
            name: confirmed_chain_bytes(replica.chain)
            for name, replica in single.replicas.items()
        },
    )
    if anchor_state != single_state:
        raise AssertionError(
            "one-shard fleet diverged from the single-process DistributedChain"
        )
    points: Dict[str, Dict[str, Any]] = {}
    for nodes, shards in ((1_000, 2),) if quick else ((10_000, 4), (100_000, 8)):
        started = time.perf_counter()
        point = _fleet_trial((_SEED, nodes, "shard", _FLEET_BLOCKS, shards))
        point["seconds"] = time.perf_counter() - started
        if not (point["full_converged"] and point["light_converged"]):
            raise AssertionError(f"{nodes}-node sharded fleet failed to converge")
        points[str(nodes)] = {key: point[key] for key in _POINT_KEYS}
    return {
        "parity_nodes": spec.nodes,
        "parity_blocks": _FLEET_BLOCKS,
        "identical_to_single_process": True,
        "points": points,
    }


def run_suite(quick: bool = False) -> Dict[str, Any]:
    """Record the fleet points; returns the JSON-ready result dict."""
    return {
        "suite": "substrate",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "benchmarks": {"fleet_shard": fleet_shard(quick)},
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: record the points, print them, write the JSON."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.substrate",
        description="record the sharded fleet points in BENCH_substrate.json",
    )
    parser.add_argument(
        "--output", default="BENCH_substrate.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--quick", action="store_true", help="one 1k-node point (CI smoke)"
    )
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick)
    for nodes, point in payload["benchmarks"]["fleet_shard"]["points"].items():
        print(
            f"fleet_shard {nodes} nodes, {point['shards']} shards: "
            f"{point['seconds']:.1f} s, {point['messages_sent']} messages"
        )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
