"""Sharded fleet simulation: one spec, partitioned worlds, one process.

A :class:`FleetSpec` describes the fleet once, a :class:`ShardPlan`
partitions it into contiguous ring slices, and :class:`ShardedSimulator`
runs each shard's simulator independently between deterministic epoch
barriers, exchanging cross-shard inv/getdata/payload traffic as barrier
blobs of frame rows (:mod:`repro.shard.frames`).  A one-shard fleet is
bit-identical to :class:`~repro.core.distributed.DistributedChain`.
"""

from repro.shard.engine import ShardGateway, ShardState, ShardedSimulator
from repro.shard.frames import (
    CrossShardFrame,
    FrameError,
    FrameKind,
    decode_frames,
    encode_frames,
)
from repro.shard.plan import ShardPlan, build_plan, derive_shard_seeds
from repro.shard.spec import FleetSpec

__all__ = [
    "CrossShardFrame",
    "FleetSpec",
    "FrameError",
    "FrameKind",
    "ShardGateway",
    "ShardPlan",
    "ShardState",
    "ShardedSimulator",
    "build_plan",
    "decode_frames",
    "derive_shard_seeds",
    "encode_frames",
]
