"""The benchmark's tables: workloads, metrics, bounds, interactions.

Data only.  ``BENCHMARK.json`` (the driver's contract file) lists the
subset the contract allows — the end-to-end metrics every workload
reports — and ``bench/test_smoke.py`` asserts the two stay in step.
The full tables (workload-specific metrics, which workloads a metric
is reported on, which end-to-end metric a layer metric should move)
live here and in README.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

ALL = ("lifecycle", "fleet_gossip", "fleet_sharded", "settle_replay", "query_mix")

#: name -> (operation, throughput numerator, why, default sizes, quick sizes)
WORKLOADS: Dict[str, Dict[str, object]] = {
    "lifecycle": {
        "operation": "release",
        "work": "releases",
        "why": (
            "the paper's workflow with nothing stubbed and real ECDSA: "
            "crypto does the work, so a signature cache or faster verify shows here"
        ),
        "sizes": {"releases": 2, "vulnerabilities": 2, "spacing_s": 60, "height": 80},
        "quick": {"releases": 1, "vulnerabilities": 1, "spacing_s": 60, "height": 50},
    },
    "fleet_gossip": {
        "operation": "node reaching the final head",
        "work": "simulator events",
        "why": (
            "3000-node inv/getdata fleet: the network simulator does the work "
            "and crypto none, so a gossip change shows and a crypto change must not"
        ),
        "sizes": {"nodes": 3000, "blocks": 2, "records_per_block": 4},
        "quick": {"nodes": 200, "blocks": 2, "records_per_block": 4},
    },
    "fleet_sharded": {
        "operation": "node reaching the final head",
        "work": "simulator events",
        "why": (
            "the same fleet through 4 serial shards: cross-shard frames and codec "
            "are paid here only, so sharding work shows and fleet_gossip must not move"
        ),
        "sizes": {"nodes": 3000, "blocks": 2, "records_per_block": 4, "shards": 4},
        "quick": {"nodes": 200, "blocks": 2, "records_per_block": 4, "shards": 2},
    },
    "settle_replay": {
        "operation": "block",
        "work": "blocks settled",
        "why": (
            "long stored chain appended, recovered cold and folded through batch "
            "economics: store and block decode do the work, writes beside reads"
        ),
        "sizes": {
            "blocks": 2500, "records_per_block": 4,
            "snapshot_interval": 256, "window": 512,
        },
        "quick": {
            "blocks": 300, "records_per_block": 4,
            "snapshot_interval": 64, "window": 128,
        },
    },
    "query_mix": {
        "operation": "request",
        "work": "queries",
        "why": (
            "consumer reads beside chain growth, a reorg and a warm restart: the only "
            "workload repro.query dominates, so a read path that slows refresh shows"
        ),
        "sizes": {
            "blocks": 2000, "initial_blocks": 1600, "records_per_block": 4,
            "rounds": 50, "append_per_round": 8, "batch": 200, "singles": 400,
        },
        "quick": {
            "blocks": 260, "initial_blocks": 200, "records_per_block": 4,
            "rounds": 6, "append_per_round": 8, "batch": 50, "singles": 100,
        },
    },
}


def sizes(workload: str, quick: bool = False) -> Dict[str, int]:
    """The fixed sizes of a workload (``quick`` is for the smoke test only)."""
    return dict(WORKLOADS[workload]["quick" if quick else "sizes"])  # type: ignore[arg-type]


#: The seven end-to-end metrics.  ``bound`` is the share by which the
#: metric may worsen before it counts as a regression; ``workloads`` is
#: where it is reported.  ``failed_share`` has an absolute bound of 0.
#: ``setup_s`` has the widest: it is 20 ms on ``lifecycle`` and spreads
#: 8-28 % over ten runs there (README.md); the rest are the issue's.
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "workloads": ALL},
    {"name": "throughput", "unit": "ops/s", "better": "higher", "bound": 0.10,
     "workloads": ALL},
    {"name": "recovery_s", "unit": "s", "better": "lower", "bound": 0.10,
     "workloads": ("settle_replay",)},
    {"name": "query_p50_us", "unit": "us", "better": "lower", "bound": 0.10,
     "workloads": ("query_mix",)},
    {"name": "query_p99_us", "unit": "us", "better": "lower", "bound": 0.15,
     "workloads": ("query_mix",)},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10,
     "workloads": ALL},
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0,
     "workloads": ALL},
]

#: The end-to-end metrics the driver's contract can carry: reported on
#: every workload and never zero.  ``failed_share`` travels as the
#: contract's own ``attempted``/``failed`` keys instead.
CONTRACT_END_TO_END = ("throughput", "peak_rss_mb", "setup_s")

LAYERS = (
    "crypto", "chain", "network", "shard", "codec", "contracts",
    "core", "detection", "store", "query", "economics",
)

_L = "lifecycle"
_G = "fleet_gossip"
_S = "fleet_sharded"
_R = "settle_replay"
_Q = "query_mix"

#: Per-layer metrics: (name, unit, better, moves).  ``moves`` names the
#: end-to-end metric and workload a change in the layer metric should
#: show up in; everywhere else the prediction is *no change*.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    *[
        (f"{layer}.share", "ratio", "lower",
         f"self time of repro.{layer} / traced wall of the unit")
        for layer in LAYERS
    ],
    ("driver.share", "ratio", "lower", "benchmark's own loop; not a target"),
    ("unattributed.share", "ratio", "lower", "reconciliation remainder; must stay <= 0.10"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced best wall; must stay <= 1.5"),
    # crypto
    ("crypto.sign.calls", "count", "lower", f"throughput on {_L}"),
    ("crypto.sign.self_s", "s", "lower", f"throughput on {_L} (~9 % of the unit)"),
    ("crypto.verify.calls", "count", "lower", f"throughput on {_L}; 0 on the other four"),
    ("crypto.verify.self_s", "s", "lower", f"throughput on {_L} (~80 % of the unit)"),
    ("crypto.verify.distinct_ratio", "ratio", "higher",
     f"throughput on {_L}: 1 - this is what a signature cache removes"),
    ("crypto.keygen.calls", "count", "lower", f"setup_s on {_L}"),
    ("crypto.keygen.self_s", "s", "lower", f"throughput and setup_s on {_L}"),
    # chain
    ("chain.assemble.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("chain.assemble.self_s", "s", "lower", f"throughput on {_L} (< 3 %)"),
    ("chain.add_block.calls", "count", "lower", f"recovery_s and throughput on {_R}"),
    ("chain.add_block.self_s", "s", "lower", f"recovery_s and throughput on {_R}"),
    ("chain.mempool.add.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("chain.mempool.select.self_s", "s", "lower", f"throughput on {_L} (< 3 %)"),
    ("chain.decode_block.calls", "count", "lower", f"recovery_s and throughput on {_R}"),
    ("chain.decode_block.self_s", "s", "lower", f"recovery_s and throughput on {_R}"),
    ("chain.encode_block.self_s", "s", "lower", f"throughput on {_R}"),
    ("chain.ledger.apply.self_s", "s", "lower", f"recovery_s on {_R}"),
    # network
    ("network.events", "count", "lower", f"throughput on {_G} and {_S}; ~10 % on {_L}"),
    ("network.messages_sent", "count", "lower", f"throughput on {_G} and {_S}"),
    ("network.bytes_sent", "count", "lower", f"throughput on {_G} and {_S}"),
    ("network.duplicate_ratio", "ratio", "lower", f"throughput on {_G} and {_S}"),
    ("network.dispatch.self_s", "s", "lower", f"throughput on {_G} and {_S}; none on {_R}, {_Q}"),
    ("network.build_s", "s", "lower", f"setup_s on {_G}"),
    ("network.events_per_s", "1/s", "higher", f"throughput on {_G} and {_S}"),
    # shard
    ("shard.build_s", "s", "lower", f"setup_s on {_S}"),
    ("shard.epochs", "count", "lower", f"throughput on {_S} only"),
    ("shard.cross_frames", "count", "lower", f"throughput on {_S} only"),
    ("shard.cross_bytes", "count", "lower", f"throughput on {_S} only"),
    ("shard.cut_fraction", "ratio", "lower", f"throughput on {_S} only"),
    ("shard.frames.encode.self_s", "s", "lower", f"throughput on {_S} only"),
    ("shard.frames.decode.self_s", "s", "lower", f"throughput on {_S} only"),
    # codec
    ("codec.pack.calls", "count", "lower", f"throughput on {_S}; {_G} must not move"),
    ("codec.pack.self_s", "s", "lower", f"throughput on {_S}; {_G} must not move"),
    ("codec.unpack.calls", "count", "lower", f"throughput on {_S}; {_G} must not move"),
    ("codec.unpack.self_s", "s", "lower", f"throughput on {_S}; {_G} must not move"),
    # contracts
    ("contracts.deploy.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("contracts.call.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("contracts.self_s", "s", "lower", f"throughput on {_L} (< 3 %)"),
    ("contracts.gas_used", "count", "lower", f"throughput on {_L} (< 3 %)"),
    # core
    ("core.verification.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("core.verification.self_s", "s", "lower", f"throughput on {_L} (< 3 %)"),
    ("core.verification.rejected", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("core.payload.decode.calls", "count", "lower", f"throughput on {_R}"),
    ("core.payload.decode.self_s", "s", "lower", f"throughput on {_R}"),
    # detection
    ("detection.scan.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("detection.scan.self_s", "s", "lower", f"throughput on {_L} (< 3 %)"),
    ("detection.autoverif.calls", "count", "lower", f"throughput on {_L} (< 3 %)"),
    ("detection.autoverif.self_s", "s", "lower", f"throughput on {_L} (< 3 %)"),
    # store
    ("store.append.calls", "count", "lower", f"throughput on {_R}; a little on {_L}"),
    ("store.append.self_s", "s", "lower", f"throughput on {_R}; a little on {_L}"),
    ("store.append.bytes", "count", "lower", f"throughput on {_R}"),
    ("store.open.self_s", "s", "lower", f"recovery_s and throughput on {_R}"),
    ("store.load_chain.self_s", "s", "lower", f"recovery_s and throughput on {_R}"),
    ("store.replay_ledger.self_s", "s", "lower", f"recovery_s and throughput on {_R}"),
    ("store.replay_ledger.frames", "count", "lower", f"recovery_s on {_R}"),
    ("store.snapshot.calls", "count", "lower", f"throughput on {_R}"),
    ("store.snapshot.self_s", "s", "lower", f"throughput on {_R}"),
    ("store.iter_blocks.self_s", "s", "lower", f"recovery_s and throughput on {_R}"),
    # query
    ("query.index.build.self_s", "s", "lower", f"throughput on {_Q}"),
    ("query.index.refresh.calls", "count", "lower", f"throughput on {_Q}"),
    ("query.index.refresh.self_s", "s", "lower", f"throughput on {_Q}"),
    ("query.index.rebuilds", "count", "lower", f"throughput on {_Q}"),
    ("query.serve.calls", "count", "lower", f"query_p50_us / query_p99_us on {_Q}"),
    ("query.serve.self_s", "s", "lower", f"query_p50_us / query_p99_us on {_Q}; {_L} must not move"),
    ("query.snapshot.hit_ratio", "ratio", "higher", f"query_p50_us / query_p99_us on {_Q}"),
    ("query.persist.self_s", "s", "lower", f"throughput on {_Q}"),
    ("query.warm_start.self_s", "s", "lower", f"throughput on {_Q}"),
    # economics
    ("economics.batch.calls", "count", "lower", f"throughput on {_R} (< 5 %: not worth its code)"),
    ("economics.batch.self_s", "s", "lower", f"throughput on {_R} (< 5 %: not worth its code)"),
    ("economics.batch.settlements", "count", "lower", f"throughput on {_R}"),
    # The workload-specific end-to-end timings, as the traced pass saw
    # them: the driver's contract cannot carry a metric that only some
    # workloads report, so they ride here (0 where they do not apply).
    ("store.recovery_s", "s", "lower", f"recovery_s on {_R}"),
    ("query.p50_us", "us", "lower", f"query_p50_us on {_Q}"),
    ("query.p99_us", "us", "lower", f"query_p99_us on {_Q}"),
]

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

#: Where the traced pass carries the workload-specific end-to-end timings.
AS_LAYER_METRIC = {
    "recovery_s": "store.recovery_s",
    "query_p50_us": "query.p50_us",
    "query_p99_us": "query.p99_us",
}

#: Where the traced pass carries a fleet workload's construction time:
#: building the fleet is building that layer's topology.
BUILD_METRIC = {"fleet_gossip": "network.build_s", "fleet_sharded": "shard.build_s"}

#: Reconciliation limits the traced pass enforces per workload.
MAX_UNATTRIBUTED_SHARE = 0.10
MAX_TRACE_OVERHEAD = 1.5


def end_to_end(name: str) -> Dict[str, object]:
    """One end-to-end metric's row."""
    return next(row for row in END_TO_END if row["name"] == name)

#: Layer metrics that must repeat exactly for a seed (``verify``): every
#: count, and the ratios that are quotients of counts.
DETERMINISTIC = tuple(
    name
    for name, unit, _, _ in PER_LAYER
    if unit == "count"
    or name in (
        "crypto.verify.distinct_ratio", "network.duplicate_ratio",
        "shard.cut_fraction", "query.snapshot.hit_ratio",
    )
)
