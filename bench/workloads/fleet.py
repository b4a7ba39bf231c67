"""``fleet_gossip`` and ``fleet_sharded`` — one large fleet, two engines.

The same ``FleetSpec.for_fleet`` shape (2 % full-node backbone, the rest
header-only, inv/getdata relay over ring+chords), the same seed, the
same submitted records and mined blocks — once through the
single-process ``DistributedChain`` and once through
``ShardedSimulator`` over serial shards.  The serial executor is used
because worker processes on a small shared host measure the scheduler,
not the engine.  Operation = node reaching the final head; throughput
is simulator events per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from bench.harness import UnitResult, require, state_digest
from bench.inputs import fleet_records
from repro.chain.block import ChainRecord
from repro.core.distributed import DistributedChain
from repro.shard import FleetSpec, ShardedSimulator

#: Tie-break rounds after the requested blocks — a fork race on the
#: last block can leave two equal-difficulty heads, so mine until one
#: branch is strictly heaviest (the loop ``fleet_scale`` uses).
_MAX_TIE_BREAKS = 20


@dataclass
class Inputs:
    seed: int
    sizes: Dict[str, int]
    spec: FleetSpec
    records: List[ChainRecord]


#: After each mined block the gossip is delivered in this many slices
#: of one barrier interval (0.25 simulated s — an inv/getdata wave over
#: a few thousand nodes takes ~5 s to die down), then settled; each slice is one timed
#: segment, and for the sharded engine exactly one epoch.
_SLICES = 24
_SLICE_S = 0.25
#: The single-process engine can stop anywhere, so its slices are cut
#: finer (a slice at the peak of the wave is ~150 ms of work).
_GOSSIP_SUBSTEPS = 5


def _drive(fleet, inputs: Inputs, lap=lambda: None, substeps: int = 1) -> int:
    """Submit, mine, deliver, finalize, tie-break; returns tie-breaks used.

    ``substeps`` splits each slice into that many timed segments; the
    clock still lands on every slice boundary, so the trajectory does
    not depend on it.
    """
    per_block = inputs.sizes["records_per_block"]
    clock = getattr(fleet, "simulator", fleet)  # both expose advance_until
    for index in range(inputs.sizes["blocks"]):
        for record in inputs.records[index * per_block : (index + 1) * per_block]:
            fleet.submit_record(record)
        fleet.run_blocks(1)
        lap()
        for _ in range(_SLICES):
            started = clock.now
            for step in range(1, substeps + 1):
                clock.advance_until(started + _SLICE_S * step / substeps)
                lap()
        fleet.settle()
        lap()
    fleet.finalize()
    lap()
    extra = 0
    while not (fleet.converged() and fleet.light_converged()) and extra < _MAX_TIE_BREAKS:
        fleet.run_blocks(1)
        fleet.finalize()
        extra += 1
    return extra


def _result(fleet, summary: Dict[str, float], extra: int, nodes: int) -> UnitResult:
    heads = fleet.heads()
    light_heads = fleet.light_heads()
    final = max(set(heads.values()), key=list(heads.values()).count)
    reached = sum(1 for head in heads.values() if head == final) + sum(
        1 for head in light_heads.values() if head == final
    )
    return UnitResult(
        work=summary["events_processed"],
        attempted=nodes,
        failed=nodes - reached,
        digest=state_digest(heads, light_heads, summary["messages_sent"]),
        counts={
            "network.events": summary["events_processed"],
            "network.messages_sent": summary["messages_sent"],
            "network.bytes_sent": summary["bytes_sent"],
            "network.messages_duplicated": summary["messages_duplicated"],
            "fleet.blocks_mined": fleet.blocks_mined,
            "fleet.tie_breaks": extra,
        },
    )


class FleetGossip:
    name = "fleet_gossip"

    def generate(self, seed: int, sizes: Dict[str, int], lap) -> Inputs:
        spec = FleetSpec.for_fleet(sizes["nodes"], shards=sizes.get("shards", 1))
        records = fleet_records(
            seed, sizes["records_per_block"] * sizes["blocks"]
        )
        return Inputs(seed, sizes, spec, records)

    def construct(self, inputs: Inputs, scratch: Path):
        return DistributedChain(spec=inputs.spec, seed=inputs.seed)

    def run(self, inputs: Inputs, fleet, lap) -> UnitResult:
        extra = _drive(fleet, inputs, lap, substeps=_GOSSIP_SUBSTEPS)
        return _result(fleet, fleet.network.summary(), extra, inputs.spec.nodes)

    def check(self, inputs: Inputs, fleet, result: UnitResult, deep: bool) -> None:
        require(
            fleet.converged() and fleet.light_converged(),
            f"{self.name}: fleet did not converge",
        )
        require(
            result.counts["fleet.blocks_mined"]
            == inputs.sizes["blocks"] + result.counts["fleet.tie_breaks"],
            f"{self.name}: mined {result.counts['fleet.blocks_mined']} blocks, "
            f"asked for {inputs.sizes['blocks']}",
        )
        require(result.failed == 0, f"{self.name}: a node missed the final head")

    def close(self, fleet) -> None:
        pass


class FleetSharded(FleetGossip):
    name = "fleet_sharded"

    def construct(self, inputs: Inputs, scratch: Path):
        return ShardedSimulator(inputs.spec, seed=inputs.seed, jobs=1)

    def run(self, inputs: Inputs, fleet, lap) -> UnitResult:
        extra = _drive(fleet, inputs, lap)
        return _result(fleet, fleet.summary(), extra, inputs.spec.nodes)

    def check(self, inputs: Inputs, fleet, result: UnitResult, deep: bool) -> None:
        super().check(inputs, fleet, result, deep)
        if not deep:
            return
        # A one-shard ShardedSimulator must reproduce DistributedChain's
        # heads for the seed: the anchor that makes the two fleet
        # workloads comparable.
        unsharded = Inputs(
            inputs.seed, inputs.sizes, inputs.spec.unsharded(), inputs.records
        )
        single = DistributedChain(spec=unsharded.spec, seed=inputs.seed)
        _drive(single, unsharded)
        with ShardedSimulator(unsharded.spec, seed=inputs.seed, jobs=1) as one_shard:
            _drive(one_shard, unsharded)
            require(
                state_digest(one_shard.heads(), one_shard.light_heads())
                == state_digest(single.heads(), single.light_heads()),
                "fleet_sharded: one-shard engine diverged from DistributedChain",
            )

    def close(self, fleet) -> None:
        fleet.close()
