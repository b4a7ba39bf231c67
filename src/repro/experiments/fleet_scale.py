"""Large-fleet gossip scale-out: inv-pull relay vs full flooding.

The paper's prototype runs five providers on a LAN, where flooding the
full payload to every peer is free.  SmartCrowd's pitch, though, is a
*crowd* — "the more participants, the merrier" — so this experiment
measures what the overlay costs as the fleet grows to 1000 nodes:

* ``inv`` mode (:meth:`~repro.network.config.NetworkConfig.large_fleet`)
  — ring+random-chord topology, bounded relay fan-out, Bitcoin-shaped
  inventory announce + pull, and header-only participation for the
  light majority of the fleet (§V-B's lightweight detectors);
* ``flood`` mode — the paper's complete-mesh full-payload flooding,
  run over the same fleet composition as the baseline.

Each (mode, node count) point is one seed-pure trial through
:func:`~repro.experiments.runner.run_trials`, so the sweep fans out
over worker processes with bit-identical results and journals to a
checkpoint.  Trials record messages sent, bytes on the wire, simulator
events, frame mix, and the convergence invariants (all full nodes on
one heaviest head; all light clients on the matching header chain);
wall-clock is measured *around* the sweep, never inside a trial, so
results stay identical across ``--jobs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.chain.serialization import import_chain
from repro.core.distributed import DistributedChain
from repro.experiments.harness import ResultTable
from repro.experiments.runner import (
    SweepCheckpoint,
    derive_seeds,
    run_trials,
    sweep_checkpoint,
)
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator
from repro.shard.spec import fleet_split
from repro.telemetry import Telemetry

__all__ = ["FleetScaleResult", "fleet_split", "run_fleet_scale"]

#: Node counts from the issue's scale-out target: the paper's LAN
#: order of magnitude, a mid-size deployment, and the 1000-node fleet.
DEFAULT_NODE_COUNTS = (50, 200, 1000)

#: The sharded lane's (node count, shard count) points: past ~1000
#: nodes one event loop is the bottleneck, so the 10k/100k points run
#: through :class:`~repro.shard.engine.ShardedSimulator` instead.
#: Empty by default — the bench lane opts in (they dominate wall-clock).
DEFAULT_SHARD_POINTS: Tuple[Tuple[int, int], ...] = ()


def _fleet_trial(args: Tuple[int, int, str, int, int]) -> Dict[str, float]:
    """One (mode, node count) point: mine, converge, read the meters."""
    trial_seed, node_count, mode, blocks, shards = args
    full_count, light_count = fleet_split(node_count)
    if mode == "flood":
        config = NetworkConfig()  # complete mesh, full-payload flooding
    elif mode in ("inv", "shard"):
        config = NetworkConfig.large_fleet()
    else:
        raise ValueError(f"unknown fleet mode {mode!r}")
    spec = FleetSpec(
        full_nodes=full_count,
        light_nodes=light_count,
        network=config,
        shards=shards if mode == "shard" else 1,
    )
    if mode == "shard":
        # ``jobs=1`` inside the trial: run_trials already fans trials
        # out over processes, and the serial executor is the parity
        # oracle — identical bits at any outer ``jobs``.
        net = ShardedSimulator(spec, seed=trial_seed, jobs=1)
    else:
        net = DistributedChain(spec=spec, seed=trial_seed)
    net.run_blocks(blocks)
    net.finalize()
    # A fork race on the last block can leave two equal-difficulty
    # heads that no amount of resyncing reconciles; mine tie-break
    # rounds until one branch is strictly heaviest (same approach as
    # the fork-rate experiment).
    extra = 0
    while not (net.converged() and net.light_converged()) and extra < 20:
        net.run_blocks(1)
        net.finalize()
        extra += 1
    if mode == "shard":
        summary = net.summary()
        canonical_height = import_chain(net.export_canonical()).height
    else:
        summary = net.network.summary()
        canonical_height = max(
            (replica.chain for replica in net.replicas.values()),
            key=lambda chain: chain.total_difficulty(),
        ).height
    return {
        "nodes": node_count,
        "full_nodes": full_count,
        "light_nodes": light_count,
        "shards": spec.shards,
        "blocks_mined": net.blocks_mined,
        "canonical_height": canonical_height,
        "messages_sent": summary["messages_sent"],
        "bytes_sent": summary["bytes_sent"],
        "events_processed": summary["events_processed"],
        "inv_frames": summary["inv_frames"],
        "getdata_frames": summary["getdata_frames"],
        "payload_frames": summary["payload_frames"],
        "full_converged": bool(net.converged()),
        "light_converged": bool(net.light_converged()),
    }


@dataclass
class FleetScaleResult:
    """Transport cost per (mode, node count) fleet point."""

    #: (mode, node count) -> trial measurement dict.
    points: Dict[Tuple[str, int], Dict[str, float]]
    blocks: int
    #: Wall-clock for the whole sweep, measured around the trial
    #: fan-out (never inside a trial, so ``--jobs`` cannot leak into
    #: the deterministic points above).
    elapsed_seconds: float = field(default=0.0, compare=False)

    def point(self, mode: str, node_count: int) -> Dict[str, float]:
        """One fleet point's measurements."""
        return self.points[(mode, node_count)]

    def flood_to_inv_message_ratio(self, node_count: int) -> float:
        """How many times more messages flooding costs at this size."""
        flood = self.points[("flood", node_count)]["messages_sent"]
        inv = self.points[("inv", node_count)]["messages_sent"]
        return flood / inv if inv else float("inf")

    def all_converged(self) -> bool:
        """Every point reached full + light agreement."""
        return all(
            point["full_converged"] and point["light_converged"]
            for point in self.points.values()
        )

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fleet scale-out: inv-pull relay vs full flooding",
            columns=[
                "mode",
                "nodes (full+light)",
                "messages sent",
                "bytes on wire",
                "sim events",
                "converged",
            ],
        )
        for (mode, node_count), point in sorted(
            self.points.items(), key=lambda entry: (entry[0][1], entry[0][0])
        ):
            table.add_row(
                mode,
                f"{node_count} ({int(point['full_nodes'])}+{int(point['light_nodes'])})",
                int(point["messages_sent"]),
                int(point["bytes_sent"]),
                int(point["events_processed"]),
                "yes" if point["full_converged"] and point["light_converged"] else "NO",
            )
        sizes = sorted(
            {count for mode, count in self.points if ("flood", count) in self.points}
        )
        for count in sizes:
            if ("inv", count) in self.points:
                table.add_note(
                    f"{count} nodes: flooding sends "
                    f"{self.flood_to_inv_message_ratio(count):.1f}x the messages"
                    " of inv-pull at equal convergence"
                )
        table.add_note(
            f"{self.blocks} blocks mined per point;"
            f" sweep wall-clock {self.elapsed_seconds:.1f}s"
        )
        return table


def run_fleet_scale(
    node_counts: Tuple[int, ...] = DEFAULT_NODE_COUNTS,
    blocks: int = 8,
    flood_baseline: bool = True,
    seed: int = 40,
    jobs: Optional[int] = None,
    checkpoint: Optional[Union[str, SweepCheckpoint]] = None,
    telemetry: Optional[Telemetry] = None,
    shard_points: Tuple[Tuple[int, int], ...] = DEFAULT_SHARD_POINTS,
) -> FleetScaleResult:
    """Sweep fleet sizes under inv-pull (and optionally flood) gossip.

    Each point is an independent seed-pure trial, so any ``jobs`` value
    produces identical points and ``checkpoint`` journals completed
    points for resume.  ``flood_baseline=False`` skips the quadratic
    complete-mesh baseline (it dominates the sweep's wall-clock at 1000
    nodes).  ``shard_points`` adds (node count, shard count) trials
    through the sharded engine — the 10k/100k lane one event loop
    cannot hold; their table rows are labelled ``shard<K>``.  An armed
    ``telemetry`` gets one gauge per point.
    """
    inputs = []
    for node_count in node_counts:
        inputs.append((node_count, "inv", 1))
        if flood_baseline:
            inputs.append((node_count, "flood", 1))
    for node_count, shards in shard_points:
        inputs.append((node_count, "shard", shards))
    trial_seeds = derive_seeds(seed, len(inputs))
    started = time.perf_counter()
    outcomes = run_trials(
        _fleet_trial,
        [
            (trial_seed, node_count, mode, blocks, shards)
            for trial_seed, (node_count, mode, shards) in zip(trial_seeds, inputs)
        ],
        jobs=jobs,
        checkpoint=sweep_checkpoint(checkpoint, "fleet_scale", seed),
    )
    elapsed = time.perf_counter() - started
    points = {
        (mode if shards == 1 else f"shard{shards}", node_count): outcome
        for (node_count, mode, shards), outcome in zip(inputs, outcomes)
    }
    if telemetry is not None and telemetry.enabled:
        for (mode, node_count), point in sorted(points.items()):
            labels = {"mode": mode, "nodes": str(node_count)}
            telemetry.gauge("fleet.messages_sent", **labels).set(
                point["messages_sent"]
            )
            telemetry.gauge("fleet.bytes_sent", **labels).set(point["bytes_sent"])
            telemetry.gauge("fleet.events_processed", **labels).set(
                point["events_processed"]
            )
        telemetry.gauge("fleet.sweep_wall_clock_seconds").set(elapsed)
    return FleetScaleResult(points=points, blocks=blocks, elapsed_seconds=elapsed)


def main() -> None:
    """CLI entry point (modest sizes; the bench lane runs 1000 nodes)."""
    run_fleet_scale(node_counts=(50, 200), blocks=6).to_table().print()


if __name__ == "__main__":
    main()
