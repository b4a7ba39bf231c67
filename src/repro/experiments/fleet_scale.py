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

Each (mode, node count) point is one seed-pure trial of the sweep
(:class:`~repro.experiments.runner.Sweep`), so it fans out over worker
processes with bit-identical results.
Trials record messages sent, bytes on the wire, simulator events,
frame mix, and the convergence invariants (all full nodes on one
heaviest head; all light clients on the matching header chain);
wall-clock is measured *around* the sweep, never inside a trial, so
results stay identical across ``--jobs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.chain.serialization import import_chain
from repro.core.distributed import DistributedChain
from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator
from repro.shard.spec import fleet_split

__all__ = ["FleetScaleResult", "fleet_split", "run_fleet_scale"]

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
        net = ShardedSimulator(spec, seed=trial_seed)
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
        table.add_note(f"{self.blocks} blocks mined per point")
        return table


@experiment("fleet_scale", "Fleet scale-out", seed=40)
def run_fleet_scale(
    sweep: Sweep,
    node_counts: Tuple[int, ...] = (50, 200),
    blocks: int = 6,
    flood_baseline: bool = True,
) -> FleetScaleResult:
    """Sweep fleet sizes under inv-pull (and optionally flood) gossip.

    Each point is an independent seed-pure trial, so any ``jobs`` value
    produces identical points.  The defaults are suite-friendly sizes;
    ``benchmarks/substrate.py`` records the sharded 10k/100k points
    through :func:`_fleet_trial` directly.  ``flood_baseline=False``
    skips the quadratic complete-mesh baseline (it dominates the
    sweep's wall-clock at 1000 nodes).  An armed ``telemetry`` gets one
    gauge per point.
    """
    modes = ("inv", "flood") if flood_baseline else ("inv",)
    items = [
        (node_count, mode, blocks, 1) for node_count in node_counts for mode in modes
    ]
    started = time.perf_counter()
    outcomes = sweep.map(_fleet_trial, items)
    elapsed = time.perf_counter() - started
    points = {
        (mode, node_count): outcome
        for (node_count, mode, _, _), outcome in zip(items, outcomes)
    }
    telemetry = sweep.telemetry
    if telemetry is not None:
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
