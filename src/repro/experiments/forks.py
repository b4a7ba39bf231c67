"""Fork rate vs propagation delay — why 6 confirmations is enough.

The paper adopts Bitcoin's 6-block confirmation (§V-C) without
analysis.  This experiment supplies it: running real replicated mining
(:class:`~repro.core.distributed.DistributedChain`) at increasing
propagation-delay/block-time ratios and measuring the natural orphan
rate — the fraction of mined blocks that end up off the final canonical
chain.  At the paper's operating point (LAN delays ≪ 15.35 s blocks)
forks are rare and shallow, so 6 confirmations is conservative; the
sweep shows how the margin erodes as the network slows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chain.pow import PAPER_HASHPOWER_SHARES, PAPER_MEAN_BLOCK_TIME
from repro.core.distributed import DistributedChain
from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment
from repro.network.latency import ConstantLatency

__all__ = ["ForkRateResult", "run_fork_rate"]


@dataclass
class ForkRateResult:
    """Orphan rates per delay/block-time ratio."""

    #: ratio -> (blocks mined, canonical height, orphan rate)
    points: Dict[float, Tuple[int, int, float]]
    block_time: float

    def orphan_rate(self, ratio: float) -> float:
        return self.points[ratio][2]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fork rate vs propagation delay (replicated mining)",
            columns=[
                "delay / block-time",
                "blocks mined",
                "canonical height",
                "orphan rate",
            ],
        )
        for ratio in sorted(self.points):
            mined, height, rate = self.points[ratio]
            table.add_row(ratio, mined, height, f"{rate:.1%}")
        table.add_note(
            "paper operating point: LAN delays << 15.35s blocks -> forks are"
            " rare, so 6-block confirmation is conservative"
        )
        return table


def _fork_rate_trial(args: Tuple[int, float, int, float]) -> List[float]:
    """One delay ratio: run replicated mining, count orphaned blocks.

    Orphan accounting uses the network's authoritative mined-block
    counter against the height of the canonical chain (the agreed head
    after convergence, else the heaviest replica by total difficulty —
    not the tallest, which can sit on a losing fork).  Height counts
    non-genesis blocks (genesis is height 0), so ``mined - height`` is
    exactly the mined blocks that fell off the canonical chain; the
    rate is clamped to [0, 1].
    """
    trial_seed, ratio, blocks, block_time = args
    net = DistributedChain(
        PAPER_HASHPOWER_SHARES,
        mean_block_time=block_time,
        latency=ConstantLatency(ratio * block_time),
        seed=trial_seed,
    )
    net.run_blocks(blocks)
    net.settle()
    # Break any end-of-run total-difficulty tie.
    extra = 0
    while not net.converged() and extra < 20:
        net.run_blocks(1)
        net.settle()
        extra += 1
    mined = net.blocks_mined
    canonical = max(
        (replica.chain for replica in net.replicas.values()),
        key=lambda chain: chain.total_difficulty(),
    )
    height = canonical.height
    orphaned = max(0, mined - height)
    orphan_rate = min(1.0, orphaned / mined) if mined else 0.0
    return [mined, height, orphan_rate]


@experiment("forks", "Fork rate", seed=10)
def run_fork_rate(
    sweep: Sweep,
    ratios: Tuple[float, ...] = (0.005, 0.05, 0.2, 0.5),
    blocks: int = 300,
    block_time: float = PAPER_MEAN_BLOCK_TIME,
) -> ForkRateResult:
    """Measure orphan rates over a delay sweep.

    Each ratio is an independent seed-pure trial, so any ``jobs`` value
    produces identical points.
    """
    outcomes = sweep.map(
        _fork_rate_trial, [(ratio, blocks, block_time) for ratio in ratios]
    )
    points: Dict[float, Tuple[int, int, float]] = {
        ratio: (int(mined), int(height), float(rate))
        for ratio, (mined, height, rate) in zip(ratios, outcomes)
    }
    return ForkRateResult(points=points, block_time=block_time)
