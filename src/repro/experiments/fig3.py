"""Fig. 3 — experimental setup: mining rewards and block time.

Fig. 3(a): the average reward when one block is created is ~5 ether for
every provider regardless of computation proportion (the reward is per
*block*, not per unit hashpower — hashpower determines how *often* you
win, not how much a win pays).

Fig. 3(b): block time over 2000 blocks; the paper measures a 15.35 s
average.  The reproduction samples the stochastic mining model at the
paper's difficulty and reports the distribution.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chain.pow import (
    PAPER_HASHPOWER_SHARES,
    PAPER_MEAN_BLOCK_TIME,
    MiningModel,
)
from repro.experiments.harness import ResultTable, summarize
from repro.experiments.runner import Sweep, experiment

__all__ = ["Fig3aResult", "Fig3bResult", "run_fig3a", "run_fig3b"]


def _chunk_sizes(total: int, trials: int) -> List[int]:
    """Split ``total`` blocks into ``trials`` near-equal chunks."""
    trials = max(1, min(trials, total)) if total else 1
    base, remainder = divmod(total, trials)
    return [base + (1 if index < remainder else 0) for index in range(trials)]


@dataclass
class Fig3aResult:
    """Average per-block reward and win counts per provider."""

    block_reward_ether: float
    blocks_total: int
    blocks_won: Dict[str, int]
    shares: Dict[str, float]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fig. 3(a) — average reward per created block",
            columns=["Provider", "HP share", "Blocks won", "Win fraction", "Avg reward/block (ETH)"],
        )
        total_share = sum(self.shares.values())
        for name in sorted(self.shares, key=self.shares.get, reverse=True):
            table.add_row(
                name,
                f"{self.shares[name] * 100:.2f}%",
                self.blocks_won[name],
                f"{self.blocks_won[name] / self.blocks_total:.3f}"
                + f" (expect {self.shares[name] / total_share:.3f})",
                self.block_reward_ether,
            )
        table.add_note("paper: every creator earns ~5 ether per block regardless of HP")
        return table


def _fig3a_trial(args: Tuple[int, int]) -> Dict[str, int]:
    """One mining trial: win counts over a seed-pure chunk of blocks.

    Module-level and seed-driven so the sweep can fan chunks out across
    processes with bit-identical results.
    """
    trial_seed, blocks = args
    model = MiningModel.from_shares(
        PAPER_HASHPOWER_SHARES, rng=random.Random(trial_seed)
    )
    won = dict.fromkeys(PAPER_HASHPOWER_SHARES, 0)
    for _ in range(blocks):
        won[model.next_block().winner] += 1
    return won


@experiment("fig3a", "Fig. 3(a)", seed=0)
def run_fig3a(
    sweep: Sweep,
    blocks: int = 2000,
    block_reward_ether: float = 5.0,
    trials: int = 8,
) -> Fig3aResult:
    """Mine ``blocks`` blocks; rewards per block are constant ν.

    The mining is split into ``trials`` independently seeded chunks;
    win counts sum across chunks, and any ``jobs`` value produces the
    same totals.
    """
    outcomes = sweep.map(
        _fig3a_trial, [(chunk,) for chunk in _chunk_sizes(blocks, trials)]
    )
    blocks_won = {name: 0 for name in PAPER_HASHPOWER_SHARES}
    for won in outcomes:
        for name, count in won.items():
            blocks_won[name] += count
    return Fig3aResult(
        block_reward_ether=block_reward_ether,
        blocks_total=blocks,
        blocks_won=blocks_won,
        shares=dict(PAPER_HASHPOWER_SHARES),
    )


@dataclass
class Fig3bResult:
    """Block-time distribution over a measured run."""

    intervals: Tuple[float, ...]
    paper_mean: float = PAPER_MEAN_BLOCK_TIME

    @property
    def mean(self) -> float:
        return statistics.fmean(self.intervals)

    def histogram(self, bucket: float = 5.0, buckets: int = 12) -> List[Tuple[str, int]]:
        """Bucketed counts for a text histogram."""
        counts = [0] * buckets
        for interval in self.intervals:
            index = min(int(interval // bucket), buckets - 1)
            counts[index] += 1
        labels = [
            f"[{i * bucket:.0f},{(i + 1) * bucket:.0f})" for i in range(buckets - 1)
        ] + [f">={(buckets - 1) * bucket:.0f}"]
        return list(zip(labels, counts))

    def to_table(self) -> ResultTable:
        stats = summarize(self.intervals)
        table = ResultTable(
            title=f"Fig. 3(b) — block time over {len(self.intervals)} blocks",
            columns=["Metric", "Paper", "Measured (s)"],
        )
        table.add_row("mean block time", self.paper_mean, round(stats["mean"], 3))
        table.add_row("median", "-", round(stats["median"], 3))
        table.add_row("stdev", "-", round(stats["stdev"], 3))
        table.add_row("max", "-", round(stats["max"], 3))
        for label, count in self.histogram():
            table.add_row(f"  histogram {label}s", "-", count)
        return table


def _fig3b_trial(args: Tuple[int, int]) -> List[float]:
    """One interval-sampling trial: ``count`` seed-pure block times."""
    trial_seed, count = args
    model = MiningModel.from_shares(
        PAPER_HASHPOWER_SHARES, rng=random.Random(trial_seed)
    )
    return list(model.sample_intervals(count))


@experiment("fig3b", "Fig. 3(b)", seed=1)
def run_fig3b(sweep: Sweep, blocks: int = 2000, trials: int = 8) -> Fig3bResult:
    """Sample 2000 block intervals at the paper's difficulty.

    Sampling is chunked into ``trials`` seed-pure workers; intervals
    concatenate in chunk order, so any ``jobs`` value yields the
    identical distribution.
    """
    outcomes = sweep.map(
        _fig3b_trial, [(chunk,) for chunk in _chunk_sizes(blocks, trials)]
    )
    return Fig3bResult(
        intervals=tuple(interval for chunk in outcomes for interval in chunk)
    )
