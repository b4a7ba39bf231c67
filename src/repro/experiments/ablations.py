"""Ablations: what breaks when each SmartCrowd mechanism is removed.

The paper argues for three mechanisms (§V); each ablation disables one
and measures the failure it was preventing:

* **Two-phase submission** (§V-B) — without the R† commitment, a thief
  who sees a published R* can copy it, outbid the victim's transaction
  fee, and steal the bounty.  Measured on the real mempool/chain
  machinery as a fee-priority race.
* **Insurance escrow** (§V-D) — without escrowed deposits, payout
  depends on the provider's goodwill; the detector's expected revenue
  collapses with the fraction of dishonest providers.
* **Report submission fee** (Eq. 10) — the fee is the only thing
  bounding how many junk reports an attacker can force providers to
  AutoVerif; verification load diverges as the fee approaches zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.mempool import Mempool
from repro.contracts.gas import fee_wei
from repro.crypto.hashing import hash_fields
from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment

__all__ = [
    "TwoPhaseAblation",
    "EscrowAblation",
    "FeeAblation",
    "ablate_two_phase",
    "ablate_escrow",
    "ablate_report_fee",
]


@dataclass
class TwoPhaseAblation:
    """Plagiarism win rates with and without the R† commitment."""

    trials: int
    thief_wins_with_two_phase: int
    thief_wins_without_two_phase: int

    @property
    def rate_with(self) -> float:
        return self.thief_wins_with_two_phase / self.trials

    @property
    def rate_without(self) -> float:
        return self.thief_wins_without_two_phase / self.trials

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — two-phase report submission (anti-plagiarism)",
            columns=["Scheme", "Thief bounty-steal rate"],
        )
        table.add_row("two-phase R†/R* (SmartCrowd)", f"{self.rate_with:.1%}")
        table.add_row("single-phase (ablated)", f"{self.rate_without:.1%}")
        table.add_note(
            "without the hash commitment, a fee-outbidding thief steals the"
            " bounty whenever its copy is ordered first"
        )
        return table


def _two_phase_trial(args: Tuple[int, int, int, float]) -> Tuple[int, int]:
    """One plagiarism race; returns (thief wins with R†, wins without).

    Module-level and seeded per trial so the sweep can fan out across
    processes with results bit-identical to the serial loop.
    """
    trial_seed, trial, victim_fee_wei, thief_fee_multiplier = args
    rng = random.Random(trial_seed)
    victim_record = ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("victim", trial),
        payload=b"victim-report",
        fee=victim_fee_wei,
    )
    thief_record = ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("thief", trial),
        payload=b"copied-report",
        fee=int(victim_fee_wei * thief_fee_multiplier),
    )

    # With two-phase: commitment order decides; the victim's R† is
    # confirmed before the thief ever sees the findings.
    victim_commit_time = rng.uniform(0.0, 100.0)
    thief_commit_time = victim_commit_time + rng.uniform(90.0, 200.0)
    win_with = 1 if thief_commit_time < victim_commit_time else 0  # pragma: no branch

    # Without two-phase: fee-priority mempool ordering decides.
    pool = Mempool()
    # The victim's R* arrives first, the copy lands before the next
    # block is assembled.
    pool.add(victim_record)
    pool.add(thief_record)
    ordered = pool.select()
    win_without = 1 if ordered[0].payload == b"copied-report" else 0
    return win_with, win_without


@experiment("two_phase", "Ablation: two-phase", seed=0)
def ablate_two_phase(
    sweep: Sweep,
    trials: int = 200,
    victim_fee_wei: int = fee_wei("submit_detailed_report"),
    thief_fee_multiplier: float = 4.0,
) -> TwoPhaseAblation:
    """Race a plagiarist against a victim on the real mempool.

    *With* two-phase: the bounty goes to the owner of the earliest
    confirmed commitment.  The thief only learns the findings when the
    victim publishes R* — after the victim's R† is already on chain —
    so its own commitment is strictly later: it can never win.

    *Without* two-phase: both detailed reports sit in the same mempool
    and the bounty goes to whichever is ordered first.  The thief
    outbids the victim's fee, and fee-priority selection puts the copy
    first whenever both fit in the next block.

    Each trial runs under its own seed derived from ``seed``, so
    ``jobs`` parallelism cannot change the outcome.
    """
    outcomes = sweep.map(
        _two_phase_trial,
        [(trial, victim_fee_wei, thief_fee_multiplier) for trial in range(trials)],
        chunksize=16,
    )
    return TwoPhaseAblation(
        trials=trials,
        thief_wins_with_two_phase=sum(with_ for with_, _ in outcomes),
        thief_wins_without_two_phase=sum(without for _, without in outcomes),
    )


@dataclass
class EscrowAblation:
    """Expected detector revenue with and without escrowed insurance."""

    dishonest_fractions: Tuple[float, ...]
    #: fraction -> (payout rate with escrow, without escrow)
    payout_rates: Dict[float, Tuple[float, float]]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — insurance escrow (anti-repudiation)",
            columns=[
                "Dishonest providers",
                "Payout rate (escrow)",
                "Payout rate (goodwill)",
            ],
        )
        for fraction in self.dishonest_fractions:
            with_escrow, without = self.payout_rates[fraction]
            table.add_row(f"{fraction:.0%}", f"{with_escrow:.1%}", f"{without:.1%}")
        table.add_note(
            "escrow makes payout independent of provider honesty; goodwill"
            " payment collapses linearly with the dishonest fraction"
        )
        return table


@experiment("escrow", "Ablation: escrow", seed=1)
def ablate_escrow(
    sweep: Sweep,
    dishonest_fractions: Tuple[float, ...] = (0.0, 0.2, 0.5, 0.8),
    awards_per_point: int = 500,
) -> EscrowAblation:
    """Monte-Carlo payout success under both payment schemes.

    With escrow the deposit is already contract-held, so every verified
    award pays.  Without it, a dishonest provider simply ignores the
    invoice (§IV-B "repudiating incentives and punishments").
    """
    rng = random.Random(sweep.seed)
    rates: Dict[float, Tuple[float, float]] = {}
    for fraction in dishonest_fractions:
        paid_without = 0
        for _ in range(awards_per_point):
            provider_is_dishonest = rng.random() < fraction
            if not provider_is_dishonest:
                paid_without += 1
        rates[fraction] = (1.0, paid_without / awards_per_point)
    return EscrowAblation(
        dishonest_fractions=dishonest_fractions, payout_rates=rates
    )


@dataclass
class FeeAblation:
    """Spam exposure as the report fee is swept toward zero."""

    #: (fee in ether, junk reports a 10-ETH attacker budget buys)
    points: List[Tuple[float, float]]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — report submission fee (anti-spam, Eq. 10)",
            columns=["Fee per report (ETH)", "Junk reports per 10 ETH budget"],
        )
        for fee, junk in self.points:
            table.add_row(fee, f"{junk:,.0f}" if junk != float("inf") else "unbounded")
        table.add_note(
            "every junk report forces an AutoVerif run on all providers;"
            " the fee is what keeps that work bounded"
        )
        return table


@experiment("report_fee", "Ablation: report fee")
def ablate_report_fee(
    sweep: Sweep,
    budget_ether: float = 10.0,
    fees_ether: Tuple[float, ...] = (0.011, 0.005, 0.001, 0.0001, 0.0),
) -> FeeAblation:
    """How many junk submissions a fixed attack budget buys per fee level."""
    points: List[Tuple[float, float]] = []
    for fee in fees_ether:
        junk = budget_ether / fee if fee > 0 else float("inf")
        points.append((fee, junk))
    return FeeAblation(points=points)
