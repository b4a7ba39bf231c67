"""Detection-to-payout latency — how "automated" the incentives feel.

The paper claims detectors "automatically gain incentives once catching
any vulnerability" (§IV-B); operationally the payout waits for two
confirmations: R† must be buried under 6 blocks before R* is published,
and R* under 6 more before the contract pays.  At a 15.35 s block time
the floor is ≈ 2·6·15.35 ≈ 184 s.  This experiment measures the realized
distribution — announcement→payment and R†-confirmation→payment — from
real platform runs, the latency companion to the Fig. 6 economics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH
from repro.chain.pow import PAPER_MEAN_BLOCK_TIME
from repro.contracts.vm import ContractRuntime
from repro.detection.iot_system import build_system
from repro.experiments.harness import ResultTable, paper_setup, summarize
from repro.experiments.runner import Sweep, experiment

__all__ = ["LatencyResult", "run_payout_latency"]


@dataclass
class LatencyResult:
    """Per-bounty latency from release announcement to payment."""

    #: seconds from the release announcement to each bounty payment
    announce_to_pay: List[float]
    #: seconds from the R† on-chain confirmation to the payment
    confirm_to_pay: List[float]
    confirmation_depth: int
    mean_block_time: float

    @property
    def theoretical_floor(self) -> float:
        """2 confirmation waits at the configured depth and block time."""
        return 2 * self.confirmation_depth * self.mean_block_time

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Detection-to-payout latency (full platform, seconds)",
            columns=["Metric", "announce→pay", "R†-confirm→pay"],
        )
        announce_stats = summarize(self.announce_to_pay)
        confirm_stats = summarize(self.confirm_to_pay)
        for key in ("mean", "median", "min", "max"):
            table.add_row(key, round(announce_stats[key], 1), round(confirm_stats[key], 1))
        table.add_row("samples", len(self.announce_to_pay), len(self.confirm_to_pay))
        table.add_note(
            f"floor = 2 confirmations x {self.confirmation_depth} blocks x "
            f"{self.mean_block_time}s = {self.theoretical_floor:.0f}s"
        )
        return table


def _latency_release_trial(args: Tuple[int, int, int]) -> Dict[str, List[float]]:
    """One vulnerable release on a fresh seed-pure platform.

    Announces at t=0, so award block times *are* the announce→pay
    latencies; returns the latency lists.
    """
    trial_seed, index, flaws_per_release = args
    setup = paper_setup(seed=trial_seed)
    platform = setup.build_platform()
    window = setup.config.detection_window
    system = build_system(
        f"latency-sys-{index}",
        vulnerability_count=flaws_per_release,
        rng=random.Random(trial_seed),
    )
    platform.announce_release(provider_name="provider-1", system=system, at_time=0.0)
    platform.advance_until(window + 600.0)
    platform.finish_pending()

    announce_to_pay: List[float] = []
    confirm_to_pay: List[float] = []
    runtime: ContractRuntime = platform.runtime
    for case in platform.releases.values():
        contract = runtime.get_contract(case.contract_address)
        for award in contract.awards():
            announce_to_pay.append(award.block_time)
    # Pipeline tail: for every bounty, time from the detector's R†
    # confirmation event to the payment event on the same contract.
    for event in runtime.events_named("BountyPaid"):
        paid_at = event.block_time
        commit = next(
            (
                candidate
                for candidate in runtime.events_named("InitialReportConfirmed")
                if candidate.contract == event.contract
                and candidate.payload["detector"] == event.payload["detector"]
            ),
            None,
        )
        if commit is not None:
            confirm_to_pay.append(paid_at - commit.block_time)
    return {"announce_to_pay": announce_to_pay, "confirm_to_pay": confirm_to_pay}


@experiment("latency", "Payout latency", seed=8)
def run_payout_latency(
    sweep: Sweep, releases: int = 10, flaws_per_release: int = 3
) -> LatencyResult:
    """Measure payout latency over a campaign of vulnerable releases.

    Each release runs on its own seed-pure platform and the latency
    samples concatenate in release order, so fanning out over ``jobs``
    processes is bit-identical to the serial loop.
    """
    outcomes = sweep.map(
        _latency_release_trial,
        [(index, flaws_per_release) for index in range(releases)],
    )
    announce_to_pay: List[float] = []
    confirm_to_pay: List[float] = []
    for outcome in outcomes:
        announce_to_pay.extend(float(value) for value in outcome["announce_to_pay"])
        confirm_to_pay.extend(float(value) for value in outcome["confirm_to_pay"])
    return LatencyResult(
        announce_to_pay=announce_to_pay,
        confirm_to_pay=confirm_to_pay,
        confirmation_depth=DEFAULT_CONFIRMATION_DEPTH,
        mean_block_time=PAPER_MEAN_BLOCK_TIME,
    )
