"""Fig. 5 — balance of IoT providers and the VP baseline.

Fig. 5(a): VPB — the break-even vulnerability proportion — per provider
hashpower for 10/20/30-minute windows with a 1000-ether insurance.
Higher HP ⇒ more mining income ⇒ a larger VPB can be absorbed; longer
windows accumulate more income against the single release's insurance,
so VPB grows with the window.  The paper reads VPB ≈ 0.038 for the
14.90%-HP provider at 10 minutes.

Fig. 5(b): provider balance at VP = VPB, VPB±0.01 (10-minute window,
1000-ether insurance): ≈0 at VPB, and ±~10 ether when VP moves by 0.01
(ΔVP·I = 0.01·1000).  Mining income is *measured* from the stochastic
competition so the figure keeps the paper's sampling noise; the
punishment term is the exact VP·I + cp expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.vpb import vpb_closed_form
from repro.chain.pow import PAPER_HASHPOWER_SHARES, MiningModel
from repro.core.incentives import IncentiveParameters
from repro.experiments.harness import ResultTable, provider_zeta
from repro.experiments.runner import Sweep, experiment
from repro.units import from_wei

__all__ = ["Fig5aResult", "Fig5bResult", "run_fig5a", "run_fig5b", "PAPER_VPB_REFERENCE"]

#: The paper's reference point: provider at 14.90% HP, 10 min, I=1000.
PAPER_VPB_REFERENCE = 0.038


@dataclass
class Fig5aResult:
    """VPB per provider per window."""

    #: provider -> window seconds -> VPB
    vpb: Dict[str, Dict[float, float]]
    shares: Dict[str, float]

    def to_table(self) -> ResultTable:
        windows = sorted(next(iter(self.vpb.values())))
        table = ResultTable(
            title="Fig. 5(a) — VP baseline (VPB) vs hashing power (I=1000 ETH)",
            columns=["Provider", "HP share"]
            + [f"t={int(w / 60)}min" for w in windows],
        )
        for name in sorted(self.shares, key=self.shares.get, reverse=True):
            table.add_row(
                name,
                f"{self.shares[name] * 100:.2f}%",
                *[round(self.vpb[name][w], 4) for w in windows],
            )
        table.add_note(
            f"paper reference: VPB ≈ {PAPER_VPB_REFERENCE} for 14.90% HP at 10 min"
        )
        table.add_note("higher HP -> larger VPB; longer window -> larger VPB")
        return table


@experiment("fig5a", "Fig. 5(a)")
def run_fig5a(
    sweep: Sweep,
    windows: Tuple[float, ...] = (600.0, 1200.0, 1800.0),
    insurance_ether: float = 1000.0,
    omega_per_block: float = 2.0,
) -> Fig5aResult:
    """Closed-form VPB over the provider × window grid.

    ``omega_per_block`` — average detection reports per block (fee
    income); at the paper's report volume a couple per block is
    typical.
    """
    params = IncentiveParameters()
    vpb: Dict[str, Dict[float, float]] = {}
    for name in PAPER_HASHPOWER_SHARES:
        zeta = provider_zeta(name)
        vpb[name] = {
            window: vpb_closed_form(
                params,
                zeta_i=zeta,
                insurance_ether=insurance_ether,
                window=window,
                releases=1.0,
                omega_per_block=omega_per_block,
            )
            for window in windows
        }
    return Fig5aResult(vpb=vpb, shares=dict(PAPER_HASHPOWER_SHARES))


@dataclass
class Fig5bResult:
    """Provider balance at VPB and VPB±0.01 (measured mining income)."""

    provider: str
    vpb: float
    #: vp -> list of per-trial balances (ether)
    balances: Dict[float, List[float]]

    def mean_balance(self, vp: float) -> float:
        samples = self.balances[vp]
        return sum(samples) / len(samples)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=f"Fig. 5(b) — balance of {self.provider} (I=1000 ETH, 10 min window)",
            columns=["VP", "Mean balance (ETH)", "Trials"],
        )
        for vp in sorted(self.balances):
            label = "VPB" if abs(vp - self.vpb) < 1e-6 else (
                "VPB+0.01" if vp > self.vpb else "VPB-0.01"
            )
            table.add_row(
                f"{vp:.3f} ({label})",
                round(self.mean_balance(vp), 2),
                len(self.balances[vp]),
            )
        table.add_note(
            "paper: ~0 at VPB; ±0.01 VP shifts balance by ~10 ETH (ΔVP·I)"
        )
        return table


def _fig5b_trial(args: Tuple[int, str, float]) -> int:
    """One mining-income trial: blocks ``provider`` wins in ``window``.

    Module-level and seed-driven so the sweep can fan trials out across
    processes with bit-identical results.
    """
    trial_seed, provider, window = args
    model = MiningModel.from_shares(
        PAPER_HASHPOWER_SHARES, rng=random.Random(trial_seed)
    )
    clock, won = 0.0, 0
    while True:
        outcome = model.next_block()
        clock += outcome.interval
        if clock > window:
            return won  # found after the window closed
        won += outcome.winner == provider


@experiment("fig5b", "Fig. 5(b)", seed=5)
def run_fig5b(
    sweep: Sweep,
    provider: str = "provider-3",
    window: float = 600.0,
    insurance_ether: float = 1000.0,
    trials: int = 80,
    omega_per_block: float = 2.0,
) -> Fig5bResult:
    """Measure mining income per window; subtract the expected punishment.

    Per-trial seeds are pre-derived from ``seed``, so any ``jobs`` value
    produces the same balances.  ``telemetry`` records per-trial win
    counts and a run summary event; instrumentation happens after the
    trials return, so it never perturbs the seeded trial streams.
    """
    params = IncentiveParameters()
    zeta = provider_zeta(provider)
    vpb = round(
        vpb_closed_form(
            params,
            zeta_i=zeta,
            insurance_ether=insurance_ether,
            window=window,
            omega_per_block=omega_per_block,
        ),
        6,
    )
    vps = (round(vpb - 0.01, 6), vpb, round(vpb + 0.01, 6))
    wins = sweep.map(_fig5b_trial, [(provider, window)] * trials)
    income_per_block = (
        from_wei(params.block_reward_wei) + from_wei(params.report_fee_wei) * omega_per_block
    )
    cp = from_wei(params.deployment_cost_wei)
    balances = {
        vp: [won * income_per_block - (vp * insurance_ether + cp) for won in wins]
        for vp in vps
    }
    result = Fig5bResult(provider=provider, vpb=vpb, balances=balances)
    telemetry = sweep.telemetry
    if telemetry is not None:
        wins_histogram = telemetry.histogram("fig5b.blocks_won")
        for won in wins:
            wins_histogram.observe(won)
        telemetry.counter("fig5b.trials").inc(len(wins))
        telemetry.event(
            "fig5b.run",
            provider=provider,
            vpb=vpb,
            trials=len(wins),
            mean_balance_at_vpb=round(result.mean_balance(vpb), 4),
        )
    return result
