"""Fig. 4 — incentives and punishments of IoT providers.

Fig. 4(a): cumulative provider incentives (mining rewards χ·ν plus
transaction fees ψ·ω) over 10-30 minutes, one curve per hashpower
share.  Incentives grow with time and (noisily) with HP — "not strictly
obeying their computation proportions" because block discovery is
probabilistic.

Fig. 4(b): provider punishment versus vulnerability proportion (VP) for
insurances of 500/1000/1500 ether — linear in VP with slope equal to
the insurance (the whole deposit is forfeited for a vulnerable
release), offset by the 0.095-ether deployment gas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.balance import provider_punishment_ether
from repro.core.incentives import IncentiveParameters
from repro.detection.corpus import ReleaseCorpus, ReleaseCorpusConfig
from repro.detection.iot_system import build_system
from repro.experiments.harness import ResultTable, paper_setup
from repro.experiments.runner import Sweep, experiment
from repro.units import from_wei

__all__ = ["Fig4aResult", "Fig4bResult", "run_fig4a", "run_fig4b"]


@dataclass
class Fig4aResult:
    """Cumulative incentives per provider sampled over time."""

    #: provider -> [(time_s, cumulative incentives in ether)]
    series: Dict[str, List[Tuple[float, float]]]
    shares: Dict[str, float]

    def at_time(self, provider: str, time_s: float) -> float:
        """Cumulative incentives at (or just before) ``time_s``."""
        value = 0.0
        for t, amount in self.series[provider]:
            if t > time_s:
                break
            value = amount
        return value

    def to_table(self, checkpoints: Tuple[float, ...] = (600.0, 1200.0, 1800.0)) -> ResultTable:
        table = ResultTable(
            title="Fig. 4(a) — provider incentives over time (ETH)",
            columns=["Provider", "HP share"]
            + [f"t={int(t / 60)}min" for t in checkpoints],
        )
        for name in sorted(self.shares, key=self.shares.get, reverse=True):
            table.add_row(
                name,
                f"{self.shares[name] * 100:.2f}%",
                *[round(self.at_time(name, t), 2) for t in checkpoints],
            )
        table.add_note(
            "paper: incentives increase with time and HP; higher-HP providers"
            " earn more but not strictly proportionally"
        )
        return table


def _fig4a_trial(args: Tuple[int, float, float]) -> Fig4aResult:
    """One full-platform incentive run (seed-pure, module-level)."""
    seed, duration, release_period = args
    setup = paper_setup(seed=seed)
    platform = setup.build_platform()
    corpus = ReleaseCorpus(
        ReleaseCorpusConfig(
            vulnerability_proportion=0.6,
            mean_vulnerabilities=3.0,
            release_period=release_period,
        ),
        seed=seed,
    )
    providers = sorted(setup.shares)
    rng = random.Random(seed)
    for scheduled in corpus.schedule(duration, start=0.0):
        provider = rng.choice(providers)
        platform.announce_release(
            provider, scheduled.system, at_time=max(scheduled.time - release_period, 0.0)
        )

    series: Dict[str, List[Tuple[float, float]]] = {name: [] for name in setup.shares}

    def _sample(_block) -> None:
        for name in setup.shares:
            series[name].append(
                (platform.now, from_wei(platform.provider_incentives_wei(name)))
            )

    platform.add_block_listener(_sample)
    platform.advance_until(duration)
    return Fig4aResult(series=series, shares=dict(setup.shares))


@experiment("fig4a", "Fig. 4(a)", seed=3)
def run_fig4a(
    sweep: Sweep, duration: float = 1800.0, release_period: float = 600.0
) -> Fig4aResult:
    """Run the full platform for ``duration`` with periodic releases.

    A single-trial sweep: the whole run is one seed-pure worker.
    """
    (result,) = sweep.map(
        _fig4a_trial, [(sweep.seed, duration, release_period)], seeded=False
    )
    return result


@dataclass
class Fig4bResult:
    """Punishment-vs-VP curves per insurance, plus a simulated check."""

    #: insurance (ether) -> [(vp, punishment per release in ether)]
    curves: Dict[int, List[Tuple[float, float]]]
    #: simulated spot check: (insurance, vp, measured mean punishment)
    spot_check: Tuple[int, float, float]

    def to_table(self) -> ResultTable:
        vps = [point[0] for point in next(iter(self.curves.values()))]
        table = ResultTable(
            title="Fig. 4(b) — provider punishment vs vulnerability proportion (ETH/release)",
            columns=["VP"] + [f"I={insurance}" for insurance in sorted(self.curves)],
        )
        for index, vp in enumerate(vps):
            table.add_row(
                round(vp, 3),
                *[round(self.curves[ins][index][1], 2) for ins in sorted(self.curves)],
            )
        insurance, vp, measured = self.spot_check
        expected = vp * insurance + 0.095
        table.add_note(
            f"simulated check @ I={insurance}, VP={vp}: measured "
            f"{measured:.1f} ETH/release (closed form {expected:.1f})"
        )
        table.add_note("paper: punishment grows linearly with VP, steeper for larger insurance")
        return table


def _fig4b_curve_trial(
    args: Tuple[int, Tuple[float, ...]]
) -> List[Tuple[float, float]]:
    """Closed-form punishment curve for one insurance level."""
    insurance, vp_grid = args
    params = IncentiveParameters()
    return [
        (vp, provider_punishment_ether(params, vp, float(insurance), releases=1.0))
        for vp in vp_grid
    ]


def _fig4b_spot_trial(args: Tuple[int, int, float, int]) -> float:
    """Simulated spot check: mean punishment per release at a fixed VP.

    The vulnerable fraction is fixed exactly at VP (alternating
    vulnerable/clean releases), so the measured punishment matches the
    closed form without Bernoulli noise.
    """
    seed, spot_insurance, spot_vp, spot_releases = args
    setup = paper_setup(seed=seed, insurance_ether=spot_insurance)
    platform = setup.build_platform()
    rng = random.Random(seed)
    provider = "provider-3"
    vulnerable_count = round(spot_releases * spot_vp)
    for index in range(spot_releases):
        flaws = 3 if index < vulnerable_count else 0
        system = build_system(
            f"fig4b-sys-{index}",
            vulnerability_count=flaws,
            rng=random.Random(rng.randrange(2**31)),
        )
        platform.announce_release(
            provider, system, at_time=index * setup.config.detection_window
        )
    platform.advance_until(spot_releases * setup.config.detection_window + 600.0)
    platform.finish_pending()
    return from_wei(platform.punishments_wei[provider]) / spot_releases


@experiment("fig4b", "Fig. 4(b)", seed=4)
def run_fig4b(
    sweep: Sweep,
    insurances: Tuple[int, ...] = (500, 1000, 1500),
    vp_grid: Tuple[float, ...] = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10),
    spot_releases: int = 8,
) -> Fig4bResult:
    """Closed-form sweep plus one simulated spot check.

    Each insurance curve and the spot check are independent seed-pure
    workers.
    """
    spot_vp = 0.5
    spot_insurance = 1000
    curve_outcomes = sweep.map(
        _fig4b_curve_trial,
        [(insurance, tuple(vp_grid)) for insurance in insurances],
        seeded=False,
    )
    curves = dict(zip(insurances, curve_outcomes))
    (measured,) = sweep.map(
        _fig4b_spot_trial,
        [(sweep.seed, spot_insurance, spot_vp, spot_releases)],
        seeded=False,
    )
    return Fig4bResult(
        curves=curves, spot_check=(spot_insurance, spot_vp, measured)
    )
