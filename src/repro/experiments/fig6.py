"""Fig. 6 — balance of SmartCrowd detectors.

Fig. 6(a): incentives allocated to the 8 detectors (1-8 threads) for
releases by the 14.90%-HP provider at VP = VPB, VPB±0.01.  The paper
observes (i) incentives ≈ proportional to capability — the 8-thread
detector earns ≈7.8× the 1-thread one — and (ii) every +0.01 of VP adds
3–23.5 ether depending on capability.

Fig. 6(b): the cost of reporting — ≈0.011 ether of gas per detection
report — negligible next to the incentives.

Measurement strategy: detector payouts only occur for *vulnerable*
releases, and at VP ≈ 0.038 naive Bernoulli sampling needs thousands of
releases to converge.  We instead run the full platform on a batch of
vulnerable releases (real scans, real two-phase races, real mining and
contract payouts), measure each detector's mean payout per vulnerable
release, and scale by the expected number of vulnerable releases
VP·releases — an exact conditioning argument (E[payout] =
VP·E[payout | vulnerable]), the same expectation the paper's 100
measurements estimate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.vpb import vpb_closed_form
from repro.core.incentives import IncentiveParameters
from repro.detection.iot_system import build_system
from repro.experiments.harness import ResultTable, paper_setup, provider_zeta
from repro.experiments.runner import Sweep, experiment
from repro.units import from_wei

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Per-detector incentives (by VP) and per-report costs."""

    #: vp -> detector_id -> expected incentives over a release window (ether)
    incentives: Dict[float, Dict[str, float]]
    #: detector_id -> mean payout per vulnerable release (ether)
    payout_per_vulnerable_release: Dict[str, float]
    #: detector_id -> mean gas cost per submitted report (ether)
    cost_per_report: Dict[str, float]
    vpb: float
    samples: int
    releases_per_window: int

    def thread_of(self, detector_id: str) -> int:
        """Thread count encoded in an id like ``"detector-4"``.

        Raises a descriptive :class:`ValueError` for ids that do not end
        in ``-<number>`` rather than leaking a bare parse error.
        """
        _, sep, suffix = detector_id.rpartition("-")
        if not sep or not suffix.isdigit():
            raise ValueError(
                f"detector id {detector_id!r} does not encode a thread"
                " count; expected an id ending in '-<threads>', e.g."
                " 'detector-4'"
            )
        return int(suffix)

    def capability_ratio(self) -> float:
        """8-thread vs 1-thread mean payout (paper: ≈7.8×)."""
        missing = [
            endpoint
            for endpoint in ("detector-1", "detector-8")
            if endpoint not in self.payout_per_vulnerable_release
        ]
        if missing:
            raise KeyError(
                "capability_ratio needs the 1- and 8-thread endpoint"
                f" detectors; missing {missing} from measured detectors"
                f" {sorted(self.payout_per_vulnerable_release)}"
            )
        low = self.payout_per_vulnerable_release["detector-1"]
        high = self.payout_per_vulnerable_release["detector-8"]
        return high / low if low > 0 else float("inf")

    def delta_per_hundredth(self, detector_id: str) -> float:
        """Extra ether earned when VP rises by 0.01 (paper: 3–23.5)."""
        return (
            0.01 * self.releases_per_window
            * self.payout_per_vulnerable_release[detector_id]
        )

    def to_table(self) -> ResultTable:
        vps = sorted(self.incentives)
        table = ResultTable(
            title=(
                "Fig. 6 — detector incentives (ETH over "
                f"{self.releases_per_window} release windows) and report costs"
            ),
            columns=["Detector", "Threads"]
            + [self._vp_label(vp) for vp in vps]
            + ["+ETH per +0.01 VP", "Cost/report (ETH)"],
        )
        detectors = sorted(self.cost_per_report, key=self.thread_of)
        for detector_id in detectors:
            table.add_row(
                detector_id,
                self.thread_of(detector_id),
                *[round(self.incentives[vp][detector_id], 2) for vp in vps],
                round(self.delta_per_hundredth(detector_id), 2),
                round(self.cost_per_report[detector_id], 4),
            )
        table.add_note(
            f"8-thread/1-thread incentive ratio: {self.capability_ratio():.2f}"
            " (paper ≈ 7.8)"
        )
        table.add_note("paper: +0.01 VP adds 3-23.5 ETH; cost/report ≈ 0.011 ETH")
        table.add_note(f"payout means estimated from {self.samples} vulnerable releases")
        return table

    def _vp_label(self, vp: float) -> str:
        if abs(vp - self.vpb) < 1e-6:
            return f"VP={vp:.3f} (VPB)"
        sign = "+" if vp > self.vpb else "-"
        return f"VPB{sign}0.01"


def _fig6_release_trial(args: Tuple[int, int, str, int]) -> Dict[str, Dict[str, int]]:
    """One vulnerable release on a fresh seed-pure platform.

    Returns per-detector wei/report tallies as ints, summed in any
    order-preserving fan-out.
    """
    trial_seed, index, provider, mean_vulnerabilities = args
    setup = paper_setup(seed=trial_seed)
    platform = setup.build_platform()
    window = setup.config.detection_window
    system = build_system(
        f"fig6-sys-{index}",
        vulnerability_count=mean_vulnerabilities,
        rng=random.Random(trial_seed),
    )
    platform.announce_release(provider, system, at_time=0.0)
    platform.advance_until(window + 300.0)
    platform.finish_pending()
    incentives_wei: Dict[str, int] = {}
    fees_wei: Dict[str, int] = {}
    reports: Dict[str, int] = {}
    for detector_id, stats in platform.detector_stats.items():
        incentives_wei[detector_id] = int(stats.incentives_wei)
        fees_wei[detector_id] = int(stats.fees_paid_wei)
        reports[detector_id] = int(stats.initial_reports_submitted)
    return {"incentives_wei": incentives_wei, "fees_wei": fees_wei, "reports": reports}


@experiment("fig6", "Fig. 6", seed=6)
def run_fig6(
    sweep: Sweep,
    provider: str = "provider-3",
    samples: int = 30,
    releases_per_window: int = 11,
    mean_vulnerabilities: int = 4,
) -> Fig6Result:
    """Full-platform measurement of detector incentives and costs.

    ``releases_per_window`` defaults to 11 ten-minute release windows so
    the per-window incentive deltas land in the paper's 3-23.5 ether
    band (ΔVP·I·releases·ξ_i with I = 1000).

    Each of the ``samples`` vulnerable releases runs on its own
    seed-pure platform and the per-release tallies sum in release
    order — identical for any ``jobs`` value.
    """
    params = IncentiveParameters()
    vpb = round(
        vpb_closed_form(
            params,
            zeta_i=provider_zeta(provider),
            insurance_ether=1000.0,
            window=600.0,
            omega_per_block=2.0,
        ),
        3,
    )
    vps = (round(vpb - 0.01, 6), vpb, round(vpb + 0.01, 6))

    outcomes = sweep.map(
        _fig6_release_trial,
        [(index, provider, mean_vulnerabilities) for index in range(samples)],
    )

    incentives_wei: Dict[str, int] = {}
    fees_wei: Dict[str, int] = {}
    report_counts: Dict[str, int] = {}
    for outcome in outcomes:
        for detector_id, amount in outcome["incentives_wei"].items():
            incentives_wei[detector_id] = incentives_wei.get(detector_id, 0) + amount
        for detector_id, amount in outcome["fees_wei"].items():
            fees_wei[detector_id] = fees_wei.get(detector_id, 0) + amount
        for detector_id, count in outcome["reports"].items():
            report_counts[detector_id] = report_counts.get(detector_id, 0) + count

    payout_per_release: Dict[str, float] = {}
    cost_per_report: Dict[str, float] = {}
    for detector_id, total_wei in incentives_wei.items():
        payout_per_release[detector_id] = from_wei(total_wei) / samples
        reports = report_counts.get(detector_id, 0)
        cost_per_report[detector_id] = (
            from_wei(fees_wei.get(detector_id, 0)) / reports if reports else 0.0
        )

    incentives = {
        vp: {d: vp * releases_per_window * p for d, p in payout_per_release.items()}
        for vp in vps
    }
    return Fig6Result(
        incentives=incentives,
        payout_per_vulnerable_release=payout_per_release,
        cost_per_report=cost_per_report,
        vpb=vpb,
        samples=samples,
        releases_per_window=releases_per_window,
    )
