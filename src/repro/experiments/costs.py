"""§VII cost measurements: SRA deployment and report submission gas.

The paper measures ≈0.095 ether of gas per SRA contract deployment and
≈0.011 ether per detection report (Fig. 6(b)).  This experiment runs
real deployments and submissions through the contract runtime and
reads the costs off the receipts and fee transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.contracts.gas import PAPER_REPORT_COST_WEI, PAPER_SRA_COST_WEI
from repro.detection.corpus import ReleaseCorpus, ReleaseCorpusConfig
from repro.experiments.harness import Comparison, ResultTable, paper_setup
from repro.experiments.runner import Sweep, experiment
from repro.units import from_wei

__all__ = ["CostResult", "run_costs"]


@dataclass
class CostResult:
    """Measured gas costs against the paper's numbers."""

    sra_cost_ether: float
    report_cost_ether: float

    def comparisons(self) -> Dict[str, Comparison]:
        return {
            "sra": Comparison(
                metric="SRA deployment gas",
                paper=from_wei(PAPER_SRA_COST_WEI),
                measured=self.sra_cost_ether,
                unit="ETH",
            ),
            "report": Comparison(
                metric="per-report gas",
                paper=from_wei(PAPER_REPORT_COST_WEI),
                measured=self.report_cost_ether,
                unit="ETH",
            ),
        }

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="§VII costs — gas per operation",
            columns=["Operation", "Paper (ETH)", "Measured (ETH)"],
        )
        for comparison in self.comparisons().values():
            table.add_row(comparison.metric, comparison.paper, round(comparison.measured, 4))
        return table


def _costs_release_trial(args: Tuple[int, int]) -> Dict[str, int]:
    """One vulnerable release on a fresh seed-pure platform.

    Returns JSON-native wei/report tallies that sum across releases.
    """
    trial_seed, index = args
    setup = paper_setup(seed=trial_seed)
    platform = setup.build_platform()
    corpus = ReleaseCorpus(
        ReleaseCorpusConfig(
            vulnerability_proportion=1.0,
            mean_vulnerabilities=3.0,
            release_period=setup.config.detection_window,
        ),
        seed=trial_seed,
    )
    provider = "provider-1"
    window = setup.config.detection_window
    platform.announce_release(provider, corpus.next_release(), at_time=0.0)
    platform.advance_until(window + 300.0)
    platform.finish_pending()
    vulnerable = sum(
        1 for case in platform.releases.values() if case.refunded_wei == 0 and case.closed
    )
    return {
        "punishment_wei": int(platform.punishments_wei[provider]),
        "vulnerable": int(vulnerable),
        "fees_wei": int(
            sum(stats.fees_paid_wei for stats in platform.detector_stats.values())
        ),
        "reports": int(
            sum(
                stats.initial_reports_submitted
                for stats in platform.detector_stats.values()
            )
        ),
    }


@experiment("costs", "§VII costs", seed=9)
def run_costs(sweep: Sweep, releases: int = 3) -> CostResult:
    """Deploy real SRAs with vulnerable releases, read costs off receipts.

    Each release deploys on its own seed-pure platform; wei tallies sum
    in release order, so any ``jobs`` fan-out matches the serial loop.
    """
    outcomes = sweep.map(
        _costs_release_trial, [(index,) for index in range(releases)]
    )
    punishment_wei = sum(outcome["punishment_wei"] for outcome in outcomes)
    vulnerable = sum(outcome["vulnerable"] for outcome in outcomes)
    fees_wei = sum(outcome["fees_wei"] for outcome in outcomes)
    reports = sum(outcome["reports"] for outcome in outcomes)

    # SRA cost: the deployment-gas share of the provider's punishment tally.
    insurance = from_wei(paper_setup(seed=sweep.seed).config.params.insurance_wei)
    total_punishment = from_wei(punishment_wei)
    sra_cost = (total_punishment - vulnerable * insurance) / releases

    # Report cost: total fees paid by detectors / reports submitted.
    report_cost = from_wei(fees_wei) / reports if reports else 0.0
    return CostResult(sra_cost_ether=sra_cost, report_cost_ether=report_cost)
