"""Experiment runners — one per table/figure in the paper's evaluation.

Each is one body plus one row of :data:`EXPERIMENTS`
(:func:`repro.experiments.runner.experiment`); ``python -m
repro.experiments [NAME ...]`` lists and runs them, and the imports
below are in suite order because a row registers when its module loads.
"""

from repro.experiments.table1 import PAPER_TABLE1, Table1Result, run_table1
from repro.experiments.fig3 import Fig3aResult, Fig3bResult, run_fig3a, run_fig3b
from repro.experiments.fig4 import Fig4aResult, Fig4bResult, run_fig4a, run_fig4b
from repro.experiments.fig5 import Fig5aResult, Fig5bResult, run_fig5a, run_fig5b
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.costs import CostResult, run_costs
from repro.experiments.ablations import (
    ablate_escrow,
    ablate_report_fee,
    ablate_two_phase,
)
from repro.experiments.capability_curve import (
    run_capability_curve,
    run_fleet_composition,
)
from repro.experiments.latency import LatencyResult, run_payout_latency
from repro.experiments.forks import ForkRateResult, run_fork_rate
from repro.experiments.fleet_scale import FleetScaleResult, run_fleet_scale
from repro.experiments.chaos import ChaosGauntletResult, run_chaos_gauntlet
from repro.experiments.participation import ParticipationResult, run_participation
from repro.experiments.harness import (
    Comparison,
    PaperSetup,
    ResultTable,
    paper_setup,
    provider_zeta,
    summarize,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    Sweep,
    default_jobs,
    derive_seeds,
    experiment,
    run_trials,
)

__all__ = [
    "ChaosGauntletResult",
    "Comparison",
    "CostResult",
    "EXPERIMENTS",
    "Fig3aResult",
    "Fig3bResult",
    "Fig4aResult",
    "Fig4bResult",
    "Fig5aResult",
    "Fig5bResult",
    "Fig6Result",
    "FleetScaleResult",
    "ForkRateResult",
    "LatencyResult",
    "PAPER_TABLE1",
    "PaperSetup",
    "ParticipationResult",
    "ResultTable",
    "Sweep",
    "Table1Result",
    "ablate_escrow",
    "ablate_report_fee",
    "ablate_two_phase",
    "default_jobs",
    "derive_seeds",
    "experiment",
    "paper_setup",
    "provider_zeta",
    "run_capability_curve",
    "run_chaos_gauntlet",
    "run_costs",
    "run_fig3a",
    "run_fig3b",
    "run_fig4a",
    "run_fig4b",
    "run_fig5a",
    "run_fig5b",
    "run_fig6",
    "run_fleet_composition",
    "run_fleet_scale",
    "run_fork_rate",
    "run_participation",
    "run_payout_latency",
    "run_table1",
    "run_trials",
    "summarize",
]
