"""Adversary models: the attacks of §III-A/§IV-B and the §VIII analysis.

Construction of spoofed SRAs, forged/plagiarized/tampered reports,
collusion fork races against honest-majority PoW, and the Rosenfeld
51%/double-spend success probabilities the paper's discussion cites.
"""

from repro.adversary.attacks import (
    forge_report,
    plagiarize_report,
    spoof_sra,
    steal_report_payout,
    tamper_report_wallet,
    tamper_sra_insurance,
)
from repro.adversary.detectors import DuplicatingDetector, ForgingDetector
from repro.adversary.collusion import (
    CollusionOutcome,
    build_colluding_block,
    run_collusion_race,
)
from repro.adversary.majority import (
    ForkRaceResult,
    rosenfeld_success_probability,
    simulate_fork_race,
)

__all__ = [
    "CollusionOutcome",
    "DuplicatingDetector",
    "ForgingDetector",
    "ForkRaceResult",
    "build_colluding_block",
    "forge_report",
    "plagiarize_report",
    "rosenfeld_success_probability",
    "run_collusion_race",
    "simulate_fork_race",
    "spoof_sra",
    "steal_report_payout",
    "tamper_report_wallet",
    "tamper_sra_insurance",
]
