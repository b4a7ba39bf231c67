"""Fault injection, recovery, and post-chaos invariants (§V-C).

The chaos harness for the SmartCrowd reproduction: declarative fault
schedules (:mod:`~repro.faults.plan`), a deterministic injector
(:mod:`~repro.faults.injector`), the detector-side retry policy for
the two-phase report submission (:mod:`~repro.faults.retry`), the
post-heal invariant sweep (:mod:`~repro.faults.invariants`), and the
end-to-end chaos gauntlets — workload chaos and disk-fault recovery —
(:mod:`~repro.faults.gauntlet`).
"""

from repro.faults.gauntlet import (
    DISK_SCENARIOS,
    GauntletConfig,
    GauntletResult,
    run_disk_fault_gauntlet,
    run_gauntlet,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    confirmed_chain_bytes,
)
from repro.faults.plan import ChaosPlan, FaultEvent, FaultKind
from repro.faults.retry import RetryPolicy

__all__ = [
    "ChaosPlan",
    "DISK_SCENARIOS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "GauntletConfig",
    "GauntletResult",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "RetryPolicy",
    "confirmed_chain_bytes",
    "run_disk_fault_gauntlet",
    "run_gauntlet",
]
