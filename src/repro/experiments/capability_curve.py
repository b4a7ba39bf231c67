"""DC_T vs fleet size and composition — the §VI-B capability analysis.

Not a numbered paper figure, but the paper's central theoretical claim:
"an increased m will introduce a larger DC_T approaching to 1" (Eq. 11)
— i.e. more detectors means more complete detection, which is what the
incentives exist to recruit.  Two experiments:

* **size curve** — DC_T (closed form via exact race ρ's, cross-checked
  by Monte-Carlo scans) as the fleet grows 1→8 detectors;
* **composition** — per-category coverage of single-mode fleets vs a
  mixed static/dynamic/fuzzing fleet of the same size (§VIII's point
  that different detection *kinds* complement each other).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.capability import race_rhos, total_detection_capability
from repro.detection.detector import DetectionCapability
from repro.detection.modes import (
    DetectionMode,
    ModalDetector,
    build_mixed_fleet,
    fleet_coverage,
)
from repro.detection.vulnerability import CATEGORIES
from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment

__all__ = ["CapabilityCurveResult", "CompositionResult", "run_capability_curve", "run_fleet_composition"]


@dataclass
class CapabilityCurveResult:
    """DC_T per fleet size, theory and simulation."""

    #: m -> (closed-form DC_T, Monte-Carlo DC_T)
    points: Dict[int, Tuple[float, float]]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Eq. 11 — total detection capability DC_T vs fleet size m",
            columns=["m (detectors)", "DC_T (theory)", "DC_T (simulated)"],
        )
        for m in sorted(self.points):
            theory, simulated = self.points[m]
            table.add_row(m, round(theory, 4), round(simulated, 4))
        table.add_note("paper §VI-B: DC_T increases with m, approaching 1")
        table.add_note("theory: Σ DC_i·ρ_i with exact race ρ's; simulated: Monte-Carlo scans")
        return table


def _capability_point_trial(args: Tuple[int, int, float, int]) -> List[float]:
    """One fleet size: closed-form DC_T plus a seed-pure Monte-Carlo check."""
    trial_seed, m, per_thread_hit, scans = args
    rng = random.Random(trial_seed)
    fleet = [
        DetectionCapability(threads=t, per_thread_hit=per_thread_hit)
        for t in range(1, m + 1)
    ]
    rhos = race_rhos(fleet)
    theory = total_detection_capability(
        [c.detection_probability for c in fleet], rhos
    )
    # Monte-Carlo: fraction of flaws found by at least one detector.
    found = 0
    for _ in range(scans):
        if any(
            rng.random() < capability.detection_probability
            for capability in fleet
        ):
            found += 1
    return [theory, found / scans]


@experiment("capability_curve", "Eq. 11 capability curve", seed=0)
def run_capability_curve(
    sweep: Sweep,
    max_detectors: int = 8,
    per_thread_hit: float = 0.45,
    scans: int = 2000,
) -> CapabilityCurveResult:
    """DC_T for fleets of 1..max detectors (threads 1..m).

    Each fleet size is an independent seed-pure trial, so any ``jobs``
    value produces identical points.
    """
    sizes = list(range(1, max_detectors + 1))
    outcomes = sweep.map(
        _capability_point_trial, [(m, per_thread_hit, scans) for m in sizes]
    )
    points: Dict[int, Tuple[float, float]] = {
        m: (float(theory), float(simulated))
        for m, (theory, simulated) in zip(sizes, outcomes)
    }
    return CapabilityCurveResult(points=points)


@dataclass
class CompositionResult:
    """Coverage per fleet composition."""

    #: composition label -> mean coverage over all categories
    mean_coverage: Dict[str, float]
    #: composition label -> per-category coverage
    per_category: Dict[str, Dict[str, float]]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="§VIII — fleet composition: single-mode vs mixed coverage",
            columns=["Category"] + list(self.mean_coverage),
        )
        for category in sorted(next(iter(self.per_category.values()))):
            table.add_row(
                category,
                *[
                    round(self.per_category[label][category], 3)
                    for label in self.mean_coverage
                ],
            )
        table.add_row(
            "MEAN", *[round(value, 3) for value in self.mean_coverage.values()]
        )
        table.add_note(
            "a mixed fleet covers every category; single-mode fleets have"
            " systematic blind spots"
        )
        return table


@experiment("fleet_composition", "§VIII fleet composition", seed=1)
def run_fleet_composition(
    sweep: Sweep,
    fleet_size: int = 9,
    threads: int = 4,
    per_thread_hit: float = 0.6,
) -> CompositionResult:
    """Coverage of all-static / all-dynamic / all-fuzzing / mixed fleets."""
    rng = random.Random(sweep.seed)
    compositions: Dict[str, List[ModalDetector]] = {}
    for mode in DetectionMode:
        compositions[f"all-{mode.value}"] = [
            ModalDetector(
                f"{mode.value}-{i}",
                DetectionCapability(threads=threads, per_thread_hit=per_thread_hit),
                mode,
                rng=random.Random(rng.randrange(2**31)),
            )
            for i in range(fleet_size)
        ]
    compositions["mixed"] = build_mixed_fleet(
        per_mode=fleet_size // 3, threads=threads,
        per_thread_hit=per_thread_hit, seed=sweep.seed,
    )

    per_category: Dict[str, Dict[str, float]] = {}
    mean_coverage: Dict[str, float] = {}
    for label, fleet in compositions.items():
        coverage = fleet_coverage(fleet, CATEGORIES)
        per_category[label] = coverage
        mean_coverage[label] = sum(coverage.values()) / len(coverage)
    return CompositionResult(mean_coverage=mean_coverage, per_category=per_category)
