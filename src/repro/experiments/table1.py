"""Table I — third-party detection results are partially overlapping.

Scans the two calibrated apps with the six modelled services and
reports per-severity counts next to the paper's, plus the pairwise
Jaccard overlap that quantifies the caption's "partially overlapped".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.detection.services import (
    PAPER_SERVICE_PROFILES,
    build_table1_apps,
)
from repro.detection.vulnerability import Severity
from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment

__all__ = ["Table1Result", "run_table1", "PAPER_TABLE1"]

#: The counts the paper reports: service -> app -> (high, medium, low).
PAPER_TABLE1: Dict[str, Dict[str, Tuple[int, int, int]]] = {
    "VirusTotal": {"samsung-connect": (0, 0, 0), "samsung-smart-home": (0, 0, 0)},
    "Quixxi": {"samsung-connect": (4, 6, 3), "samsung-smart-home": (3, 8, 4)},
    "Andrototal": {"samsung-connect": (0, 0, 0), "samsung-smart-home": (0, 0, 0)},
    "jaq.alibaba": {"samsung-connect": (1, 14, 32), "samsung-smart-home": (21, 46, 55)},
    "Ostorlab": {"samsung-connect": (0, 2, 0), "samsung-smart-home": (0, 2, 2)},
    "htbridge": {"samsung-connect": (1, 6, 5), "samsung-smart-home": (1, 4, 6)},
}


@dataclass
class Table1Result:
    """Measured counts and overlap statistics."""

    counts: Dict[str, Dict[str, Tuple[int, int, int]]]
    overlaps: Dict[str, Dict[Tuple[str, str], float]]

    def max_overlap(self) -> float:
        """Largest pairwise Jaccard across both apps."""
        values = [
            value for per_app in self.overlaps.values() for value in per_app.values()
        ]
        return max(values) if values else 0.0

    def to_table(self) -> ResultTable:
        """Paper-vs-measured table."""
        table = ResultTable(
            title="Table I — per-service vulnerability counts (paper / measured)",
            columns=[
                "Service",
                "Connect H",
                "Connect M",
                "Connect L",
                "SmartHome H",
                "SmartHome M",
                "SmartHome L",
            ],
        )
        for service, paper_apps in PAPER_TABLE1.items():
            measured_apps = self.counts[service]
            cells = []
            for app in ("samsung-connect", "samsung-smart-home"):
                for index in range(3):
                    cells.append(
                        f"{paper_apps[app][index]} / {measured_apps[app][index]}"
                    )
            table.add_row(service, *cells)
        table.add_note(
            "overlap is partial: max pairwise Jaccard "
            f"{self.max_overlap():.2f} (1.0 would mean identical findings)"
        )
        return table


def _table1_scan_trial(args: Tuple[int, int, int, str]) -> Dict[str, object]:
    """One (app, service) scan with its own derived rng.

    Returns JSON-native severity counts plus the found-vulnerability
    keys so the parent can reassemble Table I cells and the pairwise
    Jaccard overlaps in any fan-out order.
    """
    trial_seed, app_seed, app_index, service_name = args
    apps = build_table1_apps(seed=app_seed)
    app = apps[app_index]
    result = PAPER_SERVICE_PROFILES[service_name].scan(app, random.Random(trial_seed))
    by_severity = result.counts()
    return {
        "service": service_name,
        "app": app.name,
        "counts": [
            by_severity[Severity.HIGH],
            by_severity[Severity.MEDIUM],
            by_severity[Severity.LOW],
        ],
        "keys": sorted(result.keys()),
    }


@experiment("table1", "Table I", seed=7)
def run_table1(sweep: Sweep) -> Table1Result:
    """Scan both apps with every service profile.

    Each (app, service) scan is an independent seed-pure trial; counts
    and the pairwise Jaccard overlaps are assembled in scan order, so
    any ``jobs`` value produces identical results.
    """
    outcomes = sweep.map(
        _table1_scan_trial,
        [
            (sweep.seed, app_index, service_name)
            for app_index in (0, 1)
            for service_name in PAPER_SERVICE_PROFILES
        ],
    )

    counts: Dict[str, Dict[str, Tuple[int, int, int]]] = {}
    overlaps: Dict[str, Dict[Tuple[str, str], float]] = {}
    per_app: Dict[str, List[Dict[str, object]]] = {}
    for outcome in outcomes:
        high, medium, low = outcome["counts"]
        counts.setdefault(outcome["service"], {})[outcome["app"]] = (
            int(high), int(medium), int(low)
        )
        per_app.setdefault(outcome["app"], []).append(outcome)
    # Pairwise Jaccard per app, the set arithmetic of
    # repro.detection.services.overlap_matrix (pairs where both
    # services found nothing are skipped).
    for app_name, scans in per_app.items():
        matrix: Dict[Tuple[str, str], float] = {}
        key_sets = [set(scan["keys"]) for scan in scans]
        for i, first in enumerate(scans):
            for j in range(i + 1, len(scans)):
                union = key_sets[i] | key_sets[j]
                if not union:
                    continue
                matrix[(first["service"], scans[j]["service"])] = (
                    len(key_sets[i] & key_sets[j]) / len(union)
                )
        overlaps[app_name] = matrix
    return Table1Result(counts=counts, overlaps=overlaps)
