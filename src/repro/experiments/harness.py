"""Shared experiment harness: result tables, comparison rows, the §VII rig.

Every experiment runner returns structured results *and* can render a
paper-style table via :class:`ResultTable`, with the paper's reported
value alongside the measured one so EXPERIMENTS.md rows are generated,
not transcribed.

:func:`paper_setup` is the paper's §VII experimental setup: five
provider nodes at the top-5 Ethereum computation proportions, eight
detectors with 1-8 threads, 5-ether block rewards, 15.35 s mean block
time, 1000-ether insurances, 10-minute windows.  The platform
experiments build from it so the configuration lives in one place.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.incentives import IncentiveParameters
from repro.core.platform import PlatformConfig, SmartCrowdPlatform
from repro.detection.detector import Detector, build_detector_fleet
from repro.units import to_wei

__all__ = [
    "Comparison",
    "PaperSetup",
    "ResultTable",
    "paper_setup",
    "provider_zeta",
    "summarize",
]


@dataclass
class ResultTable:
    """A printable experiment table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append a row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Attach a footnote."""
        self.notes.append(note)

    def render(self) -> str:
        """Format as an aligned text table."""

        def _fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        header = [str(column) for column in self.columns]
        body = [[_fmt(value) for value in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"* {note}")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table."""
        print(self.render())
        print()


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured data point."""

    metric: str
    paper: Optional[float]
    measured: float
    unit: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """measured / paper (None when the paper value is unknown/zero)."""
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean/median/stdev/min/max of a sample set."""
    data = list(samples)
    return {
        "mean": statistics.fmean(data),
        "median": statistics.median(data),
        "stdev": statistics.stdev(data) if len(data) > 1 else 0.0,
        "min": min(data),
        "max": max(data),
    }


@dataclass
class PaperSetup:
    """Everything needed to instantiate the paper's experiment rig."""

    shares: Dict[str, float]
    detectors: List[Detector]
    config: PlatformConfig

    def build_platform(self) -> SmartCrowdPlatform:
        """A fresh platform instance with this configuration."""
        return SmartCrowdPlatform(self.shares, self.detectors, self.config)


def provider_zeta(provider_name: str, shares: Optional[Dict[str, float]] = None) -> float:
    """ζ_i — a provider's normalized share of the private network's
    hashpower (the 5 nodes *are* the whole network, §VII)."""
    shares = shares if shares is not None else PAPER_HASHPOWER_SHARES
    total = sum(shares.values())
    return shares[provider_name] / total


def paper_setup(
    seed: int = 0,
    detection_window: float = 600.0,
    insurance_ether: int = 1000,
    bounty_ether: int = 250,
    mean_vulnerabilities: float = 3.0,
) -> PaperSetup:
    """Build the §VII rig.

    ``bounty_ether`` (μ) defaults to insurance / (mean flaws + 1) so a
    typical vulnerable release distributes most of its forfeited
    insurance as bounties, matching the Eq. 9 reading that the
    punishment is paid out to detectors.
    """
    params = IncentiveParameters(
        bounty_wei=to_wei(bounty_ether),
        insurance_wei=to_wei(insurance_ether),
    )
    config = PlatformConfig(
        params=params,
        detection_window=detection_window,
        seed=seed,
    )
    return PaperSetup(
        shares=dict(PAPER_HASHPOWER_SHARES),
        detectors=build_detector_fleet(seed=seed),
        config=config,
    )
