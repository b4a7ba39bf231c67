"""Chaos gauntlet sweep — the fault-tolerance claim, measured (§V-C).

Runs the full chaos gauntlet (crash/restart schedules, burst loss,
duplication, delay spikes, one timed partition) over several seeds and
tabulates what the recovery machinery did: blocks mined under chaos,
chain resyncs, records resubmitted after reorgs, detector retries, and
— the point of it all — whether every invariant held and every
published report landed on the canonical chain exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment
from repro.faults.gauntlet import GauntletConfig, GauntletResult, run_gauntlet
from repro.telemetry import Telemetry

__all__ = ["ChaosGauntletResult", "run_chaos_gauntlet"]


@dataclass
class ChaosGauntletResult:
    """Per-seed gauntlet outcomes."""

    runs: List[GauntletResult]

    @property
    def all_ok(self) -> bool:
        """True when every seed passed every invariant."""
        return all(run.ok for run in self.runs)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Chaos gauntlet: crash/restart + partition + lossy links",
            columns=[
                "seed",
                "blocks",
                "faults",
                "resyncs",
                "resubmitted",
                "retries",
                "reports on-chain once",
                "invariants",
            ],
        )
        for run in self.runs:
            retries = int(run.network.get("initial_retries", 0)) + int(
                run.network.get("detailed_retries", 0)
            )
            not_once = sum(v.name == "published-reports-once" for v in run.violations)
            table.add_row(
                run.seed,
                run.blocks_mined,
                run.faults_applied,
                run.network.get("resyncs_performed", 0),
                run.network.get("records_resubmitted", 0),
                retries,
                f"{run.confirmed_reports}"
                + (f" ({not_once} not once)" if not_once else ""),
                "all hold" if run.ok else "VIOLATED",
            )
        table.add_note(
            "0.2 crash prob/epoch, 10% loss (90% burst), duplication,"
            " delay spikes, one timed partition; invariants checked after heal"
        )
        return table


def _gauntlet_trial(args: Tuple[int, float, float, bool]):
    """One seeded gauntlet run (module-level so it can cross processes).

    With ``instrumented`` set, the trial records into its own local
    :class:`~repro.telemetry.Telemetry` and returns ``(result,
    snapshot_payload)`` so the parent can merge the worker's metrics
    and trace back into the run report.
    """
    seed, chaos_duration, settle_time, instrumented = args
    config = GauntletConfig(
        seed=seed,
        chaos_duration=chaos_duration,
        settle_time=settle_time,
    )
    if not instrumented:
        return run_gauntlet(config)
    telemetry = Telemetry()
    result = run_gauntlet(config, telemetry=telemetry)
    return result, telemetry.snapshot_payload()


@experiment("chaos", "Chaos gauntlet")
def run_chaos_gauntlet(
    sweep: Sweep,
    seeds: Tuple[int, ...] = (0, 1, 2),
    chaos_duration: float = 1800.0,
    settle_time: float = 900.0,
) -> ChaosGauntletResult:
    """The ≥3-seed acceptance sweep at the paper-scale configuration.

    Each seed is an independent deterministic run, so ``jobs`` fans the
    sweep out one-gauntlet-per-process; results are merged in seed
    order and are identical to the serial sweep.

    An enabled ``telemetry`` composes with ``jobs``: each trial records
    into a worker-local telemetry whose snapshot is merged back in seed
    order, so the combined metrics and trace are identical to a serial
    instrumented sweep.
    """
    telemetry = sweep.telemetry
    instrumented = telemetry is not None
    outcomes = sweep.map(
        _gauntlet_trial,
        [(seed, chaos_duration, settle_time, instrumented) for seed in seeds],
        seeded=False,
    )
    if not instrumented:
        return ChaosGauntletResult(runs=outcomes)
    runs = []
    for result, payload in outcomes:
        telemetry.merge_payload(payload)
        runs.append(result)
    return ChaosGauntletResult(runs=runs)
