"""Judge the runs of B against the runs of A, one (metric, workload) row at a time.

A side is a file of ``run --output`` entries, one line per run of the
same code on the same host (``history.jsonl`` has the same shape).  A
row's value is the median over the side's runs and its *spread* the
distance between the quartiles of those runs over their median — how
far two sets of runs of one commit can sit apart, which repetitions
inside one run (same process, same minutes of the host) cannot say.  A
row is ``regressed`` when B's median is worse than A's by more than the
metric's bound; otherwise ``unresolved`` when either side's spread is
wider than the bound or a side has a single run (so a difference inside
the bound proves nothing), unless every run of B reads better than
every run of A; and ``ok`` otherwise.  Ratios are B / A: the base is A.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import spec


class Incomparable(ValueError):
    """The two sides were not taken the same way."""


def load(path: str) -> List[Dict[str, Any]]:
    """The runs in one ``run --output`` file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance over the median; ``None`` for a single run."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values) or 1.0)


def compare(a: List[Dict[str, Any]], b: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    taken = {(run["quick"], json.dumps(run["host"], sort_keys=True)) for run in a + b}
    if len(taken) > 1:
        raise Incomparable("runs differ in host fingerprint or in --quick")
    rows = []
    for workload in spec.ALL:
        for metric in spec.END_TO_END:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            values_a, values_b = (
                [
                    run["workloads"][workload]["end_to_end"][name]["value"]
                    for run in side
                    if name in run["workloads"].get(workload, {}).get("end_to_end", {})
                ]
                for side in (a, b)
            )
            if not values_a or not values_b:
                continue
            value_a, value_b = statistics.median(values_a), statistics.median(values_b)
            if name == "failed_share":
                ratio = None
                worse_by = value_b - value_a  # absolute bound
            else:
                ratio = value_b / value_a
                worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spreads = [_spread(values_a), _spread(values_b)]
            apart = (
                max(values_b) < min(values_a)
                if better == "lower"
                else min(values_b) > max(values_a)
            )
            if worse_by > bound:
                verdict = "regressed"
            elif not apart and (None in spreads or max(spreads) > bound):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "metric": name, "workload": workload, "unit": metric["unit"],
                    "a": value_a, "b": value_b, "runs": (len(values_a), len(values_b)),
                    "ratio": ratio, "bound": bound, "spreads": spreads,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'metric':<14} {'workload':<14} {'median A':>12} {'median B':>12} "
        f"{'B/A':>8} {'bound':>6} {'spread A':>9} {'spread B':>9} {'runs':>6}  verdict"
    ]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        spread_a, spread_b = (
            "-" if spread is None else f"{spread:.3f}" for spread in row["spreads"]
        )
        runs = "{}+{}".format(*row["runs"])
        lines.append(
            f"{row['metric']:<14} {row['workload']:<14} {row['a']:>12.6g} "
            f"{row['b']:>12.6g} {ratio:>8} {row['bound']:>6.2f} "
            f"{spread_a:>9} {spread_b:>9} {runs:>6}  {row['verdict']}"
        )
    return "\n".join(lines)
