#!/usr/bin/env python3
"""Regenerate the substrate gate table in docs/PERFORMANCE.md.

The table is one loop over ``benchmarks.substrate.PROBES`` (probe,
oracle, bound, the ``bench/`` metric watching the same layer) joined
with the committed values in ``BENCH_substrate.json``, followed by the
retired probes and what replaced each.  ``render()`` returns the marked
block as a string so the tier-1 drift test
(``tests/test_perf_gate_docs.py``) can compare it against the
checked-in file; ``main()`` rewrites the block in place.  Run it (with
``PYTHONPATH=src``) after changing a registry row or refreshing the
baseline.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.substrate import PROBES, RETIRED, report_rows  # noqa: E402

DOC = ROOT / "docs" / "PERFORMANCE.md"
BEGIN = "<!-- gate-table:begin (scripts/gen_perf_gates.py writes this block) -->"
END = "<!-- gate-table:end -->"


def render() -> str:
    """The marked block, markers included."""
    payload = json.loads((ROOT / "BENCH_substrate.json").read_text())
    lines = [
        BEGIN,
        "",
        f"Committed values: `BENCH_substrate.json`, {payload['platform']}, "
        f"`cpu_count` {payload['cpu_count']}, Python {payload['python']}.",
        "",
        "| Probe · field | Measures | Oracle (parity asserted before timing) "
        "| Bound | Committed | Same layer, end to end (`bench/`) |",
        "|---|---|---|---|---|---|",
    ]
    for probe in PROBES:
        shared = (probe.headline, probe.oracle, probe.watched_by)
        for field, value, bound, status in report_rows(payload, probe):
            measures, oracle, watched_by = shared
            if status == "recorded":
                bound, committed = status, value
            else:
                bound = bound.replace(">=", "≥").replace("<=", "≤")
                committed = f"{value} ({status})"
            lines.append(
                f"| `{field}` | {measures} | {oracle} | {bound} | {committed} "
                f"| {watched_by} |"
            )
            shared = ("〃", "〃", "〃")
    for name, replacement in RETIRED:
        lines.append(f"| {name} | — | — | retired | — | {replacement} |")
    lines += ["", END]
    return "\n".join(lines)


def main() -> None:
    text = DOC.read_text()
    head, rest = text.split(BEGIN)
    tail = rest.split(END)[1]
    DOC.write_text(head + render() + tail)
    print(f"wrote the gate table into {DOC}")


if __name__ == "__main__":
    main()
