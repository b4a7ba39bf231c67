"""JSONL export and the run-report summarizer.

One run = one JSONL file: a ``meta`` header line, every retained
:class:`~repro.telemetry.trace.TraceEvent` in order, then a snapshot
row per metric instrument.  The format is line-oriented on purpose —
``grep kind=fault run.jsonl`` works, files concatenate, and the
summarizer streams without loading structure it does not need.

``python -m repro.experiments --report run.jsonl`` renders the report
for a recorded run; :func:`summarize_run` is the library entry point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Union

from repro.telemetry.trace import TraceEvent

__all__ = ["RunRecord", "read_jsonl", "summarize_run", "write_jsonl"]


def write_jsonl(
    telemetry: "Any",
    destination: Union[str, IO[str]],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a telemetry object's trace + metrics snapshot as JSONL.

    ``destination`` is a path or an open text handle; returns the
    number of lines written.  The ``meta`` dict (run label, seed,
    config) lands on the header line.
    """
    header: Dict[str, Any] = {
        "type": "meta",
        "format": "repro.telemetry/v1",
        "trace_events": len(telemetry.trace),
        "trace_dropped": telemetry.trace.dropped,
        "metrics": len(telemetry.metrics.snapshot()),
    }
    if meta:
        header.update(meta)
    lines = [header]
    lines.extend(event.to_dict() for event in telemetry.trace)
    lines.extend(telemetry.metrics.snapshot())

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True) + "\n")
    else:
        for line in lines:
            destination.write(json.dumps(line, sort_keys=True) + "\n")
    return len(lines)


@dataclass
class RunRecord:
    """A parsed JSONL run: meta + trace + metric snapshot rows."""

    meta: Dict[str, Any] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)

    def events_by_kind(self) -> Dict[str, int]:
        """Event count per kind, insertion-ordered by first occurrence."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def metric(self, name: str, **labels: Any) -> Optional[Dict[str, Any]]:
        """The snapshot row for one series, or None."""
        wanted = {str(k): str(v) for k, v in labels.items()}
        for row in self.metrics:
            if row["name"] == name and row.get("labels", {}) == wanted:
                return row
        return None

    def metric_rows(self, name: str) -> List[Dict[str, Any]]:
        """Every labeled series of a metric name."""
        return [row for row in self.metrics if row["name"] == name]


_NUMBER = (int, float)
_METRIC_KEYS = {"name": str, "labels": dict}
#: The keys each row type must carry, with the JSON type of each value
#: (a histogram with samples also needs numeric ``mean``/``min``/``max``).
_ROW_KEYS: Dict[str, Dict[str, Any]] = {
    "meta": {},
    "trace": {"time": _NUMBER, "kind": str},
    "counter": {**_METRIC_KEYS, "value": _NUMBER},
    "gauge": {**_METRIC_KEYS, "value": _NUMBER},
    "histogram": {**_METRIC_KEYS, "count": int},
}


def _parse_row(raw: str, line: int) -> Dict[str, Any]:
    """One JSONL line as a row dict; ``ValueError`` naming ``line`` if not."""
    try:
        row = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {line}: not JSON ({exc.msg})") from None
    if not isinstance(row, dict):
        raise ValueError(f"line {line}: expected a JSON object")
    kind = row.get("type")
    keys = _ROW_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"line {line}: unknown telemetry row type {kind!r}")
    if kind == "histogram" and row.get("count"):
        keys = {**keys, "mean": _NUMBER, "min": _NUMBER, "max": _NUMBER}
    for key, kinds in keys.items():
        if not isinstance(row.get(key), kinds):
            raise ValueError(f"line {line}: {kind} row needs a {key!r}")
    return row


def read_jsonl(source: Union[str, IO[str]]) -> RunRecord:
    """Parse a telemetry JSONL file back into a :class:`RunRecord`.

    Raises :class:`ValueError` naming the first line that is not a
    telemetry row (and :class:`OSError` if a path cannot be read).
    """

    def _parse(handle: IO[str]) -> RunRecord:
        record = RunRecord()
        for line, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            row = _parse_row(raw, line)
            kind = row["type"]
            if kind == "meta":
                record.meta = {
                    k: v for k, v in row.items() if k != "type"
                }
            elif kind == "trace":
                record.events.append(
                    TraceEvent(
                        time=row["time"],
                        kind=row["kind"],
                        fields=row.get("fields", {}),
                    )
                )
            else:
                record.metrics.append(row)
        return record

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return _parse(handle)
    return _parse(source)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def summarize_run(source: Union[str, IO[str], RunRecord]) -> str:
    """Render a human-readable run report from a JSONL file.

    Sections: run metadata, trace event counts by kind, counters,
    gauges, and histogram summaries (count/mean/min/max).
    """
    record = source if isinstance(source, RunRecord) else read_jsonl(source)
    lines: List[str] = ["telemetry run report", "====================="]

    if record.meta:
        lines.append("meta:")
        for key in sorted(record.meta):
            lines.append(f"  {key}: {record.meta[key]}")

    counts = record.events_by_kind()
    lines.append(f"trace: {len(record.events)} events")
    for kind, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        span = [e.time for e in record.events if e.kind == kind]
        lines.append(
            f"  {kind:<32} x{count:<7} t=[{min(span):.1f}, {max(span):.1f}]"
        )

    counters = [row for row in record.metrics if row["type"] == "counter"]
    if counters:
        lines.append(f"counters: {len(counters)} series")
        for row in sorted(counters, key=lambda r: (r["name"], str(r["labels"]))):
            lines.append(
                f"  {row['name']}{_format_labels(row['labels'])} = {row['value']}"
            )

    gauges = [row for row in record.metrics if row["type"] == "gauge"]
    if gauges:
        lines.append(f"gauges: {len(gauges)} series")
        for row in sorted(gauges, key=lambda r: (r["name"], str(r["labels"]))):
            lines.append(
                f"  {row['name']}{_format_labels(row['labels'])} = {row['value']:g}"
            )

    histograms = [row for row in record.metrics if row["type"] == "histogram"]
    if histograms:
        lines.append(f"histograms: {len(histograms)} series")
        for row in sorted(histograms, key=lambda r: (r["name"], str(r["labels"]))):
            if row["count"]:
                stats = (
                    f"count={row['count']} mean={row['mean']:.4g} "
                    f"min={row['min']:.4g} max={row['max']:.4g}"
                )
            else:
                stats = "count=0"
            lines.append(
                f"  {row['name']}{_format_labels(row['labels'])} {stats}"
            )

    return "\n".join(lines)
