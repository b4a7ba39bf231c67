"""The trajectory as a file: one line per ``run --record``.

Entries are keyed by commit, seed and host fingerprint so a later run
is only ever compared with an earlier one from the same kind of host.
``run --output FILE`` appends the same lines to a file of its own: a
few runs of one commit are one side of ``compare``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List

HISTORY = Path(__file__).resolve().parent / "history.jsonl"


def _git(*arguments: str) -> str:
    try:
        return subprocess.run(
            ["git", *arguments], cwd=HISTORY.parent, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def host_fingerprint() -> Dict[str, Any]:
    """CPU model, core count and interpreter — what timings depend on."""
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def entry(
    seed: int, quick: bool, records: List[Dict[str, Any]],
    traced_records: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """One run's results in the shape ``compare`` and the history share."""
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "seed": seed,
        "quick": quick,
        "host": host_fingerprint(),
        "unix_time": int(time.time()),
        "workloads": {
            record["workload"]: {
                "digest": record["digest"],
                "sizes": record["sizes"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "nominal_chunk_us": record["nominal_chunk_us"],
                "mean_slowdown": record["mean_slowdown"],
                "end_to_end": record["end_to_end"],
            }
            for record in records
        },
        "per_layer": {
            record["workload"]: record["per_layer"] for record in traced_records
        },
    }


def append(result: Dict[str, Any], path: Path = HISTORY) -> None:
    """Add one run as one line: the shape ``compare`` reads a side from."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(result, sort_keys=True) + "\n")
