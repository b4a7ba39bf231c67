"""A frozen reference chunk: the host's speed, measured beside the work.

The hosts this benchmark runs on are shared.  Their speed moves between
about 1× and 2× of the uncontended time on a scale of milliseconds to
minutes (README.md has the measurements), so neither a median nor a
minimum of wall times repeats from one run to the next.  The harness
therefore times this ~0.15 ms chunk at every segment boundary of a
unit, and divides each segment's time by the slowdown the two chunks
around it saw: their time over the chunk's *nominal* time, its fastest
time on this kind of host (``nominal_s``).  A reported second is
therefore a second on this host when nothing else contends for it.

The chunk touches nothing under ``src/`` (builtins, ``hashlib`` and
``struct`` only), so no change to the program can move it, and
``chunk`` must never be edited: doing so rescales every number in
``history.jsonl``.
Its mix — big-integer modular arithmetic, dict/tuple/str churn with a
sort, chained SHA-3 over packed bytes — is the interpreter work the
five workloads are made of.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from pathlib import Path
from time import perf_counter

from bench.history import host_fingerprint

#: Fastest the chunk runs between a workload's segments, per host
#: (CPU model, Python major.minor), fixed once per host.  A run's own
#: fastest chunk is no substitute: 15 s on a busy host can pass without
#: one quiet 0.15 ms (fastest chunk 180–190 µs in 4 of 40 runs, which
#: read 15–27 % low when scaled by it).
NOMINAL_S = {
    ("Intel(R) Xeon(R) Processor @ 2.10GHz", "3.11"): 155e-6,
}
#: A host not in the table is calibrated once per checkout — the
#: fastest chunk of this many seconds — and the result kept here
#: (git-ignored), so every run in the checkout is scaled alike.  Add
#: the host to the table to make its numbers comparable across
#: checkouts (back to back the chunk runs ~3 % faster than between a
#: workload's segments, which only rescales every number alike).
CALIBRATION_S = 20.0
CALIBRATED = Path(__file__).resolve().parent / "out" / "nominal.json"
_PRIME = 2**255 - 19


@functools.lru_cache(maxsize=None)
def nominal_s() -> float:
    """The chunk's nominal time on this host, in seconds."""
    host = host_fingerprint()
    key = (host["cpu"], ".".join(host["python"].split(".")[:2]))
    if key in NOMINAL_S:
        return NOMINAL_S[key]
    try:
        kept = json.loads(CALIBRATED.read_text())
        if kept["host"] == list(key):
            return kept["nominal_s"]
    except (OSError, ValueError, KeyError):
        pass
    started = perf_counter()
    fastest = chunk()
    while perf_counter() - started < CALIBRATION_S:
        fastest = min(fastest, chunk())
    CALIBRATED.parent.mkdir(parents=True, exist_ok=True)
    CALIBRATED.write_text(json.dumps({"host": key, "nominal_s": fastest}))
    return fastest


def chunk() -> float:
    """Run the chunk once; returns the seconds it took."""
    started = perf_counter()
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    for i in range(80):
        x = (x * x + i) % _PRIME
    table = {}
    for i in range(260):
        table[(i * 7919) % 1009] = (i, str(i))
    ordered = sorted(table.values())
    digest = x.to_bytes(32, "big")
    for i in range(100):
        digest = hashlib.sha3_256(digest + struct.pack(">Q", ordered[i][0])).digest()
    return perf_counter() - started
