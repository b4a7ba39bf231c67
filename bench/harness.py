"""How a number is taken — the same on every commit.

One workload, one process, one thread, closed loop.  A deterministic
fixed-size *unit* is repeated: one untimed warm-up, then timed
repetitions on fresh state until the ``--seconds`` budget is spent
(never fewer than ``MIN_REPETITIONS``), then one more untimed unit that
runs the workload's expensive oracle checks — last, because they build
state of their own and ``peak_rss_mb`` is a high-water mark that must
be the unit's.  ``gc.collect()`` runs before each timed region and the
collector stays on inside it.

The host is shared and its speed moves between 1× and 2× of the
uncontended time within milliseconds and across minutes, so no plain
statistic of wall times repeats between runs (README.md has the
measurements).  Every timing-derived metric is therefore *steadied*:

* the workload calls ``lap()`` at fixed points of its unit, cutting it
  into segments of a few milliseconds where the public API allows; the
  unit is deterministic, so every repetition has the same segments;
* every boundary also times one frozen reference chunk
  (``bench.reference``); a segment's *slowdown* is the mean of the two
  chunks around it over the chunk's nominal time on this host;
* a repetition's steadied time is the sum over its segments of time
  divided by slowdown;
* a stretch's steady time is the lower quartile of that across
  repetitions — interference inside a segment that the chunks around it
  miss only ever lengthens it, so the lower quartile sits nearer the
  mode than the median does.

``throughput`` is work over the unit's steady time, ``recovery_s`` the
steady time of the unit's recovery segments, the query percentiles are
taken over single-request latencies divided by their segment's
slowdown, and ``setup_s`` is the steady input generation plus the
steady construction.  The raw best and median repetition and the
sample counts are kept beside each value as diagnostics.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import reference, spec
from bench.trace import Tracer

MIN_REPETITIONS = 6
#: Inputs are generated this many times (identically, one after the
#: other) so that the generation half of ``setup_s`` has repetitions to
#: steady it with.
INPUT_GENERATIONS = 3
#: Scratch space for stores and sidecars: inside the checkout (the
#: benchmark may write nowhere else) and git-ignored.
OUT_DIR = Path(__file__).resolve().parent / "out"


class CheckFailed(AssertionError):
    """A workload's output was wrong; the command must fail."""


@dataclass
class UnitResult:
    """What one repetition of a workload's unit produced."""

    work: float  # throughput numerator, in the workload's unit of work
    attempted: int  # operations attempted
    failed: int  # operations that did not complete
    digest: str  # hex digest of the resulting state
    #: Named parts of the unit reported as metrics of their own:
    #: name -> (first segment, one past the last segment).
    stretches: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Single-operation latencies, grouped by the segment they fell in:
    #: [(segment, [seconds, ...]), ...].
    latencies: List[Tuple[int, List[float]]] = field(default_factory=list)
    #: Deterministic counts from public summaries / the driver's own
    #: bookkeeping; repeat exactly for a seed.
    counts: Dict[str, float] = field(default_factory=dict)


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` (survives ``-O``)."""
    if not condition:
        raise CheckFailed(message)


def state_digest(*parts: Any) -> str:
    """Hash heterogeneous state parts (bytes/str/int, nested) together."""
    hasher = hashlib.sha256()

    def feed(part: Any) -> None:
        if isinstance(part, (bytes, bytearray)):
            hasher.update(b"b%d:" % len(part) + bytes(part))
        elif isinstance(part, dict):
            hasher.update(b"d%d:" % len(part))
            for key in sorted(part, key=repr):
                feed(key)
                feed(part[key])
        elif isinstance(part, (list, tuple)):
            hasher.update(b"l%d:" % len(part))
            for item in part:
                feed(item)
        else:
            text = repr(part).encode()
            hasher.update(b"r%d:" % len(text) + text)

    feed(parts)
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lower_quartile(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Laps:
    """One timed stretch cut into segments; call it to mark a boundary.

    A boundary closes the running segment, times one reference chunk
    and opens the next segment, so the chunks sit between segments and
    inside none.  ``stop()`` closes the last one.
    """

    def __init__(self) -> None:
        self.reference: List[float] = [reference.chunk()]
        self.edges: List[float] = [time.perf_counter()]

    def __call__(self) -> None:
        closed = time.perf_counter()
        self.reference.append(reference.chunk())
        self.edges.append(closed)
        self.edges.append(time.perf_counter())

    def stop(self) -> "Laps":
        self.edges.append(time.perf_counter())
        self.reference.append(reference.chunk())
        return self

    @property
    def segment(self) -> int:
        """Index of the segment now running."""
        return len(self.reference) - 1

    def segments(self) -> List[float]:
        return [
            closed - opened
            for opened, closed in zip(self.edges[0::2], self.edges[1::2])
        ]

    def seconds(self) -> float:
        """Raw wall time of the stretch, reference chunks excluded."""
        return sum(self.segments())

    def slowdowns(self) -> List[float]:
        """Per segment: mean of the chunks around it over the nominal chunk."""
        chunks = self.reference
        nominal = reference.nominal_s()
        return [
            (before + after) / (2.0 * nominal)
            for before, after in zip(chunks, chunks[1:])
        ]


def steady_seconds(
    stretches: Sequence[Laps], first: int = 0, last: Optional[int] = None
) -> float:
    """Steady time of segments ``first:last`` over repeated stretches."""
    return lower_quartile(
        [
            sum(
                seconds / slowdown
                for seconds, slowdown in zip(
                    stretch.segments()[first:last], stretch.slowdowns()[first:last]
                )
            )
            for stretch in stretches
        ]
    )


def steady_percentile(repetitions: Sequence["Repetition"], share: float) -> float:
    """Nearest-rank percentile of slowdown-divided latencies, per
    repetition, then the lower quartile across repetitions."""
    values = []
    for repetition in repetitions:
        slowdowns = repetition.laps.slowdowns()
        ordered = sorted(
            seconds / slowdowns[segment]
            for segment, group in repetition.result.latencies
            for seconds in group
        )
        values.append(ordered[min(len(ordered) - 1, int(share * len(ordered)))])
    return lower_quartile(values)


@dataclass
class Measurement:
    """Everything one ``measure`` invocation learned."""

    workload: str
    seed: int
    sizes: Dict[str, int]
    traced: bool
    digest: str
    #: The host during this run, as the reference chunk saw it.
    nominal_chunk_us: float
    mean_slowdown: float
    fastest_chunk_us: float
    attempted: int
    failed: int
    end_to_end: Dict[str, Dict[str, float]]
    per_layer: Dict[str, float]
    counts: Dict[str, float]
    trace_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class Repetition:
    """One timed repetition: its construction, its unit, its outcome."""

    construct: Laps
    laps: Laps
    result: UnitResult
    peak_rss_mb: float
    spans: Optional[Dict[str, Any]] = None


def _untimed(workload, inputs, scratch: Path, deep: bool) -> UnitResult:
    """One unit on fresh state, checked, not timed."""
    gc.collect()  # the previous unit's state is cyclic garbage until now
    state = workload.construct(inputs, scratch)
    try:
        result = workload.run(inputs, state, Laps())
        workload.check(inputs, state, result, deep=deep)
    finally:
        workload.close(state)
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def _repeat(
    workload, inputs, scratch: Path, budget: float, floor: int, tracer
) -> List[Repetition]:
    """Timed repetitions on fresh state until ``budget`` seconds are spent."""
    repetitions: List[Repetition] = []
    started = time.perf_counter()
    while len(repetitions) < floor or time.perf_counter() - started < budget:
        rep_dir = scratch / f"rep-{len(repetitions)}"
        # The previous unit's state is cyclic garbage until collected:
        # left to the collector's own timing, two fleets coexist on some
        # seeds and ``peak_rss_mb`` reads 74 or 84 MiB on one workload.
        gc.collect()
        construct = Laps()
        state = workload.construct(inputs, rep_dir)
        construct.stop()
        try:
            gc.collect()
            if tracer is not None:
                tracer.begin()
            laps = Laps()
            result = workload.run(inputs, state, laps)
            laps.stop()
            spans = tracer.end() if tracer is not None else None
            workload.check(inputs, state, result, deep=False)
        finally:
            workload.close(state)
            shutil.rmtree(rep_dir, ignore_errors=True)
        repetitions.append(
            Repetition(construct, laps, result, peak_rss_mb(), spans)
        )
    return repetitions


def measure(
    workload,
    seed: int,
    seconds: float,
    traced: bool = False,
    quick: bool = False,
    min_repetitions: int = MIN_REPETITIONS,
) -> Measurement:
    """Run one workload to the contract in the module docstring."""
    sizes = spec.sizes(workload.name, quick)
    scratch = OUT_DIR / f"tmp-{workload.name}-{seed}-{int(traced)}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        generations = []
        for _ in range(INPUT_GENERATIONS):
            inputs = None  # one generation alive at a time
            laps = Laps()
            inputs = workload.generate(seed, sizes, laps)
            generations.append(laps.stop())

        warm = _untimed(workload, inputs, scratch / "warmup", deep=False)

        tracer = None
        if traced:
            # Half the budget untraced (the overhead ratio's base and
            # the untouched build times), half under the tracer.
            floor = max(2, min_repetitions // 2)
            plain = _repeat(workload, inputs, scratch, seconds / 2, floor, None)
            tracer = Tracer()
            tracer.install()
            try:
                under_trace = _repeat(
                    workload, inputs, scratch, seconds / 2, floor, tracer
                )
            finally:
                tracer.uninstall()
        else:
            plain = _repeat(workload, inputs, scratch, seconds, min_repetitions, None)
            under_trace = []
        # After every ``peak_rss_mb`` reading: the oracles build fleets,
        # chains and indices of their own.
        checked = _untimed(workload, inputs, scratch / "oracles", deep=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [warm, checked] + [rep.result for rep in plain + under_trace]
    require(
        len({result.digest for result in results}) == 1,
        f"{workload.name}: repetitions on one seed reached different states",
    )
    require(
        all(result.counts == warm.counts for result in results),
        f"{workload.name}: repetitions on one seed gave different counts",
    )

    def unit_seconds(repetitions: Sequence[Repetition], *stretch: int) -> float:
        return steady_seconds([rep.laps for rep in repetitions], *stretch)

    raw_units = [rep.laps.seconds() for rep in plain]
    end_to_end = {
        "setup_s": {
            "value": steady_seconds(generations)
            + steady_seconds([rep.construct for rep in plain]),
            "n": len(plain),
            "inputs_s": steady_seconds(generations),
            "raw_median": statistics.median(laps.seconds() for laps in generations)
            + statistics.median(rep.construct.seconds() for rep in plain),
        },
        "throughput": {
            "value": warm.work / unit_seconds(plain),
            "n": len(plain),
            "raw_best": warm.work / min(raw_units),
            "raw_median": warm.work / statistics.median(raw_units),
            "segments": len(plain[0].laps.segments()),
        },
        # After the first repetition — inputs, one warm-up and one unit,
        # nothing else: the process's peak creeps up with every further
        # one, and how many fit the budget is the host's doing.
        "peak_rss_mb": {"value": plain[0].peak_rss_mb, "n": 1},
    }
    for name, stretch in warm.stretches.items():
        end_to_end[name] = {"value": unit_seconds(plain, *stretch), "n": len(plain)}
    if warm.latencies:
        for name, share in (("query_p50_us", 0.50), ("query_p99_us", 0.99)):
            end_to_end[name] = {
                "value": steady_percentile(plain, share) * 1e6,
                "n": len(plain),
                "samples": sum(len(group) for _, group in warm.latencies),
            }
    chunks = [
        seconds
        for rep in plain + under_trace
        for seconds in rep.laps.reference
    ]
    attempted = sum(rep.result.attempted for rep in plain)
    failed = sum(rep.result.failed for rep in plain)
    end_to_end["failed_share"] = {"value": failed / attempted, "n": attempted}

    per_layer: Dict[str, float] = {}
    trace_path = None
    if tracer is not None:
        best = min(under_trace, key=lambda rep: rep.laps.seconds())
        per_layer = tracer.layer_metrics(
            best, overhead_ratio=unit_seconds(under_trace) / unit_seconds(plain)
        )
        if workload.name in spec.BUILD_METRIC:
            per_layer[spec.BUILD_METRIC[workload.name]] = steady_seconds(
                [rep.construct for rep in plain]
            )
        for name, layer_name in spec.AS_LAYER_METRIC.items():
            if name in end_to_end:
                per_layer[layer_name] = end_to_end[name]["value"]
        trace_path = str(OUT_DIR / f"trace-{workload.name}.jsonl")
        tracer.write(best.spans, trace_path)
    return Measurement(
        workload=workload.name,
        seed=seed,
        sizes=sizes,
        traced=traced,
        digest=warm.digest,
        nominal_chunk_us=reference.nominal_s() * 1e6,
        mean_slowdown=statistics.fmean(chunks) / reference.nominal_s(),
        fastest_chunk_us=min(chunks) * 1e6,
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        counts=dict(warm.counts),
        trace_path=trace_path,
    )
