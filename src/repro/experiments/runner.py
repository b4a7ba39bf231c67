"""Parallel experiment runner: deterministic trial fan-out over processes.

Experiment sweeps (mining trials, fork-rate ratio points, per-release
platform runs, the chaos gauntlet seeds) are embarrassingly parallel:
each trial is a pure function of its own input.  :func:`run_trials`
maps a worker over the trial inputs with a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges results
**in input order**, so the parallel output is bit-identical to the
serial loop — parallelism changes wall-clock time, never results.

Determinism contract:

* the worker must be a module-level (picklable) function that depends
  only on its input — each trial carries its own derived seed
  (:func:`derive_seeds`) instead of sharing a mutable RNG;
* results are collected with ``Executor.map``, which preserves input
  order regardless of completion order.

``jobs=None`` (or ``1``) runs the plain serial loop in-process.  When
worker *processes* cannot be spawned at all (restricted sandbox), the
runner falls back to the serial loop; an exception raised *by a
worker* is never confused with that case — it propagates with its
original type, exactly as the serial loop would raise it.

Checkpoint/resume
-----------------

Long sweeps can journal completed trials to a JSONL file via
:class:`SweepCheckpoint`: one line per trial, keyed by
``(experiment, master_seed, trial_index, input_digest)``.  A re-run
with the same checkpoint skips every journaled trial whose key still
matches and recomputes only the rest, so an interrupted multi-minute
sweep resumes from where it died.  Journaled results round-trip
through JSON, so checkpointable workers must return JSON-native
values (numbers, strings, lists, string-keyed dicts) — every worker
in :mod:`repro.experiments` does.

The experiment registry
-----------------------

An experiment is one body plus one row.  :class:`Sweep` is the whole
sweep idiom (derive one seed per trial, prepend it, :func:`run_trials`
under the ``(tag, seed)`` journal) and :func:`experiment` registers a
body in :data:`EXPERIMENTS`; the CLI, the EXPERIMENTS.md generator and
the drift and shape tests each loop over that mapping.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Sweep",
    "SweepCheckpoint",
    "default_jobs",
    "derive_seeds",
    "experiment",
    "input_digest",
    "run_trials",
    "sweep_checkpoint",
]

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0``: one per CPU core."""
    return max(1, os.cpu_count() or 1)


def derive_seeds(master_seed: int, count: int) -> List[int]:
    """Derive ``count`` independent per-trial seeds from one master seed.

    Uses the same draw (``Random(master).randrange(2**31)`` per trial)
    the serial experiments already used, so seeding a sweep with the
    same master seed yields the same trial seeds whether the trials run
    serially or fanned out.
    """
    rng = random.Random(master_seed)
    return [rng.randrange(2**31) for _ in range(count)]


def input_digest(item: Any) -> str:
    """A stable short digest of one trial input.

    Trial inputs are tuples of primitives (seeds, sizes, names), so a
    canonical-JSON serialization keyed by value is stable across runs
    and processes.  Non-JSON leaves fall back to ``repr``.
    """
    canonical = json.dumps(item, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class SweepCheckpoint:
    """A JSONL journal of completed trial results for one sweep.

    Each line is ``{"experiment", "master_seed", "trial_index",
    "input_digest", "result"}``.  :meth:`load` returns the journaled
    results for *this* sweep (same experiment tag and master seed);
    entries whose input digest no longer matches the sweep's inputs are
    ignored, so editing a sweep's parameters invalidates stale results
    instead of resuming them.  Several sweeps may share one file — the
    experiment tag keeps their lines apart.
    """

    def __init__(self, path: str, experiment: str, master_seed: int) -> None:
        self.path = path
        self.experiment = experiment
        self.master_seed = master_seed

    def load(self) -> Dict[Tuple[int, str], Any]:
        """Journaled ``(trial_index, input_digest) -> result`` entries."""
        completed: Dict[Tuple[int, str], Any] = {}
        if not os.path.exists(self.path):
            return completed
        with open(self.path, "r", encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    row = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # a line truncated by the interruption itself
                if (
                    row.get("experiment") != self.experiment
                    or row.get("master_seed") != self.master_seed
                ):
                    continue
                key = (row.get("trial_index"), row.get("input_digest"))
                completed[key] = row.get("result")
        return completed

    def record(self, trial_index: int, digest: str, result: Any) -> Any:
        """Append one completed trial; returns the JSON-normalized result.

        The caller keeps the *normalized* value so a resumed sweep (which
        reads results back out of the journal) is bit-identical to an
        uninterrupted one.
        """
        normalized = json.loads(json.dumps(result))
        row = {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "trial_index": trial_index,
            "input_digest": digest,
            "result": normalized,
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        return normalized


def sweep_checkpoint(
    path: Optional[Union[str, "SweepCheckpoint"]],
    experiment: str,
    master_seed: int,
) -> Optional[SweepCheckpoint]:
    """Build a :class:`SweepCheckpoint` from an experiment's kwarg.

    Experiments accept ``checkpoint`` as a plain path (the common CLI
    case) or an already-built :class:`SweepCheckpoint`; ``None`` means
    no journaling.
    """
    if path is None:
        return None
    if isinstance(path, SweepCheckpoint):
        return path
    return SweepCheckpoint(path, experiment=experiment, master_seed=master_seed)


def _iter_trials(
    worker: Callable[[T], R],
    items: List[T],
    jobs: Optional[int],
    chunksize: int,
) -> Iterator[R]:
    """Yield ``worker(item)`` results in input order, fanning out if asked.

    The serial fallback is reserved for *pool* failures — the executor
    cannot be constructed or its worker processes cannot be spawned
    (restricted sandbox), or the pool itself dies mid-sweep.  An
    exception raised by the worker function propagates with its
    original type: it surfaces while iterating ``Executor.map`` results
    below, never from pool construction, so it is not caught here.
    """
    if jobs is None or jobs <= 1 or len(items) <= 1:
        for item in items:
            yield worker(item)
        return
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
    except OSError:
        # The executor itself could not be built — same results, just
        # serial.
        for item in items:
            yield worker(item)
        return
    try:
        # ``Executor.map`` submits every task eagerly, so an OSError
        # here is a spawn failure — a worker's own OSError would only
        # surface when the result iterator is consumed.
        iterator = pool.map(worker, items, chunksize=max(1, chunksize))
    except (OSError, BrokenProcessPool):
        # No subprocesses available (restricted sandbox) — same
        # results, just serial.
        pool.shutdown(wait=False)
        for item in items:
            yield worker(item)
        return
    with pool:
        yielded = 0
        results = iter(iterator)
        while True:
            try:
                result = next(results)
            except StopIteration:
                return
            except BrokenProcessPool:
                # The pool's processes died under us (OOM kill, sandbox
                # reaping) — distinct from a worker exception, which
                # arrives with its original type and propagates.  Finish
                # the not-yet-delivered trials serially; trials already
                # yielded are never re-run.
                for item in items[yielded:]:
                    yield worker(item)
                return
            yield result
            yielded += 1


def run_trials(
    worker: Callable[[T], R],
    inputs: Iterable[T],
    jobs: Optional[int] = None,
    chunksize: int = 1,
    checkpoint: Optional[SweepCheckpoint] = None,
) -> List[R]:
    """Run ``worker`` over ``inputs``, optionally across processes.

    Returns results in input order.  ``jobs=None`` or ``jobs<=1`` runs
    serially in-process; ``jobs=0`` means one worker per core.  A
    worker exception propagates either way, exactly as the serial loop
    would raise it; only a failure to *spawn* worker processes falls
    back to the serial loop.

    ``checkpoint`` journals each completed trial to a JSONL file and
    skips trials already journaled under the same key — see
    :class:`SweepCheckpoint`.  Checkpointed results are JSON-normalized
    (lists for tuples), so workers used with checkpoints must return
    JSON-native values.
    """
    items = list(inputs)
    if jobs == 0:
        jobs = default_jobs()
    if checkpoint is None:
        return list(_iter_trials(worker, items, jobs, chunksize))

    digests = [input_digest(item) for item in items]
    completed = checkpoint.load()
    results: List[Any] = [None] * len(items)
    pending: List[int] = []
    for index, digest in enumerate(digests):
        if (index, digest) in completed:
            results[index] = completed[(index, digest)]
        else:
            pending.append(index)
    if pending:
        fresh = _iter_trials(
            worker, [items[index] for index in pending], jobs, chunksize
        )
        # Journal in delivery order: if the sweep dies here, everything
        # already yielded has been recorded and the re-run resumes.
        for index, result in zip(pending, fresh):
            results[index] = checkpoint.record(index, digests[index], result)
    return results


class Sweep:
    """One experiment run's sweep plumbing: seed, fan-out, journal, sink.

    ``telemetry`` is ``None`` unless an *enabled* sink was passed, so a
    body instruments under a plain ``is not None`` check.
    """

    def __init__(
        self,
        tag: str,
        seed: Optional[int],
        jobs: Optional[int] = None,
        checkpoint: Optional[Union[str, SweepCheckpoint]] = None,
        telemetry: Any = None,
    ) -> None:
        self.tag = tag
        self.seed = seed
        self.jobs = jobs
        self.checkpoint = checkpoint
        self.telemetry = telemetry if telemetry else None

    def map(
        self,
        trial: Callable[[Any], R],
        items: Iterable[Tuple],
        tag: Optional[str] = None,
        seeded: bool = True,
        journal: bool = True,
        chunksize: int = 1,
    ) -> List[R]:
        """``trial`` over ``items`` in input order, at any ``jobs``.

        ``seeded`` prepends one :func:`derive_seeds` seed to each item
        (an item that already carries its seed passes ``False``);
        ``journal`` keys the checkpoint by ``(tag, seed)`` — ``tag``
        names a sub-sweep of an experiment that runs more than one —
        and is ``False`` for trials whose results are not JSON-native.
        """
        inputs = list(items)
        if seeded:
            seeds = derive_seeds(self.seed, len(inputs))
            inputs = [(seed, *item) for seed, item in zip(seeds, inputs)]
        return run_trials(
            trial,
            inputs,
            jobs=self.jobs,
            chunksize=chunksize,
            checkpoint=sweep_checkpoint(self.checkpoint, tag or self.tag, self.seed)
            if journal
            else None,
        )


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`: CLI name, table label, runner."""

    name: str
    label: str
    run: Callable[..., Any]


#: Every experiment, in suite order (the order the modules register).
EXPERIMENTS: Dict[str, Experiment] = {}

_UNIFORM = ("seed", "jobs", "checkpoint", "telemetry")


def experiment(
    name: str, label: str, seed: Optional[int] = None
) -> Callable[[Callable[..., R]], Callable[..., R]]:
    """Register ``body(sweep, **own_params)`` as the experiment ``name``.

    Returns the public runner: the body's own parameters plus the four
    uniform keywords ``seed`` (default: this row's master seed),
    ``jobs``, ``checkpoint`` and ``telemetry``, which reach the body as
    its :class:`Sweep`.  A closed-form body accepts and ignores them.
    """

    def register(body: Callable[..., R]) -> Callable[..., R]:
        @functools.wraps(body)
        def run(
            *args: Any,
            seed: Optional[int] = seed,
            jobs: Optional[int] = None,
            checkpoint: Optional[Union[str, SweepCheckpoint]] = None,
            telemetry: Any = None,
            **own: Any,
        ) -> R:
            return body(Sweep(name, seed, jobs, checkpoint, telemetry), *args, **own)

        signature = inspect.signature(body)
        defaults = inspect.signature(run, follow_wrapped=False).parameters
        run.__signature__ = signature.replace(
            parameters=list(signature.parameters.values())[1:]
            + [defaults[keyword] for keyword in _UNIFORM]
        )
        EXPERIMENTS[name] = Experiment(name, label, run)
        return run

    return register
