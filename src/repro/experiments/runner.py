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

The experiment registry
-----------------------

An experiment is one body plus one row.  :class:`Sweep` is the whole
sweep idiom (derive one seed per trial, prepend it, :func:`run_trials`)
and :func:`experiment` registers a body in :data:`EXPERIMENTS`; the
CLI, the EXPERIMENTS.md generator and the drift and shape tests each
loop over that mapping.
"""

from __future__ import annotations

import functools
import inspect
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
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Sweep",
    "default_jobs",
    "derive_seeds",
    "experiment",
    "run_trials",
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
) -> List[R]:
    """Run ``worker`` over ``inputs``, optionally across processes.

    Returns results in input order.  ``jobs=None`` or ``jobs<=1`` runs
    serially in-process; ``jobs=0`` means one worker per core.  A
    worker exception propagates either way, exactly as the serial loop
    would raise it; only a failure to *spawn* worker processes falls
    back to the serial loop.
    """
    items = list(inputs)
    if jobs == 0:
        jobs = default_jobs()
    return list(_iter_trials(worker, items, jobs, chunksize))


class Sweep:
    """One experiment run's sweep plumbing: seed, fan-out, sink.

    ``telemetry`` is ``None`` unless an *enabled* sink was passed, so a
    body instruments under a plain ``is not None`` check.
    """

    def __init__(
        self,
        seed: Optional[int],
        jobs: Optional[int] = None,
        telemetry: Any = None,
    ) -> None:
        self.seed = seed
        self.jobs = jobs
        self.telemetry = telemetry if telemetry else None

    def map(
        self,
        trial: Callable[[Any], R],
        items: Iterable[Tuple],
        seeded: bool = True,
        chunksize: int = 1,
    ) -> List[R]:
        """``trial`` over ``items`` in input order, at any ``jobs``.

        ``seeded`` prepends one :func:`derive_seeds` seed to each item
        (an item that already carries its seed passes ``False``).
        """
        inputs = list(items)
        if seeded:
            seeds = derive_seeds(self.seed, len(inputs))
            inputs = [(seed, *item) for seed, item in zip(seeds, inputs)]
        return run_trials(trial, inputs, jobs=self.jobs, chunksize=chunksize)


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`: CLI name, table label, runner."""

    name: str
    label: str
    run: Callable[..., Any]


#: Every experiment, in suite order (the order the modules register).
EXPERIMENTS: Dict[str, Experiment] = {}

_UNIFORM = ("seed", "jobs", "telemetry")


def experiment(
    name: str, label: str, seed: Optional[int] = None
) -> Callable[[Callable[..., R]], Callable[..., R]]:
    """Register ``body(sweep, **own_params)`` as the experiment ``name``.

    Returns the public runner: the body's own parameters plus the three
    uniform keywords ``seed`` (default: this row's master seed),
    ``jobs`` and ``telemetry``, which reach the body as its
    :class:`Sweep`.  A closed-form body accepts and ignores them.
    """

    def register(body: Callable[..., R]) -> Callable[..., R]:
        @functools.wraps(body)
        def run(
            *args: Any,
            seed: Optional[int] = seed,
            jobs: Optional[int] = None,
            telemetry: Any = None,
            **own: Any,
        ) -> R:
            return body(Sweep(seed, jobs, telemetry), *args, **own)

        signature = inspect.signature(body)
        defaults = inspect.signature(run, follow_wrapped=False).parameters
        run.__signature__ = signature.replace(
            parameters=list(signature.parameters.values())[1:]
            + [defaults[keyword] for keyword in _UNIFORM]
        )
        EXPERIMENTS[name] = Experiment(name, label, run)
        return run

    return register
