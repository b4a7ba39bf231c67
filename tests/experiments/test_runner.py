"""The parallel experiment runner: bit-identical to serial, order-stable.

``run_trials`` fans trials out over a process pool; these tests pin the
determinism contract — results merge in input order and every parallel
run reproduces the serial run byte for byte for the same seeds — plus
the error contract (worker exceptions propagate; only pool/spawn
failures fall back to serial).
"""

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.ablations import ablate_two_phase
from repro.experiments.fig5 import run_fig5b
from repro.experiments.runner import (
    EXPERIMENTS,
    Sweep,
    default_jobs,
    derive_seeds,
    experiment,
    run_trials,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry


def _square(value):
    return value * value


def _logged_square(args):
    """Append the input to a log file, then square it (picklable)."""
    log_path, value = args
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return value * value


def _oserror_worker(args):
    """Log the attempt, then raise OSError for the poisoned value."""
    log_path, value = args
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    if value == 2:
        raise OSError("worker-side disk failure")
    return value * value


def _attempt_counts(log_path):
    with open(log_path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    counts = {}
    for line in lines:
        counts[line] = counts.get(line, 0) + 1
    return counts


class TestRunTrials:
    def test_serial_preserves_order(self):
        assert run_trials(_square, [3, 1, 2], jobs=None) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        items = list(range(20, 0, -1))
        assert run_trials(_square, items, jobs=2) == [v * v for v in items]

    def test_parallel_matches_serial(self):
        items = list(range(40))
        assert run_trials(_square, items, jobs=2) == run_trials(
            _square, items, jobs=None
        )

    def test_jobs_zero_means_per_core(self):
        assert run_trials(_square, [1, 2, 3], jobs=0) == [1, 4, 9]

    def test_empty_inputs(self):
        assert run_trials(_square, [], jobs=2) == []

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestDeriveSeeds:
    def test_deterministic_for_master_seed(self):
        assert derive_seeds(42, 10) == derive_seeds(42, 10)

    def test_prefix_stable_as_count_grows(self):
        assert derive_seeds(42, 20)[:10] == derive_seeds(42, 10)

    def test_distinct_masters_diverge(self):
        assert derive_seeds(1, 8) != derive_seeds(2, 8)

    def test_seeds_are_distinct(self):
        seeds = derive_seeds(7, 64)
        assert len(set(seeds)) == len(seeds)


class TestWorkerExceptions:
    """A worker exception is not a spawn failure — it must propagate.

    Regression suite for the bug where ``(OSError, BrokenProcessPool)``
    was caught around the whole ``pool.map`` consumption, so a worker's
    own ``OSError`` triggered the serial fallback: every trial re-ran a
    second time and the real error vanished.
    """

    def test_worker_oserror_propagates_parallel(self, tmp_path):
        log = tmp_path / "attempts.log"
        items = [(str(log), value) for value in range(4)]
        with pytest.raises(OSError, match="worker-side disk failure"):
            run_trials(_oserror_worker, items, jobs=2)
        # The poisoned sweep must never silently re-run: each input is
        # attempted at most once.
        assert all(count == 1 for count in _attempt_counts(log).values())

    def test_worker_oserror_propagates_serial(self, tmp_path):
        log = tmp_path / "attempts.log"
        items = [(str(log), value) for value in range(4)]
        with pytest.raises(OSError, match="worker-side disk failure"):
            run_trials(_oserror_worker, items, jobs=None)
        counts = _attempt_counts(log)
        # Serial stops at the failing trial; nothing runs twice.
        assert counts == {"0": 1, "1": 1, "2": 1}

    def test_worker_valueerror_keeps_type_parallel(self):
        with pytest.raises(ValueError, match="bad trial input"):
            run_trials(_value_error_worker, [1, 2, 3], jobs=2)


def _value_error_worker(value):
    if value == 2:
        raise ValueError("bad trial input")
    return value


class _UnspawnablePool:
    """Stand-in executor whose construction fails like a locked sandbox."""

    def __init__(self, *args, **kwargs):
        raise OSError("no processes for you")


class _MapFailsPool:
    """Executor that builds but cannot submit; records its shutdown."""

    shutdowns = 0

    def __init__(self, *args, **kwargs):
        pass

    def map(self, *args, **kwargs):
        raise OSError("spawn failed at submit time")

    def shutdown(self, wait=True):
        type(self).shutdowns += 1


class TestSpawnFallback:
    def test_pool_construction_failure_falls_back_serial(self, monkeypatch):
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _UnspawnablePool)
        assert run_trials(_square, [3, 1, 2], jobs=2) == [9, 1, 4]

    def test_map_submit_failure_falls_back_serial(self, monkeypatch):
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _MapFailsPool)
        before = _MapFailsPool.shutdowns
        assert run_trials(_square, [3, 1, 2], jobs=2) == [9, 1, 4]
        assert _MapFailsPool.shutdowns == before + 1

    def test_fallback_runs_each_item_once(self, monkeypatch, tmp_path):
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _UnspawnablePool)
        log = tmp_path / "attempts.log"
        items = [(str(log), value) for value in range(5)]
        assert run_trials(_logged_square, items, jobs=4) == [
            value * value for value in range(5)
        ]
        assert all(count == 1 for count in _attempt_counts(log).values())


def _echo(args):
    """The trial input itself, as a list."""
    return list(args)


class TestSweep:
    ITEMS = [(0, "a", 1.5), (1, "b", 2.5), (2, "c", 3.5)]

    def test_map_is_the_hand_written_idiom(self):
        seeds = derive_seeds(9, len(self.ITEMS))
        by_hand = run_trials(
            _echo,
            [(seed, *item) for seed, item in zip(seeds, self.ITEMS)],
            jobs=2,
        )
        mapped = Sweep(9, jobs=2).map(_echo, self.ITEMS)
        assert mapped == by_hand
        assert [row[0] for row in mapped] == seeds

    def test_unseeded_items_pass_through_untouched(self):
        mapped = Sweep(9).map(_echo, self.ITEMS, seeded=False)
        assert mapped == [list(item) for item in self.ITEMS]

    def test_results_are_the_trials_own_objects(self):
        results = Sweep(9, jobs=2).map(tuple, [(1, "a"), (2, "b")], seeded=False)
        # Tuples survive the pool: nothing round-trips through JSON.
        assert results == [(1, "a"), (2, "b")]

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_a_prefix_of_items_maps_to_a_prefix_of_results(self, jobs):
        # derive_seeds is prefix-stable, so a trial's seed depends on its
        # position only — never on how many trials follow it.
        items = [(index,) for index in range(6)]
        full = Sweep(9, jobs=jobs).map(_echo, items)
        assert Sweep(9, jobs=jobs).map(_echo, items[:4]) == full[:4]

    def test_the_pool_runs_each_trial_once(self, tmp_path):
        log = tmp_path / "attempts.log"
        items = [(str(log), value) for value in range(8)]
        results = Sweep(9, jobs=2).map(_logged_square, items, seeded=False)
        assert results == [value * value for value in range(8)]
        assert _attempt_counts(log) == {str(value): 1 for value in range(8)}

    def test_chunksize_and_serial_agree(self):
        items = [(index,) for index in range(40)]
        assert Sweep(1, jobs=2).map(_echo, items, chunksize=16) == Sweep(1).map(
            _echo, items
        )

    def test_only_an_enabled_telemetry_reaches_the_body(self):
        armed = Telemetry()
        assert Sweep(1, telemetry=armed).telemetry is armed
        assert Sweep(1, telemetry=NULL_TELEMETRY).telemetry is None
        assert Sweep(1).telemetry is None


class TestExperimentDecorator:
    def test_registers_a_row_and_returns_the_runner(self, monkeypatch):
        monkeypatch.setattr(runner_module, "EXPERIMENTS", {})

        @experiment("toy", "Toy row", seed=3)
        def run_toy(sweep, scale=2):
            """Echo what the sweep was built from."""
            return sweep.seed, sweep.jobs, scale

        assert list(runner_module.EXPERIMENTS) == ["toy"]
        row = runner_module.EXPERIMENTS["toy"]
        assert (row.name, row.label, row.run) == ("toy", "Toy row", run_toy)
        assert run_toy() == (3, None, 2)
        assert run_toy(5, seed=8, jobs=2) == (8, 2, 5)
        assert "toy" not in EXPERIMENTS  # the real registry was untouched


class TestBitIdenticalExperiments:
    def test_fig5b_parallel_matches_serial(self):
        serial = run_fig5b(trials=6, window=120.0, seed=11, jobs=None)
        parallel = run_fig5b(trials=6, window=120.0, seed=11, jobs=2)
        assert parallel.vpb == serial.vpb
        assert parallel.balances == serial.balances

    def test_two_phase_parallel_matches_serial(self):
        serial = ablate_two_phase(trials=40, seed=5, jobs=None)
        parallel = ablate_two_phase(trials=40, seed=5, jobs=2)
        assert parallel == serial
