"""The parallel experiment runner: bit-identical to serial, order-stable.

``run_trials`` fans trials out over a process pool; these tests pin the
determinism contract — results merge in input order and every parallel
run reproduces the serial run byte for byte for the same seeds — plus
the error contract (worker exceptions propagate; only pool/spawn
failures fall back to serial) and the sweep checkpoint journal.
"""

import json

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.ablations import ablate_two_phase
from repro.experiments.fig5 import run_fig5b
from repro.experiments.runner import (
    EXPERIMENTS,
    Sweep,
    SweepCheckpoint,
    default_jobs,
    derive_seeds,
    experiment,
    input_digest,
    run_trials,
    sweep_checkpoint,
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


class TestInputDigest:
    def test_stable_across_calls(self):
        assert input_digest((1, "x", 2.5)) == input_digest((1, "x", 2.5))

    def test_distinct_inputs_diverge(self):
        assert input_digest((1, 2)) != input_digest((2, 1))

    def test_non_json_values_fall_back_to_repr(self):
        assert input_digest((1, b"bytes")) == input_digest((1, b"bytes"))


class TestSweepCheckpoint:
    def _checkpoint(self, tmp_path, experiment="exp", master_seed=3):
        return SweepCheckpoint(
            str(tmp_path / "sweep.jsonl"),
            experiment=experiment,
            master_seed=master_seed,
        )

    def test_round_trip_matches_uncheckpointed(self, tmp_path):
        items = list(range(6))
        plain = run_trials(_square, items)
        checkpointed = run_trials(
            _square, items, checkpoint=self._checkpoint(tmp_path)
        )
        assert checkpointed == plain
        # A second run resumes entirely from the journal.
        resumed = run_trials(_square, items, checkpoint=self._checkpoint(tmp_path))
        assert resumed == plain

    def test_interrupted_sweep_resumes_without_rerunning(self, tmp_path):
        log = tmp_path / "attempts.log"
        items = [(str(log), value) for value in range(6)]
        checkpoint = self._checkpoint(tmp_path)
        # "Interrupted" run: only the first 3 trials completed.
        partial = run_trials(_logged_square, items[:3], checkpoint=checkpoint)
        # Resume over the full sweep: the journaled prefix is not re-run.
        full = run_trials(_logged_square, items, checkpoint=checkpoint)
        assert full[:3] == partial
        assert full == [value * value for value in range(6)]
        assert all(count == 1 for count in _attempt_counts(log).values())

    def test_resumed_equals_uninterrupted(self, tmp_path):
        items = list(range(8))
        uninterrupted = run_trials(
            _square, items, checkpoint=self._checkpoint(tmp_path, "uninterrupted")
        )
        checkpoint = self._checkpoint(tmp_path, "interrupted")
        run_trials(_square, items[:5], checkpoint=checkpoint)
        resumed = run_trials(_square, items, checkpoint=checkpoint)
        assert resumed == uninterrupted

    def test_parallel_resume_matches_serial(self, tmp_path):
        log = tmp_path / "attempts.log"
        items = [(str(log), value) for value in range(8)]
        checkpoint = self._checkpoint(tmp_path)
        run_trials(_logged_square, items[:4], checkpoint=checkpoint)
        parallel = run_trials(_logged_square, items, jobs=2, checkpoint=checkpoint)
        assert parallel == [value * value for value in range(8)]
        assert all(count == 1 for count in _attempt_counts(log).values())

    def test_changed_input_invalidates_stale_entry(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        run_trials(_square, [2, 3], checkpoint=checkpoint)
        # Same indices, different inputs: journaled results must not leak.
        assert run_trials(_square, [4, 5], checkpoint=checkpoint) == [16, 25]

    def test_truncated_journal_line_is_skipped(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        run_trials(_square, [1, 2, 3], checkpoint=checkpoint)
        with open(checkpoint.path, "a", encoding="utf-8") as handle:
            handle.write('{"experiment": "exp", "master_se')  # died mid-write
        assert run_trials(_square, [1, 2, 3], checkpoint=checkpoint) == [1, 4, 9]

    def test_sweeps_share_one_file_by_experiment_tag(self, tmp_path):
        first = self._checkpoint(tmp_path, experiment="a")
        second = self._checkpoint(tmp_path, experiment="b")
        assert run_trials(_square, [2], checkpoint=first) == [4]
        assert run_trials(_cube, [2], checkpoint=second) == [8]
        # Both journals live in the same file, keyed apart by tag.
        assert run_trials(_square, [2], checkpoint=first) == [4]
        assert run_trials(_cube, [2], checkpoint=second) == [8]

    def test_master_seed_keys_entries_apart(self, tmp_path):
        first = self._checkpoint(tmp_path, master_seed=1)
        second = self._checkpoint(tmp_path, master_seed=2)
        run_trials(_square, [3], checkpoint=first)
        # Same experiment, same trial index, different master seed: the
        # second sweep must compute its own result, not reuse the first.
        assert run_trials(_cube, [3], checkpoint=second) == [27]

    def test_record_normalizes_tuples_to_lists(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        results = run_trials(_pair, [1, 2], checkpoint=checkpoint)
        assert results == [[1, 2], [2, 4]]
        assert results == run_trials(_pair, [1, 2], checkpoint=checkpoint)

    def test_journal_rows_have_the_documented_keys(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        run_trials(_square, [7], checkpoint=checkpoint)
        with open(checkpoint.path, "r", encoding="utf-8") as handle:
            row = json.loads(handle.readline())
        assert set(row) == {
            "experiment",
            "master_seed",
            "trial_index",
            "input_digest",
            "result",
        }
        assert row["experiment"] == "exp"
        assert row["master_seed"] == 3
        assert row["trial_index"] == 0
        assert row["input_digest"] == input_digest(7)
        assert row["result"] == 49


def _cube(value):
    return value ** 3


def _pair(value):
    return (value, value * 2)


class TestSweepCheckpointFactory:
    def test_none_passes_through(self):
        assert sweep_checkpoint(None, "exp", 1) is None

    def test_path_builds_checkpoint(self, tmp_path):
        built = sweep_checkpoint(str(tmp_path / "c.jsonl"), "exp", 5)
        assert isinstance(built, SweepCheckpoint)
        assert built.experiment == "exp"
        assert built.master_seed == 5

    def test_instance_passes_through(self, tmp_path):
        instance = SweepCheckpoint(str(tmp_path / "c.jsonl"), "exp", 5)
        assert sweep_checkpoint(instance, "other", 9) is instance


def _echo(args):
    """The trial input itself, as the journal would store it."""
    return list(args)


#: Journal of ``run_fork_rate(ratios=(0.005, 0.5), blocks=40,
#: checkpoint=...)`` as written by the commit before the registry
#: (hand-written ``derive_seeds`` + ``run_trials`` + ``sweep_checkpoint``).
PARENT_FORKS_JOURNAL = (
    '{"experiment": "forks", "input_digest": "d212092168ac82ec", '
    '"master_seed": 10, "result": [40, 40, 0.0], "trial_index": 0}\n'
    '{"experiment": "forks", "input_digest": "d39c70a3e095dae5", '
    '"master_seed": 10, "result": [40, 28, 0.3], "trial_index": 1}\n'
)


class TestSweep:
    ITEMS = [(0, "a", 1.5), (1, "b", 2.5), (2, "c", 3.5)]

    def test_map_is_the_hand_written_idiom(self, tmp_path):
        by_hand_path = tmp_path / "hand.jsonl"
        sweep_path = tmp_path / "sweep.jsonl"
        seeds = derive_seeds(9, len(self.ITEMS))
        by_hand = run_trials(
            _echo,
            [(seed, *item) for seed, item in zip(seeds, self.ITEMS)],
            jobs=2,
            checkpoint=sweep_checkpoint(str(by_hand_path), "exp", 9),
        )
        mapped = Sweep("exp", 9, jobs=2, checkpoint=str(sweep_path)).map(
            _echo, self.ITEMS
        )
        # Same inputs reached the trial, same lines reached the journal.
        assert mapped == by_hand
        assert [row[0] for row in mapped] == seeds
        assert sweep_path.read_text() == by_hand_path.read_text()

    def test_unseeded_items_pass_through_untouched(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        mapped = Sweep("exp", 9, checkpoint=str(path)).map(
            _echo, self.ITEMS, seeded=False
        )
        assert mapped == [list(item) for item in self.ITEMS]
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["input_digest"] for row in rows] == [
            input_digest(item) for item in self.ITEMS
        ]

    def test_journal_false_writes_nothing_and_keeps_objects(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep("exp", 9, checkpoint=str(path))
        results = sweep.map(tuple, [(1, "a"), (2, "b")], seeded=False, journal=False)
        # Tuples survive: nothing round-tripped through JSON.
        assert results == [(1, "a"), (2, "b")]
        assert not path.exists()

    def test_sub_tags_key_two_sweeps_of_one_experiment_apart(self, tmp_path):
        from repro.experiments.fig4 import run_fig4b

        path = tmp_path / "sweep.jsonl"
        first = run_fig4b(spot_releases=2, checkpoint=str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["experiment"] for row in rows] == ["fig4b.curves"] * 3 + [
            "fig4b.spot"
        ]
        assert {row["master_seed"] for row in rows} == {4}
        resumed = run_fig4b(spot_releases=2, checkpoint=str(path))
        assert resumed.curves == first.curves
        assert resumed.spot_check == first.spot_check
        assert len(path.read_text().splitlines()) == 4  # nothing recomputed

    def test_chunksize_and_serial_agree(self):
        items = [(index,) for index in range(40)]
        assert Sweep("exp", 1, jobs=2).map(_echo, items, chunksize=16) == Sweep(
            "exp", 1
        ).map(_echo, items)

    def test_only_an_enabled_telemetry_reaches_the_body(self):
        armed = Telemetry()
        assert Sweep("exp", 1, telemetry=armed).telemetry is armed
        assert Sweep("exp", 1, telemetry=NULL_TELEMETRY).telemetry is None
        assert Sweep("exp", 1).telemetry is None

    def test_parent_journal_resumes_under_the_registry(self, tmp_path, monkeypatch):
        import repro.experiments.forks as forks

        path = tmp_path / "sweep.jsonl"
        path.write_text(PARENT_FORKS_JOURNAL)

        def _must_not_run(args):
            raise AssertionError(f"journaled trial recomputed: {args}")

        monkeypatch.setattr(forks, "_fork_rate_trial", _must_not_run)
        resumed = forks.run_fork_rate(
            ratios=(0.005, 0.5), blocks=40, checkpoint=str(path)
        )
        assert resumed.points == {0.005: (40, 40, 0.0), 0.5: (40, 28, 0.3)}
        assert path.read_text() == PARENT_FORKS_JOURNAL


class TestExperimentDecorator:
    def test_registers_a_row_and_returns_the_runner(self, monkeypatch):
        monkeypatch.setattr(runner_module, "EXPERIMENTS", {})

        @experiment("toy", "Toy row", seed=3)
        def run_toy(sweep, scale=2):
            """Echo what the sweep was built from."""
            return sweep.tag, sweep.seed, sweep.jobs, sweep.checkpoint, scale

        assert list(runner_module.EXPERIMENTS) == ["toy"]
        row = runner_module.EXPERIMENTS["toy"]
        assert (row.name, row.label, row.run) == ("toy", "Toy row", run_toy)
        assert run_toy() == ("toy", 3, None, None, 2)
        assert run_toy(5, seed=8, jobs=2, checkpoint="p") == ("toy", 8, 2, "p", 5)
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
