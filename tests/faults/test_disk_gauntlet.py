"""Store-backed crash/corrupt/recover gauntlet.

One run is ~0.5 s, so every scenario gets an unmarked smoke test; the
3-scenario × 3-seed acceptance sweep is in the ``chaos`` lane
(``pytest -q -m chaos`` or ``scripts/run_chaos.sh``).
"""

from contextlib import closing
from dataclasses import replace

import pytest

from repro.faults import gauntlet
from repro.faults.gauntlet import (
    DISK_SCENARIOS,
    run_disk_fault_gauntlet,
)
from repro.store import ChainStore
from repro.store.fsck import FsckIssue, fsck

#: The disk run's verdict, clause by clause, in the order it checks them.
CLAUSES = [
    "fsck-detected",
    "store-recovered",
    "chain-match",
    "ledger-replay",
    "fsck-clean",
    "single-tip-convergence",
]


class TestDiskGauntletQuick:
    @pytest.mark.parametrize("scenario", DISK_SCENARIOS)
    def test_each_scenario_detects_and_heals(self, scenario):
        result = run_disk_fault_gauntlet(scenario, seed=0)
        result.assert_ok()
        assert result.scenario == scenario
        assert result.checked == CLAUSES
        assert all(result.holds(clause) for clause in CLAUSES)
        # fsck-detected holds only on a probe with issues: fsck named
        # the damage, and the run says which kinds.
        assert "detected=[none]" not in result.render()

    def test_assert_ok_names_the_run_and_every_violated_clause(self, monkeypatch):
        # An fsck that lies both ways: clean while the store is torn,
        # dirty once it has healed.
        def inverted(path):
            report = fsck(path)
            lie = [] if report.issues else [FsckIssue("sabotaged", "a clean store")]
            return replace(report, issues=lie)

        monkeypatch.setattr(gauntlet, "fsck", inverted)
        result = run_disk_fault_gauntlet("torn_write", seed=0)
        assert [v.name for v in result.violations] == ["fsck-detected", "fsck-clean"]
        assert result.holds("chain-match") and result.holds("ledger-replay")
        assert result.render().startswith(
            "disk gauntlet seed=0 scenario=torn_write: FAIL"
        )
        with pytest.raises(AssertionError) as failure:
            result.assert_ok()
        message = str(failure.value)
        assert message.startswith(
            "disk gauntlet seed=0 scenario=torn_write failed:\n"
        )
        assert "  - fsck-detected: fsck of the downed store found kinds [none]" in message
        assert "  - fsck-clean: " in message

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="unknown disk scenario"):
            run_disk_fault_gauntlet("set-on-fire")

    def test_render_is_informative(self):
        result = run_disk_fault_gauntlet("torn_write", seed=1)
        text = result.render()
        assert "torn_write" in text
        assert "seed=1" in text
        assert "chain-match" in text

    def test_deterministic_in_seed(self):
        first = run_disk_fault_gauntlet("bit_flip", seed=2)
        second = run_disk_fault_gauntlet("bit_flip", seed=2)
        assert first.blocks_mined == second.blocks_mined
        assert first.fault_log == second.fault_log
        # The render carries the fsck kinds and the recovery count.
        assert first.render() == second.render()

    def test_store_dir_keeps_the_stores_for_inspection(self, tmp_path):
        result = run_disk_fault_gauntlet(
            "torn_write", seed=0, store_dir=str(tmp_path)
        )
        result.assert_ok()
        victim_dir = tmp_path / result.victim
        assert victim_dir.is_dir()
        # The kept store is post-heal: clean, and non-trivially long.
        assert fsck(victim_dir).ok
        with closing(ChainStore(victim_dir)) as reopened:
            assert len(reopened) > 1
            assert reopened.last_recovery.clean


@pytest.mark.chaos
class TestDiskGauntletAcceptance:
    """ISSUE acceptance: disk-fault set × three seeds, byte-for-byte."""

    def test_three_seed_sweep(self):
        results = [
            run_disk_fault_gauntlet(scenario, seed=seed)
            for scenario in DISK_SCENARIOS
            for seed in (0, 1, 2)
        ]
        assert len(results) == len(DISK_SCENARIOS) * 3
        for result in results:
            result.assert_ok()
        # Every scenario appears for every seed.
        assert {(r.scenario, r.seed) for r in results} == {
            (scenario, seed)
            for scenario in DISK_SCENARIOS
            for seed in (0, 1, 2)
        }
