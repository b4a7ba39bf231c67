"""Store-backed crash/corrupt/recover gauntlet.

One run is ~0.5 s, so every scenario gets an unmarked smoke test; the
3-scenario × 3-seed acceptance sweep is in the ``chaos`` lane
(``pytest -q -m chaos`` or ``scripts/run_chaos.sh``).
"""

from contextlib import closing

import pytest

from repro.faults.gauntlet import (
    DISK_SCENARIOS,
    run_disk_fault_gauntlet,
)
from repro.store import ChainStore
from repro.store.fsck import fsck


class TestDiskGauntletQuick:
    @pytest.mark.parametrize("scenario", DISK_SCENARIOS)
    def test_each_scenario_detects_and_heals(self, scenario):
        result = run_disk_fault_gauntlet(scenario, seed=0)
        result.assert_ok()
        assert result.scenario == scenario
        assert result.corruption_detected
        assert result.corruption_kinds  # fsck named the damage
        assert result.store_recoveries >= 1
        assert result.chain_match and result.ledger_match
        assert result.fsck_clean_after

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="unknown disk scenario"):
            run_disk_fault_gauntlet("set-on-fire")

    def test_render_is_informative(self):
        result = run_disk_fault_gauntlet("torn_write", seed=1)
        text = result.render()
        assert "torn_write" in text
        assert "seed=1" in text

    def test_deterministic_in_seed(self):
        first = run_disk_fault_gauntlet("bit_flip", seed=2)
        second = run_disk_fault_gauntlet("bit_flip", seed=2)
        assert first.blocks_mined == second.blocks_mined
        assert first.fault_log == second.fault_log
        assert first.corruption_kinds == second.corruption_kinds

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
