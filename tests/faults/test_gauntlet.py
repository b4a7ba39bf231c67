"""The chaos gauntlet end to end.

The quick test keeps the chaos window short so it can live in the
default lane; the full acceptance sweep (paper-scale chaos over three
seeds) is marked ``chaos`` and runs via ``pytest -q -m chaos`` or
``scripts/run_chaos.sh``.
"""

import pytest

from repro.faults.gauntlet import GauntletConfig, GauntletResult, run_gauntlet
from repro.telemetry import Telemetry


class TestGauntletQuick:
    def test_short_gauntlet_passes(self):
        result = run_gauntlet(
            GauntletConfig(seed=0, chaos_duration=600.0, settle_time=450.0,
                           burst_start=60.0, burst_end=200.0)
        )
        result.assert_ok()
        assert result.confirmed_reports > 0
        assert result.faults_applied > 0
        assert result.converged

    def test_result_render_is_informative(self):
        result = run_gauntlet(
            GauntletConfig(seed=1, chaos_duration=600.0, settle_time=450.0,
                           burst_start=60.0, burst_end=200.0)
        )
        text = result.render()
        assert "seed=1" in text
        assert "invariants" in text

    def test_deterministic_in_seed(self):
        config = GauntletConfig(seed=2, chaos_duration=450.0, settle_time=300.0,
                                burst_start=60.0, burst_end=200.0)
        first = run_gauntlet(config)
        second = run_gauntlet(config)
        assert first.blocks_mined == second.blocks_mined
        assert first.faults_applied == second.faults_applied
        assert first.confirmed_reports == second.confirmed_reports

    def test_telemetry_instrumented_run(self):
        config = GauntletConfig(seed=0, chaos_duration=600.0, settle_time=450.0,
                                burst_start=60.0, burst_end=200.0)
        telemetry = Telemetry()
        result = run_gauntlet(config, telemetry=telemetry)
        result.assert_ok()
        injected = sum(
            row["value"]
            for row in telemetry.metrics.snapshot()
            if row["name"] == "faults.injected"
        )
        assert injected == result.faults_applied
        assert len(telemetry.trace.by_kind("fault.injected")) == result.faults_applied
        assert len(telemetry.trace.by_kind("gauntlet.summary")) == 1
        assert len(telemetry.trace.by_kind("block.mined")) == result.blocks_mined
        assert telemetry.gauge("gauntlet.faults_applied").value == result.faults_applied
        assert telemetry.gauge("gauntlet.post_heal_convergence_seconds").value >= 0.0

    def test_telemetry_does_not_perturb_trajectory(self):
        config = GauntletConfig(seed=3, chaos_duration=450.0, settle_time=300.0,
                                burst_start=60.0, burst_end=200.0)
        plain = run_gauntlet(config)
        instrumented = run_gauntlet(config, telemetry=Telemetry())
        assert plain.blocks_mined == instrumented.blocks_mined
        assert plain.faults_applied == instrumented.faults_applied
        assert plain.confirmed_reports == instrumented.confirmed_reports
        assert plain.network == instrumented.network

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GauntletConfig(chaos_duration=0.0)
        with pytest.raises(ValueError):
            GauntletConfig(loss_rate=1.5)
        with pytest.raises(ValueError):
            GauntletConfig(burst_start=500.0, burst_end=100.0)


@pytest.mark.chaos
class TestGauntletAcceptance:
    """The ISSUE acceptance sweep: paper-scale chaos, three seeds."""

    def test_three_seed_sweep(self):
        results = [run_gauntlet(GauntletConfig(seed=seed)) for seed in (0, 1, 2)]
        for result in results:
            result.assert_ok()
            # Every published R* confirmed exactly once, on every chain.
            assert not result.missing_reports
            assert not result.duplicate_reports
            assert result.confirmed_reports > 0
        # The sweep as a whole must actually exercise recovery paths.
        assert sum(
            int(r.network.get("resyncs_performed", 0)) for r in results
        ) > 0
