"""The chaos gauntlet end to end.

The quick test keeps the chaos window short so it can live in the
default lane; the full acceptance sweep (paper-scale chaos over three
seeds) is marked ``chaos`` and runs via ``pytest -q -m chaos`` or
``scripts/run_chaos.sh``.
"""

import random

import pytest

from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet
from repro.faults.gauntlet import (
    BURST_END,
    BURST_LOSS_RATE,
    BURST_START,
    DELAY_SPIKE,
    DETECTOR_THREADS,
    DUPLICATION_RATE,
    LOSS_RATE,
    GauntletConfig,
    GauntletResult,
    _build_plan,
    run_gauntlet,
)
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultKind
from repro.telemetry import Telemetry


def _plan(seed=0, chaos_duration=1800.0):
    """The fault schedule ``run_gauntlet`` would inject, without running it."""
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=DETECTOR_THREADS, seed=seed),
        seed=seed,
    )
    config = GauntletConfig(seed=seed, chaos_duration=chaos_duration)
    return deployment, _build_plan(config, deployment, random.Random(seed))


def _settings(plan, kind):
    return [(event.at, event.value) for event in plan.events if event.kind is kind]


class TestFaultPlan:
    """The fixed fault mix: every fault kind, inside the chaos window."""

    def test_link_faults_span_the_chaos_window(self):
        _, plan = _plan(chaos_duration=600.0)
        assert _settings(plan, FaultKind.SET_LOSS) == [
            (0.0, LOSS_RATE),
            (BURST_START, BURST_LOSS_RATE),
            (BURST_END, LOSS_RATE),
            (600.0, 0.0),
        ]
        assert _settings(plan, FaultKind.SET_DUPLICATION) == [
            (0.0, DUPLICATION_RATE),
            (600.0, 0.0),
        ]
        assert _settings(plan, FaultKind.DELAY_SPIKE) == [(0.0, DELAY_SPIKE)]
        assert _settings(plan, FaultKind.CLEAR_DELAY_SPIKE) == [(600.0, 0.0)]

    def test_a_window_ending_with_the_burst_still_clears_the_loss(self):
        # The burst's restore and the window's end fall on one instant;
        # the injector applies ties in plan order, so the clear must
        # come last or the fleet keeps losing messages after chaos.
        _, plan = _plan(chaos_duration=BURST_END)
        assert _settings(plan, FaultKind.SET_LOSS)[-1] == (BURST_END, 0.0)

    def test_partition_splits_providers_and_detectors_both_ways(self):
        deployment, plan = _plan(chaos_duration=1000.0)
        (split,) = [e for e in plan.events if e.kind is FaultKind.PARTITION]
        (heal,) = [e for e in plan.events if e.kind is FaultKind.HEAL_PARTITION]
        assert (split.at, heal.at) == (350.0, 550.0)
        assert heal.targets == split.targets
        side_a, side_b = (set(side) for side in split.targets)
        assert not side_a & side_b
        assert side_a | side_b == set(deployment.providers) | set(deployment.detectors)
        for side in (side_a, side_b):
            # Hashpower and a detector on each side of the split.
            assert side & set(deployment.providers)
            assert side & set(deployment.detectors)

    def test_crashes_reach_detectors_as_well_as_providers(self):
        deployment, plan = _plan(seed=1)
        crashed = {name for event in plan.crashes() for name in event.targets[0]}
        assert crashed & set(deployment.providers)
        assert crashed & set(deployment.detectors)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plan_is_valid_and_heals_inside_the_window(self, seed):
        _, plan = _plan(seed=seed, chaos_duration=600.0)
        plan.validate()
        assert plan.heals_completely()
        assert plan.horizon() <= 600.0



class TestGauntletQuick:
    def test_short_gauntlet_passes(self):
        result = run_gauntlet(
            GauntletConfig(seed=0, chaos_duration=600.0, settle_time=450.0)
        )
        result.assert_ok()
        assert result.confirmed_reports > 0
        assert result.faults_applied > 0
        assert result.holds("single-tip-convergence")
        assert result.holds("published-reports-once")

    def test_result_render_is_informative(self):
        result = run_gauntlet(
            GauntletConfig(seed=1, chaos_duration=600.0, settle_time=450.0)
        )
        text = result.render()
        assert text.startswith("gauntlet seed=1: PASS")
        assert "invariants" in text
        assert "published-reports-once" in text

    def test_assert_ok_names_the_run_and_every_violated_clause(self, monkeypatch):
        # A ghost replica stuck at genesis: it splits the tip, and no R*
        # ever landed on it.
        bind = InvariantChecker.for_deployment

        def with_a_ghost(deployment):
            checker = bind(deployment)
            checker.chains["ghost"] = Blockchain(make_genesis(difficulty=1))
            return checker

        monkeypatch.setattr(InvariantChecker, "for_deployment", with_a_ghost)
        result = run_gauntlet(
            GauntletConfig(seed=0, chaos_duration=600.0, settle_time=450.0)
        )
        assert not result.ok
        assert {v.name for v in result.violations} == {
            "single-tip-convergence", "published-reports-once"
        }
        assert result.confirmed_reports == 0
        assert result.render().startswith("gauntlet seed=0: FAIL")
        with pytest.raises(AssertionError) as failure:
            result.assert_ok()
        message = str(failure.value)
        assert message.startswith("gauntlet seed=0 failed:\n")
        for violation in result.violations:
            assert f"  - {violation}" in message

    def test_deterministic_in_seed(self):
        config = GauntletConfig(seed=2, chaos_duration=450.0, settle_time=300.0)
        first = run_gauntlet(config)
        second = run_gauntlet(config)
        assert first.blocks_mined == second.blocks_mined
        assert first.faults_applied == second.faults_applied
        assert first.confirmed_reports == second.confirmed_reports

    def test_telemetry_instrumented_run(self):
        config = GauntletConfig(seed=0, chaos_duration=600.0, settle_time=450.0)
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
        config = GauntletConfig(seed=3, chaos_duration=450.0, settle_time=300.0)
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
            GauntletConfig(settle_time=-1.0)
        # The burst outage window must sit inside the chaos window.
        with pytest.raises(ValueError, match="chaos window"):
            GauntletConfig(chaos_duration=BURST_END - 1.0)


@pytest.mark.chaos
class TestGauntletAcceptance:
    """The ISSUE acceptance sweep: paper-scale chaos, three seeds."""

    def test_three_seed_sweep(self):
        results = [run_gauntlet(GauntletConfig(seed=seed)) for seed in (0, 1, 2)]
        for result in results:
            result.assert_ok()
            # Every published R* confirmed exactly once, on every chain.
            assert result.holds("published-reports-once")
            assert result.confirmed_reports > 0
        # The sweep as a whole must actually exercise recovery paths.
        assert sum(
            int(r.network.get("resyncs_performed", 0)) for r in results
        ) > 0
