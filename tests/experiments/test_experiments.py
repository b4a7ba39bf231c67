"""Shape tests for the experiment runners (small parameters).

These assert the *reproduction criteria* from DESIGN.md §4 — who wins,
by roughly what factor, where crossovers fall — not absolute numbers.
"""

import random
import statistics

import pytest

from repro.analysis.balance import provider_punishment_ether
from repro.core.incentives import IncentiveParameters, provider_incentive
from repro.detection.services import (
    PAPER_SERVICE_PROFILES,
    build_table1_apps,
    overlap_matrix,
)
from repro.detection.vulnerability import Severity
from repro.experiments import (
    run_costs,
    run_fig3a,
    run_fig3b,
    run_fig4a,
    run_fig4b,
    run_fig5a,
    run_fig5b,
    run_table1,
)
from repro.experiments.runner import derive_seeds
from repro.units import from_wei

PARAMS = IncentiveParameters()


class TestTable1:
    def test_signature_services_report_zero(self):
        result = run_table1()
        for service in ("VirusTotal", "Andrototal"):
            for app_counts in result.counts[service].values():
                assert app_counts == (0, 0, 0)

    def test_jaq_dominates(self):
        result = run_table1()
        totals = {
            service: sum(sum(counts) for counts in per_app.values())
            for service, per_app in result.counts.items()
        }
        assert max(totals, key=totals.get) == "jaq.alibaba"

    def test_overlap_partial(self):
        result = run_table1()
        assert 0.0 < result.max_overlap() < 1.0

    def test_overlaps_match_overlap_matrix(self):
        # The inline Jaccard is the set arithmetic of overlap_matrix:
        # rescan every (app, service) on its derived seed and compare.
        result = run_table1(seed=7)
        apps = build_table1_apps(seed=7)
        services = list(PAPER_SERVICE_PROFILES)
        seeds = iter(derive_seeds(7, len(apps) * len(services)))
        for app in apps:
            scans = [
                PAPER_SERVICE_PROFILES[name].scan(app, random.Random(next(seeds)))
                for name in services
            ]
            assert result.overlaps[app.name] == overlap_matrix(scans)

    def test_pairs_with_no_findings_are_skipped(self):
        result = run_table1()
        for per_app in result.overlaps.values():
            assert ("VirusTotal", "Andrototal") not in per_app
            assert all(0.0 <= value <= 1.0 for value in per_app.values())

    def test_table_renders(self):
        table = run_table1().to_table()
        text = table.render()
        assert "Quixxi" in text and "jaq.alibaba" in text


class TestFig3:
    def test_fig3a_reward_constant_per_block(self):
        result = run_fig3a(blocks=400)
        assert result.block_reward_ether == 5.0
        assert sum(result.blocks_won.values()) == 400

    def test_fig3a_wins_ordered_by_hashpower(self):
        result = run_fig3a(blocks=2000)
        ordered = sorted(result.shares, key=result.shares.get, reverse=True)
        wins = [result.blocks_won[name] for name in ordered]
        # Top provider out-mines bottom provider decisively.
        assert wins[0] > wins[-1]

    def test_fig3b_mean_block_time_near_paper(self):
        result = run_fig3b(blocks=2000)
        assert result.mean == pytest.approx(15.35, rel=0.08)

    def test_fig3b_right_skewed(self):
        result = run_fig3b(blocks=2000)
        assert statistics.median(result.intervals) < result.mean


class TestFig4:
    def test_fig4a_incentives_grow_with_time(self):
        result = run_fig4a(duration=1800.0)
        for provider in result.shares:
            at_10 = result.at_time(provider, 600.0)
            at_30 = result.at_time(provider, 1800.0)
            assert at_30 >= at_10

    def test_fig4a_top_provider_out_earns_bottom(self):
        result = run_fig4a(duration=1800.0)
        assert result.at_time("provider-1", 1800.0) > result.at_time(
            "provider-5", 1800.0
        )

    def test_fig4b_linear_in_vp_slope_is_insurance(self):
        result = run_fig4b(spot_releases=4)
        for insurance, curve in result.curves.items():
            (vp0, p0), (vp1, p1) = curve[0], curve[1]
            slope = (p1 - p0) / (vp1 - vp0)
            assert slope == pytest.approx(insurance, rel=0.01)

    def test_fig4b_curves_are_eq9_punishments(self):
        result = run_fig4b(spot_releases=1)
        for insurance, curve in result.curves.items():
            assert curve == [
                (vp, provider_punishment_ether(PARAMS, vp, float(insurance), 1.0))
                for vp, _ in curve
            ]

    def test_fig4b_rejects_vp_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"VP must be in \[0, 1\]"):
            run_fig4b(vp_grid=(0.5, 1.2), spot_releases=1)

    def test_fig4b_simulation_matches_closed_form(self):
        result = run_fig4b(spot_releases=4)
        insurance, vp, measured = result.spot_check
        assert measured == pytest.approx(vp * insurance + 0.095, rel=0.02)


class TestFig5:
    def test_fig5a_vpb_increases_with_hashpower(self):
        result = run_fig5a()
        by_share = sorted(result.shares, key=result.shares.get)
        vpbs = [result.vpb[name][600.0] for name in by_share]
        assert vpbs == sorted(vpbs)

    def test_fig5a_vpb_increases_with_window(self):
        result = run_fig5a()
        for provider in result.shares:
            per_window = [result.vpb[provider][w] for w in (600.0, 1200.0, 1800.0)]
            assert per_window == sorted(per_window)

    def test_fig5a_paper_reference(self):
        result = run_fig5a()
        assert result.vpb["provider-3"][600.0] == pytest.approx(0.038, abs=0.008)

    def test_fig5b_balance_near_zero_at_vpb(self):
        result = run_fig5b(trials=60)
        assert abs(result.mean_balance(result.vpb)) < 5.0

    def test_fig5b_balances_are_whole_blocks_less_eq9(self):
        # Every trial's balance at every VP is the same whole number of
        # blocks' Eq. 8 income (omega=2 fee records each) less Eq. 9.
        result = run_fig5b(trials=20)
        per_block = from_wei(provider_incentive(PARAMS, 1, 2))
        blocks_per_vp = []
        for vp, balances in result.balances.items():
            punishment = provider_punishment_ether(PARAMS, vp, 1000.0, 1.0)
            blocks = [(balance + punishment) / per_block for balance in balances]
            assert blocks == pytest.approx([round(b) for b in blocks], abs=1e-9)
            blocks_per_vp.append([round(b) for b in blocks])
        assert blocks_per_vp[0] == blocks_per_vp[1] == blocks_per_vp[2]
        assert all(won >= 0 for won in blocks_per_vp[0])

    def test_fig5b_ten_ether_swing(self):
        result = run_fig5b(trials=40)
        vps = sorted(result.balances)
        low, mid, high = (result.mean_balance(vp) for vp in vps)
        assert low - mid == pytest.approx(10.0, abs=0.01)
        assert mid - high == pytest.approx(10.0, abs=0.01)


class TestFig6Errors:
    """Malformed detector ids and missing endpoints fail with clear messages."""

    def _result(self, payouts):
        from repro.experiments.fig6 import Fig6Result

        return Fig6Result(
            incentives={},
            payout_per_vulnerable_release=payouts,
            cost_per_report={},
            vpb=0.038,
            samples=1,
            releases_per_window=11,
        )

    def test_thread_of_rejects_unsuffixed_id(self):
        result = self._result({})
        with pytest.raises(ValueError, match="does not encode a thread"):
            result.thread_of("detector")

    def test_thread_of_rejects_non_numeric_suffix(self):
        result = self._result({})
        with pytest.raises(ValueError, match="detector-fast"):
            result.thread_of("detector-fast")

    def test_thread_of_parses_well_formed_ids(self):
        result = self._result({})
        assert result.thread_of("detector-4") == 4
        assert result.thread_of("my-custom-detector-12") == 12

    def test_capability_ratio_names_missing_endpoints(self):
        result = self._result({"detector-1": 1.0})
        with pytest.raises(KeyError, match="detector-8"):
            result.capability_ratio()

    def test_capability_ratio_lists_measured_detectors(self):
        result = self._result({"detector-3": 2.0})
        with pytest.raises(KeyError, match="detector-3"):
            result.capability_ratio()


class TestFig6:
    @pytest.fixture
    def result(self, default_result):
        return default_result("fig6")

    def test_incentives_grow_with_capability(self, result):
        # Noisily monotone: top-half detectors out-earn bottom half.
        payout = result.payout_per_vulnerable_release
        bottom = sum(payout[f"detector-{i}"] for i in (1, 2, 3, 4))
        top = sum(payout[f"detector-{i}"] for i in (5, 6, 7, 8))
        assert top > bottom

    def test_capability_ratio_in_band(self, result):
        # Paper: ≈7.8×; the default size prints 13.5, so the band is wide.
        assert 2.5 < result.capability_ratio() < 25.0

    def test_delta_band_matches_paper(self, result):
        # Paper: +0.01 VP adds 3-23.5 ether across the fleet.
        deltas = [
            result.delta_per_hundredth(f"detector-{i}") for i in range(1, 9)
        ]
        assert min(deltas) > 0.5
        assert max(deltas) < 40.0

    def test_cost_per_report_near_paper(self, result):
        for detector_id, cost in result.cost_per_report.items():
            if cost:
                assert cost == pytest.approx(0.011, rel=0.05)

    def test_incentive_grid_is_vp_times_releases_times_payout(self, result):
        payout = result.payout_per_vulnerable_release
        assert len(result.incentives) == 3
        for vp, per_detector in result.incentives.items():
            assert per_detector == {
                d: vp * result.releases_per_window * p for d, p in payout.items()
            }

    def test_incentives_scale_linearly_with_vp(self, result):
        vps = sorted(result.incentives)
        for detector_id in result.cost_per_report:
            low = result.incentives[vps[0]][detector_id]
            high = result.incentives[vps[-1]][detector_id]
            assert high >= low


class TestCosts:
    def test_costs_match_paper(self):
        result = run_costs(releases=2)
        assert result.sra_cost_ether == pytest.approx(0.095, rel=0.02)
        assert result.report_cost_ether == pytest.approx(0.011, rel=0.05)
