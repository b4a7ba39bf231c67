"""Parallel parity: every experiment is bit-identical at any ``jobs``.

Every trial-shaped experiment now runs through
:func:`repro.experiments.runner.run_trials`; this suite pins the
determinism contract for each of them — ``jobs=2`` reproduces the
serial run byte for byte.  Parameters are shrunk to keep the suite
fast; parity is parameter-independent.
"""

import pytest

from repro.experiments.capability_curve import run_capability_curve
from repro.experiments.costs import run_costs
from repro.experiments.fig3 import run_fig3a, run_fig3b
from repro.experiments.fig4 import run_fig4a, run_fig4b
from repro.experiments.fig6 import run_fig6
from repro.experiments.forks import run_fork_rate
from repro.experiments.latency import run_payout_latency
from repro.experiments.table1 import run_table1


class TestJobsParity:
    def test_fig3a(self):
        serial = run_fig3a(blocks=160, trials=4)
        parallel = run_fig3a(blocks=160, trials=4, jobs=2)
        assert parallel == serial

    def test_fig3b(self):
        serial = run_fig3b(blocks=160, trials=4)
        parallel = run_fig3b(blocks=160, trials=4, jobs=2)
        assert parallel.intervals == serial.intervals

    def test_fig4a(self):
        serial = run_fig4a(duration=300.0)
        parallel = run_fig4a(duration=300.0, jobs=2)
        assert parallel.series == serial.series
        assert parallel.shares == serial.shares

    def test_fig4b(self):
        serial = run_fig4b(spot_releases=2)
        parallel = run_fig4b(spot_releases=2, jobs=2)
        assert parallel.curves == serial.curves
        assert parallel.spot_check == serial.spot_check

    def test_fig6(self):
        serial = run_fig6(samples=3)
        parallel = run_fig6(samples=3, jobs=2)
        assert parallel.incentives == serial.incentives
        assert (
            parallel.payout_per_vulnerable_release
            == serial.payout_per_vulnerable_release
        )
        assert parallel.cost_per_report == serial.cost_per_report

    def test_forks(self):
        serial = run_fork_rate(ratios=(0.005, 0.5), blocks=40)
        parallel = run_fork_rate(ratios=(0.005, 0.5), blocks=40, jobs=2)
        assert parallel.points == serial.points

    def test_latency(self):
        serial = run_payout_latency(releases=2)
        parallel = run_payout_latency(releases=2, jobs=2)
        assert parallel.announce_to_pay == serial.announce_to_pay
        assert parallel.confirm_to_pay == serial.confirm_to_pay

    def test_costs(self):
        serial = run_costs(releases=2)
        parallel = run_costs(releases=2, jobs=2)
        assert parallel == serial

    def test_table1(self):
        serial = run_table1()
        parallel = run_table1(jobs=2)
        assert parallel.counts == serial.counts
        assert parallel.overlaps == serial.overlaps

    def test_capability_curve(self):
        serial = run_capability_curve(scans=200)
        parallel = run_capability_curve(scans=200, jobs=2)
        assert parallel.points == serial.points


class TestSweepPrefix:
    """A shorter sweep reproduces the longer sweep's leading trials.

    Trial seeds are prefix-stable, so cutting a sweep short changes
    which trials run, never what any of them returns.
    """

    def test_fork_sweep_cut_after_one_ratio(self):
        full = run_fork_rate(ratios=(0.005, 0.2, 0.5), blocks=40)
        cut = run_fork_rate(ratios=(0.005,), blocks=40)
        assert cut.points == {0.005: full.points[0.005]}

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_fig3b_half_sweep_is_the_full_sweeps_first_half(self, jobs):
        # 160 blocks over 4 trials and 80 over 2 both chunk 40 per trial.
        full = run_fig3b(blocks=160, trials=4)
        half = run_fig3b(blocks=80, trials=2, jobs=jobs)
        assert half.intervals == full.intervals[:80]
