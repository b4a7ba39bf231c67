"""The paper's shape criteria: one check per row of the experiment registry.

Absolute numbers are not expected to match the authors' geth testbed,
but each result's *shape* (who wins, by what factor, where crossovers
fall) is asserted here, keyed by the row's name in
``repro.experiments.EXPERIMENTS``.  A row without an entry — or an entry
without a row — is a collection error, so a new experiment cannot land
ungated.  The one row another lane already gates (``chaos``) names that
lane instead of a check.  Marked ``bench`` (``pytest benchmarks -q -m
bench``); timings are not recorded here — ``bench/`` is the benchmark
of record.
"""

import statistics

import pytest

from repro.experiments import EXPERIMENTS

pytestmark = pytest.mark.bench

#: registry name -> (runner kwargs, check(result)), or the lane that
#: gates the row.
SHAPES = {
    "chaos": "the chaos lane (pytest -m chaos, scripts/run_chaos.sh)",
}


def shape(name, **kwargs):
    """Register ``check(result)`` for the row ``name`` run with ``kwargs``."""

    def register(check):
        SHAPES[name] = (kwargs, check)
        return check

    return register


@shape("table1")
def _table1(result):
    # Shape criteria: the signature services report zero, jaq.alibaba
    # dominates, and pairwise overlap is strictly partial.
    for service in ("VirusTotal", "Andrototal"):
        assert all(
            counts == (0, 0, 0) for counts in result.counts[service].values()
        )
    totals = {
        service: sum(sum(counts) for counts in per_app.values())
        for service, per_app in result.counts.items()
    }
    assert max(totals, key=totals.get) == "jaq.alibaba"
    assert 0.0 < result.max_overlap() < 1.0


@shape("fig3a", blocks=2000)
def _fig3a(result):
    # Shape: rewards are ~5 ether per block for everyone; win counts
    # track hashpower shares.
    assert result.block_reward_ether == 5.0
    total_share = sum(result.shares.values())
    for name, share in result.shares.items():
        win_fraction = result.blocks_won[name] / result.blocks_total
        assert win_fraction == pytest.approx(share / total_share, abs=0.05)


@shape("fig3b", blocks=2000)
def _fig3b(result):
    # Shape: mean ≈ 15.35 s (paper), right-skewed distribution.
    assert result.mean == pytest.approx(15.35, rel=0.1)
    assert statistics.median(result.intervals) < result.mean


@shape("fig4a", duration=1800.0)
def _fig4a(result):
    # Shape: incentives grow with time for every provider; the top-HP
    # provider out-earns the bottom one over the full window.
    for provider in result.shares:
        assert result.at_time(provider, 1800.0) >= result.at_time(provider, 600.0)
    assert result.at_time("provider-1", 1800.0) > result.at_time("provider-5", 1800.0)


@shape("fig4b")
def _fig4b(result):
    # Shape: punishment linear in VP with slope = insurance; the
    # end-to-end simulated spot check matches the closed form.
    for insurance, curve in result.curves.items():
        (vp0, p0), (vp1, p1) = curve[0], curve[-1]
        slope = (p1 - p0) / (vp1 - vp0)
        assert slope == pytest.approx(insurance, rel=0.01)
    insurance, vp, measured = result.spot_check
    assert measured == pytest.approx(vp * insurance + 0.095, rel=0.02)


@shape("fig5a")
def _fig5a(result):
    # Shape: VPB grows with hashpower and with the window; the paper's
    # reference point (14.90% HP, 10 min, I=1000) lands near 0.038.
    ordered = sorted(result.shares, key=result.shares.get)
    vpbs = [result.vpb[name][600.0] for name in ordered]
    assert vpbs == sorted(vpbs)
    assert result.vpb["provider-3"][600.0] == pytest.approx(0.038, abs=0.008)


@shape("fig5b", trials=80)
def _fig5b(result):
    # Shape: ~0 balance at VPB; exactly ±10 ether per ∓0.01 VP.
    assert abs(result.mean_balance(result.vpb)) < 5.0
    vps = sorted(result.balances)
    low, mid, high = (result.mean_balance(vp) for vp in vps)
    assert low - mid == pytest.approx(10.0, abs=0.01)
    assert mid - high == pytest.approx(10.0, abs=0.01)


@shape("fig6", samples=20)
def _fig6(result):
    # Runs the full platform — real scans, two-phase races, PoW mining,
    # contract payouts.
    payout = result.payout_per_vulnerable_release

    # Shape (a): incentives track capability — top half out-earns
    # bottom half, and the 8-thread/1-thread ratio is near the paper's
    # ≈7.8 (wide band: the denominator is a small count).
    bottom = sum(payout[f"detector-{i}"] for i in (1, 2, 3, 4))
    top = sum(payout[f"detector-{i}"] for i in (5, 6, 7, 8))
    assert top > bottom
    assert 2.5 < result.capability_ratio() < 25.0

    # Shape (a): +0.01 VP adds ether within the paper's 3-23.5 band
    # (loose envelope for sampling noise).
    deltas = [result.delta_per_hundredth(f"detector-{i}") for i in range(1, 9)]
    assert min(deltas) > 0.5
    assert max(deltas) < 40.0

    # Shape (b): cost per detection report ≈ 0.011 ether, negligible
    # against incentives.
    for detector_id, cost in result.cost_per_report.items():
        if cost:
            assert cost == pytest.approx(0.011, rel=0.05)


@shape("costs", releases=3)
def _costs(result):
    # Paper: SRA deployment ≈ 0.095 ether; detection report ≈ 0.011.
    assert result.sra_cost_ether == pytest.approx(0.095, rel=0.02)
    assert result.report_cost_ether == pytest.approx(0.011, rel=0.05)


@shape("two_phase")
def _two_phase(result):
    # With the commitment the thief never wins; without it, the
    # fee-outbidding copy wins essentially always.
    assert result.rate_with == 0.0
    assert result.rate_without > 0.9


@shape("escrow")
def _escrow(result):
    for fraction, (with_escrow, without) in result.payout_rates.items():
        assert with_escrow == 1.0
        assert without == pytest.approx(1.0 - fraction, abs=0.08)


@shape("report_fee")
def _report_fee(result):
    fees = [fee for fee, _ in result.points]
    junk = [count for _, count in result.points]
    # Spam exposure grows monotonically as the fee drops, diverging at 0.
    assert junk == sorted(junk)
    assert junk[-1] == float("inf")
    assert fees[0] == 0.011  # the paper's operating point


@shape("capability_curve")
def _capability_curve(result):
    theory = [result.points[m][0] for m in sorted(result.points)]
    assert theory == sorted(theory)  # DC_T monotone in m
    assert theory[-1] > 0.99  # approaches 1 (§VI-B)
    for m, (closed_form, simulated) in result.points.items():
        assert simulated == pytest.approx(closed_form, abs=0.04)


@shape("fleet_composition")
def _fleet_composition(result):
    assert max(result.mean_coverage, key=result.mean_coverage.get) == "mixed"
    assert result.mean_coverage["mixed"] > 0.99


@shape("latency")
def _latency(result):
    assert result.announce_to_pay, "campaign paid no bounties"
    # The mean sits above the 2-confirmation floor but within a few
    # block times of it — payouts are automatic, not operator-driven.
    mean = sum(result.announce_to_pay) / len(result.announce_to_pay)
    assert result.theoretical_floor * 0.8 < mean < result.theoretical_floor * 3.0
    # The R†-confirm → pay leg carries one confirmation wait.
    confirm_mean = sum(result.confirm_to_pay) / len(result.confirm_to_pay)
    assert confirm_mean > result.confirmation_depth * result.mean_block_time * 0.5


@shape("forks", blocks=200)
def _forks(result):
    rates = [result.orphan_rate(ratio) for ratio in sorted(result.points)]
    # Negligible at the paper's operating point, rising with delay.
    assert rates[0] < 0.03
    assert rates[-1] > rates[0]


@shape("fleet_scale")
def _fleet_scale(result):
    # Inventory announce + pull reaches the same converged state as
    # complete-mesh flooding, with at least 5x fewer messages at 200 nodes.
    assert result.all_converged()
    assert result.flood_to_inv_message_ratio(200) >= 5.0


@shape("participation")
def _participation(result):
    # Incentives recruit a crowd at the paper's μ = 250 ETH; the crowd's
    # coverage is near-total; everyone still breaks even (the entry
    # condition); bigger bounties sustain strictly more participation.
    size, coverage, _ = result.points[250]
    assert size >= 8
    assert coverage > 0.99
    assert all(balance >= 0 for _, _, balance in result.points.values())
    assert result.points[500][0] > result.points[50][0]


if set(SHAPES) != set(EXPERIMENTS):
    raise LookupError(
        "shape checks and registry rows differ: "
        f"{sorted(set(SHAPES) ^ set(EXPERIMENTS))}"
    )


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_shape(name):
    entry = SHAPES[name]
    if isinstance(entry, str):
        pytest.skip(f"gated by {entry}")
    kwargs, check = entry
    result = EXPERIMENTS[name].run(**kwargs)
    result.to_table().print()
    check(result)

