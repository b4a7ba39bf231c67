"""Tier-1 smoke of the substrate probe registry.

``scripts/run_bench.sh`` runs outside the normal test flow, so a probe
broken by a refactor used to surface only when someone refreshed the
baseline.  This smoke runs every registered probe once at ``--quick``
size inside tier-1: each parity assertion fires (the probe raises
before it times anything), so a wrong-answer regression fails the
ordinary test run.  The *bounds* are evaluated only in ``benchmarks/``,
where timings are not subject to tier-1's parallel load.
"""

import pytest

from benchmarks.substrate import PROBES, gates, run_suite, to_table


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True, repeats=1)


@pytest.mark.parametrize("probe", PROBES, ids=lambda probe: probe.name)
def test_probe_ran_and_parity_fired(suite, probe):
    entry = suite["benchmarks"][probe.name]
    assert all(entry[flag] is True for flag in probe.parity)
    # Every declared bound found its value (armed or not).
    assert [bound for _, bound, _, _ in gates(suite, [probe])] == list(probe.bounds)


def test_sharded_scale_point_ran(suite):
    assert suite["benchmarks"]["fleet_shard"]["points"]


def test_query_warm_start_probe_shape(suite):
    # Tier-1 only checks the probe replayed a real delta and timed both
    # builds; the ratio is the bench lane's business.
    entry = suite["benchmarks"]["query_serving"]
    assert entry["warm_start_delta_blocks"] > 0
    assert entry["warm_start_seconds"] > 0
    assert entry["cold_rebuild_seconds"] > 0


def test_quick_suite_renders(suite):
    rendered = to_table(suite).render()
    assert all(probe.name in rendered for probe in PROBES)
