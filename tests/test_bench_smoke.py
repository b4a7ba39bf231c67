"""Tier-1 smoke of the perf-trajectory lane.

``scripts/run_bench.sh`` runs outside the normal test flow, so a probe
broken by a refactor used to surface only when someone refreshed the
baseline.  This smoke runs the suite's ``--quick`` workloads (minus the
process-pool probes, which belong to the bench lane) inside tier-1: the
structural assertions — nonce parity, batch-economics parity, fleet
convergence — all fire, so a wrong-answer regression fails the ordinary
test run.  Throughput *floors* stay in ``benchmarks/`` where timings
are not subject to tier-1's parallel load.
"""

import pytest

from repro.experiments.bench_substrate import run_suite, to_table


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True, repeats=1, parallel_probe=False)


def test_quick_suite_runs_every_probe(suite):
    assert {
        "header_hash_cold",
        "header_hash_cached",
        "nonce_search",
        "telemetry_overhead",
        "economics_batch",
        "ledger_validate",
        "merkle_build_256",
        "ecdsa",
        "gossip_round",
        "mini_experiment",
        "store_replay",
        "fleet_scale",
        "fleet_shard",
        "query_serving",
    } <= set(suite["benchmarks"])


def test_structural_probes_hold(suite):
    """The bit-parity comparisons, not the timing floors."""
    assert suite["benchmarks"]["nonce_search"]["same_nonce_as_naive"]
    assert suite["benchmarks"]["economics_batch"]["identical_to_scalar"]
    assert suite["benchmarks"]["fleet_scale"]["converged"]
    assert suite["benchmarks"]["fleet_shard"]["identical_to_single_process"]
    assert suite["benchmarks"]["fleet_shard"]["points"]
    assert suite["benchmarks"]["query_serving"]["identical_to_scan"]


def test_query_serving_quick_workload_shape(suite):
    # The quick workload still exercises the whole read path: every
    # query in the mix must have succeeded (the probe raises on the
    # first failed response), latencies must be recorded, and the
    # incremental index must never have fallen back to a rebuild.
    entry = suite["benchmarks"]["query_serving"]
    assert entry["queries"] >= 20_000
    assert entry["p50_us"] <= entry["p99_us"]
    assert entry["index_rebuilds"] == 0
    assert entry["queries_per_sec"] > 0


def test_query_warm_start_probe_shape(suite):
    # The timing floor lives in benchmarks/; tier-1 only checks the
    # probe ran, replayed a real delta, and held warm/cold parity.
    entry = suite["benchmarks"]["query_serving"]
    assert entry["warm_start_delta_blocks"] > 0
    assert entry["warm_start_identical_to_cold"]
    assert entry["warm_start_seconds"] > 0
    assert entry["cold_rebuild_seconds"] > 0


def test_ecdsa_probe_shape(suite):
    # Recorded, never gated: the probe itself raises if an honest
    # signature fails, tier-1 checks all three timings were taken.
    entry = suite["benchmarks"]["ecdsa"]
    assert entry["iterations"] >= 10
    assert min(entry["keygen_us"], entry["sign_us"], entry["verify_us"]) > 0
    assert "ecdsa secp256k1" in to_table(suite).render()


def test_economics_batch_is_faster_than_scalar(suite):
    # The bench lane gates the 5x floor on an unloaded host; tier-1
    # only insists vectorization doesn't *lose* to the scalar loop.
    assert suite["benchmarks"]["economics_batch"]["speedup"] > 1.0


def test_quick_suite_renders(suite):
    rendered = to_table(suite).render()
    assert "economics batch" in rendered
    assert "nonce search" in rendered
