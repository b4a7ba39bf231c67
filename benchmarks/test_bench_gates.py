"""The substrate gate lane: one test per row of the probe registry.

Marked ``bench`` and living outside tier-1 (``testpaths`` only collects
``tests/``): run via ``pytest benchmarks -q -m bench`` or, with the
JSON baseline written, ``scripts/run_bench.sh``.  Both evaluate
``benchmarks.substrate.PROBES`` through the same ``red_gates``, so they
cannot gate different sets; the bounds live in those rows only.
"""

import json

import pytest

from benchmarks.substrate import PROBES, red_gates, run_suite, to_table

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True, repeats=3)


@pytest.mark.parametrize("probe", PROBES, ids=lambda probe: probe.name)
def test_gate(suite, probe):
    """Parity fired against the row's oracle and every armed bound holds."""
    entry = suite["benchmarks"][probe.name]
    assert all(entry[flag] is True for flag in probe.parity)
    assert not red_gates(suite, [probe])


def test_suite_is_json_serializable_and_renders(suite, tmp_path):
    path = tmp_path / "BENCH_substrate.json"
    path.write_text(json.dumps(suite, indent=2, sort_keys=True))
    reloaded = json.loads(path.read_text())
    assert reloaded["suite"] == "substrate"
    assert set(reloaded["benchmarks"]) == {probe.name for probe in PROBES}
    assert red_gates(reloaded) == red_gates(suite)
    rendered = to_table(suite).render()
    assert all(probe.name in rendered for probe in PROBES)
