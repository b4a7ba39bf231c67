"""Tier-1 smoke of the fleet-point recorder (``benchmarks/substrate.py``).

``scripts/run_bench.sh`` runs outside the normal test flow, so this
runs the recorder once at ``--quick`` size: the one-shard anchor's
parity assertion fires (the recorder raises before it times anything)
and the one 1k-node point is written as the full run writes its two.
"""

import json

from benchmarks.substrate import _POINT_KEYS, main


def test_quick_run_writes_the_anchor_and_one_point(tmp_path, capsys):
    output = tmp_path / "BENCH_substrate.json"
    assert main(["--quick", "--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert payload["suite"] == "substrate" and payload["quick"] is True
    assert list(payload["benchmarks"]) == ["fleet_shard"]
    entry = payload["benchmarks"]["fleet_shard"]
    assert entry["identical_to_single_process"] is True
    assert list(entry["points"]) == ["1000"]
    point = entry["points"]["1000"]
    assert set(point) == set(_POINT_KEYS)
    assert point["shards"] == 2 and point["full_nodes"] + point["light_nodes"] == 1000
    assert point["messages_sent"] > 0 and point["seconds"] > 0
    assert "1000 nodes, 2 shards" in capsys.readouterr().out
