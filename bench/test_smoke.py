"""Smoke test: ``PYTHONPATH=src python -m pytest bench -q`` (quick sizes).

Not part of tier-1 (``testpaths`` is ``tests``): it guards the
benchmark itself — every workload and metric named in BENCHMARK.json is
produced, finite and well-named, every correctness check passes, and a
broken expectation makes the command fail instead of printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, spec
from bench.__main__ import RUN_SECONDS, main
from bench.workloads import WORKLOADS
from bench.workloads.settle_replay import SettleReplay

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _measure(capsys, workload: str, trace: int):
    code = main(
        [
            "measure", "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--quick", "--repetitions", "2",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def test_contract_file_matches_the_tables():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in CONTRACT["workloads"]] == list(spec.ALL) == list(WORKLOADS)
    assert [w["why"] for w in CONTRACT["workloads"]] == [
        spec.WORKLOADS[name]["why"] for name in spec.ALL
    ]
    assert CONTRACT["end_to_end"] == [
        {key: spec.end_to_end(name)[key] for key in ("name", "unit", "better", "bound")}
        for name in spec.CONTRACT_END_TO_END
    ]
    assert CONTRACT["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in spec.PER_LAYER
    ]
    assert len(spec.END_TO_END) == 7 and len(spec.PER_LAYER) <= 128
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names + list(spec.ALL))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


@pytest.mark.parametrize("workload", spec.ALL)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_produced(capsys, workload, trace):
    code, lines = _measure(capsys, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        produced = result["metrics"][metric["name"]]
        assert produced["unit"] == metric["unit"]
        assert math.isfinite(produced["value"])
        if not trace:
            assert produced["value"] > 0


def test_workload_specific_metrics_reach_the_detail_record(tmp_path, capsys):
    for workload in ("settle_replay", "query_mix"):
        detail = tmp_path / f"{workload}.json"
        assert main(
            [
                "measure", "--workload", workload, "--seed", "7", "--seconds", "0",
                "--quick", "--repetitions", "2", "--detail", str(detail),
            ]
        ) == 0
        capsys.readouterr()
        produced = json.loads(detail.read_text())["end_to_end"]
        for row in spec.END_TO_END:
            assert (row["name"] in produced) == (workload in row["workloads"])
            if row["name"] in produced:
                assert math.isfinite(produced[row["name"]]["value"])


def test_a_tampered_expectation_fails_the_command(monkeypatch, capsys):
    honest = SettleReplay.generate

    def tampered(self, seed, sizes, lap):
        inputs = honest(self, seed, sizes, lap)
        inputs.expected[0]["detector-1"][0] += 1  # one wei too many
        return inputs

    monkeypatch.setattr(SettleReplay, "generate", tampered)
    code, lines = _measure(capsys, "settle_replay", 0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_compare_separates_regressed_unresolved_and_ok():
    def side(*throughputs, host="this"):
        return [
            {
                "quick": False, "host": {"cpu": host},
                "workloads": {"lifecycle": {"end_to_end": {"throughput": {"value": value}}}},
            }
            for value in throughputs
        ]

    verdicts = lambda a, b: [row["verdict"] for row in compare.compare(a, b)]  # noqa: E731
    assert verdicts(side(1.0, 0.99, 1.01), side(0.97, 0.98, 0.96)) == ["ok"]
    assert verdicts(side(1.0, 0.99, 1.01), side(0.85, 0.84, 0.86)) == ["regressed"]
    # Runs of one side further apart than the bound: inside it proves nothing ...
    assert verdicts(side(1.0, 0.80, 1.2), side(0.97, 0.98, 0.96)) == ["unresolved"]
    # ... unless every run of B reads better than every run of A.
    assert verdicts(side(1.0, 0.80, 1.2), side(1.3, 1.4, 1.5)) == ["ok"]
    assert verdicts(side(1.0), side(0.97)) == ["unresolved"]  # no spread from one run
    with pytest.raises(compare.Incomparable):
        compare.compare(side(1.0, 1.0), side(1.0, 1.0, host="another"))


def test_it_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "lifecycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
