"""Tests for the experiment CLI: the ``NAME`` arguments, the flags
(``--jobs``/``--telemetry``/``--report``)
and the registry rows it loops over."""

import inspect

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.__main__ import build_parser, main
from repro.telemetry import Telemetry

UNIFORM = ("seed", "jobs", "telemetry")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.jobs is None
        assert args.report is None
        assert args.telemetry is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "--jobs", "4",
                "--telemetry", "run.jsonl",
                "--report", "old.jsonl",
            ]
        )
        assert args.jobs == 4
        assert args.telemetry == "run.jsonl"
        assert args.report == "old.jsonl"

    def test_jobs_zero_is_accepted(self):
        # 0 is not "below zero": it asks for one worker per core.
        assert build_parser().parse_args(["--jobs", "0"]).jobs == 0

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_jobs_below_zero_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--jobs", value])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_names_are_positional(self):
        args = build_parser().parse_args(["fig6", "table1", "--jobs", "2"])
        assert args.names == ["fig6", "table1"]
        assert build_parser().parse_args([]).names == []


class TestRegistryRows:
    def test_suite_order_is_the_papers_then_the_analyses(self):
        assert list(EXPERIMENTS) == [
            "table1", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b",
            "fig6", "costs", "two_phase", "escrow", "report_fee",
            "capability_curve", "fleet_composition", "latency", "forks",
            "fleet_scale", "chaos", "participation",
        ]
        assert all(row.name == name for name, row in EXPERIMENTS.items())

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_runner_takes_the_three_uniform_keywords(self, name):
        # Same three on every row, keyword-only, after the row's own
        # parameters — which is what lets the CLI pass them blindly.
        parameters = inspect.signature(EXPERIMENTS[name].run).parameters
        assert tuple(parameters)[-3:] == UNIFORM
        for keyword in UNIFORM:
            assert parameters[keyword].kind is inspect.Parameter.KEYWORD_ONLY
        assert "sweep" not in parameters

    def test_signature_shows_own_parameters_and_the_row_seed(self):
        parameters = inspect.signature(EXPERIMENTS["fig6"].run).parameters
        assert tuple(parameters) == (
            "provider", "samples", "releases_per_window", "mean_vulnerabilities",
        ) + UNIFORM
        assert parameters["samples"].default == 30
        assert parameters["seed"].default == 6
        assert parameters["jobs"].default is None
        # A closed-form row has no master seed and ignores all three.
        fee = EXPERIMENTS["report_fee"].run
        assert inspect.signature(fee).parameters["seed"].default is None
        assert fee(jobs=2, telemetry=Telemetry()) == fee()

    def test_runner_keeps_the_bodys_name_and_docstring(self):
        run = EXPERIMENTS["forks"].run
        assert run.__name__ == "run_fork_rate"
        assert run.__doc__.startswith("Measure orphan rates")

    def test_seed_keyword_reaches_the_body(self):
        run = EXPERIMENTS["escrow"].run
        assert run(seed=1) == run()
        assert run(seed=2).payout_rates != run().payout_rates


class TestNames:
    def test_one_name_prints_one_table(self, capsys):
        assert main(["fig3b"]) == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("--- ")]
        assert len(headers) == 1 and headers[0].startswith("--- Fig. 3(b) ")
        assert "mean block time" in out

    def test_names_run_in_the_order_given(self, capsys):
        assert main(["report_fee", "fig5a"]) == 0
        out = capsys.readouterr().out
        assert out.index("--- Ablation: report fee") < out.index("--- Fig. 5(a)")

    def test_unknown_name_exits_2_and_lists_the_rows(self, capsys):
        assert main(["fig3b", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert "unknown experiment nope" in captured.err
        assert all(name in captured.err for name in EXPERIMENTS)


class TestReport:
    def test_report_summarizes_and_exits(self, tmp_path, capsys):
        telemetry = Telemetry()
        telemetry.counter("gossip.messages", status="sent").inc(3)
        telemetry.event("block.mined", miner="provider-1")
        path = str(tmp_path / "run.jsonl")
        telemetry.export_jsonl(path, meta={"seed": 0})

        exit_code = main(["--report", path])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "telemetry run report" in out
        assert "gossip.messages{status=sent} = 3" in out
        assert "block.mined" in out
        # --report must not run the experiment suite.
        assert "Table I" not in out

    def _fails_cleanly(self, capsys, path):
        exit_code = main(["--report", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        # One line naming the file, not a traceback.
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err
        return captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        err = self._fails_cleanly(capsys, tmp_path / "missing.jsonl")
        assert "No such file" in err

    @pytest.mark.parametrize(
        "line", ["nope", "[1]", '"s"', '{"type": "trace"}', '{"type": "row"}']
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, line):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "meta"}\n' + line + "\n")
        assert "line 2" in self._fails_cleanly(capsys, path)
