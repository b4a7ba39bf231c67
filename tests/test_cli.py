"""Tests for the package CLI (``python -m repro``)."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.releases == 6
        assert args.vp == pytest.approx(0.4)
        assert args.insurance == 1000

    def test_overrides(self):
        args = build_parser().parse_args(
            ["--releases", "3", "--vp", "0.9", "--seed", "7"]
        )
        assert args.releases == 3
        assert args.vp == pytest.approx(0.9)
        assert args.seed == 7

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--window", "0"),
            ("--window", "nan"),
            ("--window", "inf"),
            ("--vp", "1.5"),
            ("--vp", "-0.1"),
            ("--insurance", "-5"),
            ("--insurance", "0"),
            ("--releases", "-1"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, flag, value, capsys):
        """Refused at the parser: exit 2, the usage and one error line
        naming the flag — no traceback, and no campaign run."""
        with pytest.raises(SystemExit) as exit_info:
            main([flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: python -m repro")
        assert f"error: argument {flag}: must be" in captured.err
        assert "Traceback" not in captured.err


class TestMain:
    def test_small_campaign_runs(self, capsys):
        exit_code = main(["--releases", "2", "--vp", "1.0", "--seed", "5",
                          "--window", "400"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "campaign: 2 releases" in out
        assert "detector leaderboard" in out
        assert "consumer decisions" in out

    def test_clean_campaign_no_punishments_beyond_gas(self, capsys):
        exit_code = main(["--releases", "2", "--vp", "0.0", "--seed", "6",
                          "--window", "400"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "deploy? yes" in out
        assert "deploy? NO" not in out
