"""Tests for the repro-bench command-line interface."""

import pytest

from repro.bench.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.exp == "all"
        assert args.seed == 7

    def test_rejects_unknown_experiment(self):
        # "shard" and "witness" were experiments until their subjects
        # (the executors, the cache warmer) left the package.
        for name in ("fig99", "shard", "witness"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["--exp", name])

    def test_accepts_ablations(self):
        args = build_parser().parse_args(["--exp", "abl-fanout"])
        assert args.exp == "abl-fanout"


class TestMain:
    def test_runs_single_experiment(self, capsys):
        code = main(["--exp", "fig6", "--size", "40"])
        assert code == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_size_override_for_sweeps(self, capsys):
        code = main(["--exp", "tab2", "--size", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=60" in out
        assert "n=30" in out

    def test_queries_override(self, capsys):
        code = main(
            ["--exp", "fig13", "--size", "40", "--queries", "2"]
        )
        assert code == 0
        assert "Fig. 13" in capsys.readouterr().out


class TestProfileAndTraceFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.profile is False
        assert args.profile_interval == 25.0
        assert args.profile_out is None
        assert args.trace_out is None

    def test_profile_prints_span_attributed_report(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(
            [
                "--exp",
                "fig6",
                "--size",
                "40",
                "--profile",
                "--profile-interval",
                "1",
                "--profile-out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "profile:" in printed
        import json

        report = json.loads(out.read_text())
        assert report["interval_s"] == 0.001
        assert report["total_samples"] >= 0
        assert isinstance(report["spans"], list)

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["--exp", "fig6", "--size", "40", "--trace-out", str(path)]
        )
        assert code == 0
        assert "spans to" in capsys.readouterr().out
        assert path.exists()
