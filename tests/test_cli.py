"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments import topology
from repro.experiments.faults import (
    FAULT_TIMEOUT,
    CampaignInterrupted,
    UnitFailure,
    UnitTimeout,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "magic"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "ebsn"
        assert args.packet_size == 576
        assert not args.lan


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--scheme", "basic", "--transfer-kb", "10", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out
        assert "goodput" in out

    def test_run_lan(self, capsys):
        code = main(
            ["run", "--lan", "--scheme", "ebsn", "--transfer-kb", "256",
             "--bad-period", "0.8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Mbps" in out


class TestTrace:
    def test_trace_renders(self, capsys):
        code = main(["trace", "--scheme", "basic", "--width", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "timeouts" in out
        assert "|" in out  # the plot body


class TestSweep:
    def test_wan_sweep(self, capsys):
        code = main(
            ["sweep", "--scheme", "basic", "--transfer-kb", "10",
             "--replications", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "size(B)" in out
        assert "1536" in out
        assert "campaign:" in out  # completeness report

    def test_fault_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.timeout is None
        assert args.retries is None
        assert args.resume is None
        assert args.fail_fast is False
        args = build_parser().parse_args(
            ["figure", "7", "--timeout", "30", "--retries", "1",
             "--resume", "camp.journal", "--fail-fast"]
        )
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.resume == "camp.journal"
        assert args.fail_fast is True

    def test_resume_journals_then_skips(self, capsys, tmp_path):
        journal = tmp_path / "camp.journal"
        argv = ["sweep", "--scheme", "basic", "--transfer-kb", "10",
                "--replications", "1", "--no-cache", "--resume", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "9 simulated" in first
        assert journal.is_dir()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulated" in second
        assert "9 from journal" in second

    def test_resume_onto_a_file_exits_two_before_any_unit(
        self, capsys, monkeypatch, tmp_path
    ):
        journal = tmp_path / "camp.journal"
        journal.write_text('{"kind": "header", "format": 1, "code": "x"}\n')

        def must_not_run(cfg, **kwargs):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(topology, "run_scenario", must_not_run)
        code = main(
            ["sweep", "--transfer-kb", "10", "--replications", "1",
             "--no-cache", "--resume", str(journal)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(journal) in captured.err
        assert journal.is_file()

    def test_partial_campaign_reports_and_exits_one(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise ValueError("chaos")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        code = main(
            ["sweep", "--scheme", "basic", "--transfer-kb", "10",
             "--replications", "2", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "PARTIAL" in out

    def test_interrupt_exits_130_with_resume_hint(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise CampaignInterrupted(2, 3, 18, "camp.journal")

        monkeypatch.setattr("repro.cli.run_replicated", interrupted)
        code = main(["sweep", "--replications", "2", "--no-cache"])
        err = capsys.readouterr().err
        assert code == 130
        assert "SIGINT" in err
        assert "--resume camp.journal" in err

    def test_fail_fast_abort_exits_four(self, capsys, monkeypatch):
        failure = UnitFailure(
            index=0, key=None, seed=1, scheme="basic", kind=FAULT_TIMEOUT,
            message="wall-clock budget exceeded", attempts=3,
        )

        def aborted(*args, **kwargs):
            raise UnitTimeout(failure)

        monkeypatch.setattr("repro.cli.run_replicated", aborted)
        code = main(
            ["sweep", "--replications", "2", "--no-cache", "--fail-fast"]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "campaign aborted" in err
        assert "timeout" in err


class TestFigure:
    def test_trace_figure(self, capsys):
        code = main(["figure", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out

    def test_unknown_figure(self, capsys):
        code = main(["figure", "99"])
        assert code == 2


class TestCsdp:
    def test_csdp_table(self, capsys):
        code = main(["csdp", "--connections", "2", "--transfer-kb", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fifo" in out and "csdp" in out


class TestHandoffCommand:
    def test_handoff_table(self, capsys):
        code = main(["handoff", "--transfer-kb", "20", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fast_rtx" in out


class TestCongestionCommand:
    def test_congestion_table(self, capsys):
        code = main(["congestion", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ECN" in out and "ebsn" in out


class TestReportCommand:
    def test_report_assembles_sections(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fig7_wan_basic.txt").write_text("fig7 data\n")
        (out_dir / "zz_custom.txt").write_text("extra\n")
        target = tmp_path / "REPORT.md"
        code = main(
            ["report", "--out-dir", str(out_dir), "--output", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert "## fig7_wan_basic" in text
        assert "## zz_custom" in text
        assert text.index("fig7_wan_basic") < text.index("zz_custom")

    def test_report_missing_dir(self, tmp_path):
        code = main(["report", "--out-dir", str(tmp_path / "nope")])
        assert code == 2
