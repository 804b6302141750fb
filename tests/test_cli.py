"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro import __main__ as cli
from repro.__main__ import main


class TestParser:
    def test_one_parser_serves_every_call_and_keeps_no_values(
            self, monkeypatch):
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(parser, *args, **kwargs):
            namespace = parse_args(parser, *args, **kwargs)
            calls.append((parser, namespace))
            return namespace

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        monkeypatch.setattr(cli, "_cmd_scenario", lambda args: 0)
        assert main(["scenario", "kv-store", "--set", "pools.a=1",
                     "--set", "pools.b=2"]) == 0
        assert main(["scenario", "kv-store"]) == 0
        (first_parser, first), (second_parser, second) = calls
        assert first_parser is second_parser
        assert first.set == ["pools.a=1", "pools.b=2"]
        assert second.set is None


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "apache-1" in out and "lkrhash" in out


class TestRun:
    def test_run_reports_races(self, capsys):
        assert main(["run", "dryad", "--scale", "0.05", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "static data race(s)" in out
        assert "overhead" in out

    def test_run_clean_workload(self, capsys):
        assert main(["run", "lkrhash", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "No data races detected" in out

    def test_full_sampler(self, capsys):
        assert main(["run", "dryad", "--scale", "0.05",
                     "--sampler", "Full"]) == 0
        out = capsys.readouterr().out
        assert "(100.0%)" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError):
            main(["run", "nope"])


class TestCompare:
    def test_compare_all_samplers(self, capsys):
        assert main(["compare", "dryad", "--scale", "0.05",
                     "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        for sampler in ("TL-Ad", "TL-Fx", "G-Ad", "UCP"):
            assert sampler in out
        assert "detection rate" in out


class TestLogOut:
    def test_log_round_trips_through_disk(self, tmp_path, capsys):
        from repro.eventlog import load_log

        path = tmp_path / "run.ltrc"
        assert main(["run", "dryad", "--scale", "0.05",
                     "--log-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "log written" in out
        log = load_log(path)
        assert len(log) > 0

    def test_symbolized_report(self, capsys):
        assert main(["run", "dryad", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "(Write)" in out  # pcs are symbolized to function+offset


class TestSuppressions:
    def test_suppression_file_filters_report(self, tmp_path, capsys):
        supp = tmp_path / "benign.supp"
        supp.write_text("bump_channel_stats <-> bump_channel_stats\n"
                        "consumer_lag_flush <-> consumer_lag_flush\n")
        assert main(["run", "dryad", "--scale", "0.05",
                     "--suppressions", str(supp)]) == 0
        out = capsys.readouterr().out
        assert "5 known-benign race(s) suppressed" in out
        assert "bump_channel_stats" not in out.split("suppressed")[1]


class TestAnalyze:
    def test_offline_analysis_of_saved_log(self, tmp_path, capsys):
        path = tmp_path / "run.ltrc"
        assert main(["run", "dryad", "--scale", "0.05",
                     "--log-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "static data race(s)" in out
        assert "sync events" in out

    def test_analyze_matches_inline_run(self, tmp_path, capsys):
        from repro import LiteRace, workloads

        program = workloads.build("dryad", seed=1, scale=0.05)
        inline = LiteRace(sampler="TL-Ad", seed=1).run(program)
        path = tmp_path / "x.ltrc"
        from repro.eventlog.store import save_log

        save_log(inline.log, path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{inline.report.num_static} static data race(s)" in out
