"""Tests for the experiment runner CLI and registry."""

from __future__ import annotations

import json
import sys

import pytest

from repro.experiments.runner import EXPERIMENTS, main, run_experiments


class TestRegistry:
    def test_all_paper_results_registered(self):
        expected = {
            "table-2.1", "fig-2.2", "fig-2.3",
            "fig-4.1", "fig-4.2", "fig-4.3",
            "fig-5.1", "fig-5.2", "table-5.1",
            "fig-5.3", "fig-5.4", "table-5.2",
        }
        assert expected <= set(EXPERIMENTS)

    def test_ablations_registered(self):
        expected = {
            "ablation-hybrid", "ablation-table-geometry",
            "ablation-fsm-bits", "ablation-stride-threshold",
            "ablation-predictors", "extension-critical-path",
            "characterization",
        }
        assert expected <= set(EXPERIMENTS)

    def test_ids_match_modules(self):
        for identifier, run in EXPERIMENTS.items():
            assert callable(run), identifier


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table-5.2" in out

    def test_unknown_experiment_rejected(self, tiny_context):
        with pytest.raises(SystemExit):
            run_experiments(["no-such-thing"], tiny_context)

    def test_run_single_cheap_experiment(self, tiny_context, capsys):
        tables = run_experiments(["fig-4.2"], tiny_context, progress=sys.stderr)
        assert len(tables) == 1
        captured = capsys.readouterr()
        assert "fig-4.2" in captured.out and "finished in" not in captured.out
        assert "[fig-4.2 finished in " in captured.err

class TestDegradedRun:
    """A run with a failing job exits 1 with a report, not a traceback."""

    def test_cli_exits_nonzero_with_report(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main as repro_main
        from repro.experiments import runner as experiments_runner

        real_build = experiments_runner.build_experiment_graph

        def build_with_missing_workload(names, context):
            # An unregistered workload: its compile job raises.
            return real_build(
                names, context, workload_names=("129.compress", "000.missing")
            )

        monkeypatch.setattr(
            experiments_runner, "build_experiment_graph", build_with_missing_workload
        )
        report_path = tmp_path / "report.json"
        code = repro_main(
            [
                "experiments",
                "fig-4.2",
                "--scale",
                "0.02",
                "--training-runs",
                "2",
                "--no-cache",
                "--quiet",
                "--report-json",
                str(report_path),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        # The structured report is the primary output of a degraded run.
        assert "run report:" in captured.err
        assert "compile:000.missing" in captured.err
        assert "run failed: 1 job(s) failed" in captured.err
        assert "Traceback" not in captured.err and "Traceback" not in captured.out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-run/2"
        assert payload["counts"]["failed"] == 1
        failed = [entry for entry in payload["jobs"] if entry["status"] == "failed"]
        assert [entry["job_id"] for entry in failed] == ["compile:000.missing"]
        skipped = {entry["job_id"] for entry in payload["jobs"]
                   if entry["status"] == "skipped"}
        assert "experiment:fig-4.2" in skipped
        assert all(job_id.split(":")[1] in ("000.missing", "fig-4.2")
                   for job_id in skipped)


class TestOptionRanges:
    """Out-of-range options are usage errors before any job runs."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--training-runs", "0", "must be an integer >= 1, got 0"),
            ("--training-runs", "-2", "must be an integer >= 1, got -2"),
            ("--scale", "0", "must be a number > 0, got 0"),
            ("--scale", "-1", "must be a number > 0, got -1"),
        ],
    )
    def test_rejected_by_parser(self, flag, value, message, capsys, monkeypatch):
        from repro.cli import main as repro_main
        from repro.experiments import runner as experiments_runner

        def no_run(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(experiments_runner, "run_experiments", no_run)
        with pytest.raises(SystemExit) as info:
            repro_main(["experiments", "fig-2.2", flag, value, "--no-cache"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err


class TestReport:
    def make_results(self, tmp_path):
        from repro.experiments import ExperimentTable

        table = ExperimentTable(
            "fig-9.9", "Synthetic result", headers=["benchmark", "value"],
            notes=["provenance"],
        )
        table.add_row("w1", 1.5)
        (tmp_path / "fig-9_9.tsv").write_text(table.to_tsv(), encoding="utf-8")
        return tmp_path

    def test_load_saved_tables(self, tmp_path):
        from repro.experiments.report import load_saved_tables

        results = self.make_results(tmp_path)
        tables = load_saved_tables(results)
        assert "fig-9.9" in tables
        assert tables["fig-9.9"].rows == [["w1", 1.5]]

    def test_build_markdown_report(self, tmp_path):
        from repro.experiments.report import build_markdown_report

        results = self.make_results(tmp_path)
        report = build_markdown_report(results)
        assert "## fig-9.9 — Synthetic result" in report
        assert "| w1 | 1.5 |" in report
        assert "*provenance*" in report

    def test_empty_dir_rejected(self, tmp_path):
        from repro.experiments.report import build_markdown_report

        with pytest.raises(FileNotFoundError):
            build_markdown_report(tmp_path)

    def test_report_cli(self, tmp_path, capsys):
        results = self.make_results(tmp_path)
        assert main(["report", "--output-dir", str(results)]) == 0
        assert "Synthetic result" in capsys.readouterr().out

    def test_report_cli_requires_output_dir(self):
        with pytest.raises(SystemExit):
            main(["report"])
