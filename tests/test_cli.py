"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "A4" in out
        assert "distill" in out
        assert "split-vote" in out


class TestExperiment:
    def test_runs_smoke_experiment(self, capsys):
        code = main(["experiment", "E1", "--scale", "smoke", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E1" in out
        assert "PASS" in out

    def test_writes_out_file(self, tmp_path, capsys):
        path = tmp_path / "e1.txt"
        main([
            "experiment", "E1", "--scale", "smoke", "--out", str(path)
        ])
        capsys.readouterr()
        assert "E1" in path.read_text()

    def test_unknown_experiment_errors(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_quick_cell(self, capsys):
        code = main([
            "run", "--n", "64", "--alpha", "0.75", "--trials", "4",
            "--adversary", "flood",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean individual rounds" in out
        assert "success rate" in out

    def test_no_adversary(self, capsys):
        code = main([
            "run", "--n", "64", "--trials", "4", "--adversary", "none"
        ])
        assert code == 0
        capsys.readouterr()

    def test_strategy_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "--strategy", "nope"])


class TestGauntlet:
    def test_all_adversaries_reported(self, capsys):
        code = main([
            "gauntlet", "--n", "64", "--alpha", "0.5", "--trials", "3"
        ])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("silent", "flood", "split-vote", "mimic"):
            assert name in out


class TestBounds:
    def test_prints_theory_card(self, capsys):
        assert main(["bounds", "--n", "256", "--alpha", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "theory card" in out
        assert "Thm 4" in out

    def test_alpha_one_renders_inf_delta(self, capsys):
        assert main(["bounds", "--alpha", "1.0"]) == 0
        assert "inf" in capsys.readouterr().out


class TestShow:
    def test_renders_dashboard(self, capsys):
        code = main(["show", "--n", "64", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "satisfaction curve" in out
        assert "billboard timeline" in out

    def test_no_adversary(self, capsys):
        code = main(["show", "--n", "64", "--adversary", "none"])
        assert code == 0
        capsys.readouterr()


class TestReport:
    def test_report_to_stdout(self, capsys):
        code = main(["report", "--ids", "E1", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# Reproduction report" in out
        assert "## E1" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        code = main([
            "report", "--ids", "E1", "--scale", "smoke",
            "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        assert "## E1" in path.read_text()


class TestObsFlag:
    def test_run_writes_observation_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        code = main([
            "run", "--n", "64", "--trials", "4", "--adversary", "none",
            "--obs-out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        from repro.obs import load_observations

        data = load_observations(str(path))
        assert data.manifest is not None
        assert data.counters["trial.completed"] == 4
        assert "runner.run_trials" in data.timers

    def test_unwritable_obs_out_is_clean_error(self, capsys):
        code = main([
            "run", "--n", "64", "--trials", "2", "--adversary", "none",
            "--obs-out", "/no/such/dir/run.jsonl",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_obs_flag_leaves_results_unchanged(self, tmp_path, capsys):
        plain = main([
            "run", "--n", "64", "--trials", "4", "--adversary", "none",
            "--seed", "5",
        ])
        first = capsys.readouterr().out
        observed = main([
            "run", "--n", "64", "--trials", "4", "--adversary", "none",
            "--seed", "5", "--obs-out", str(tmp_path / "o.jsonl"),
        ])
        second = capsys.readouterr().out
        assert plain == observed == 0
        assert first == second


class TestObsCommand:
    def _observation_file(self, tmp_path, capsys, seed="3"):
        path = tmp_path / f"obs-{seed}.jsonl"
        assert main([
            "run", "--n", "64", "--trials", "4", "--adversary", "none",
            "--seed", seed, "--obs-out", str(path),
        ]) == 0
        capsys.readouterr()
        return str(path)

    def test_summary_text(self, tmp_path, capsys):
        path = self._observation_file(tmp_path, capsys)
        assert main(["obs", "summary", path]) == 0
        out = capsys.readouterr().out
        assert "config_hash" in out
        assert "phase engine:" in out
        assert "engine.rounds" in out

    def test_summary_json(self, tmp_path, capsys):
        import json

        path = self._observation_file(tmp_path, capsys)
        assert main(["obs", "summary", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["n_trials"] == 4
        assert "engine" in payload["phases"]

    def test_export_normalizes_jsonl(self, tmp_path, capsys):
        import json

        path = self._observation_file(tmp_path, capsys)
        assert main(["obs", "export", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds[0] == "manifest"
        assert "counter" in kinds

    def test_diff_same_file_exits_zero(self, tmp_path, capsys):
        path = self._observation_file(tmp_path, capsys)
        assert main(["obs", "diff", path, path]) == 0
        assert "match" in capsys.readouterr().out

    def test_diff_different_runs_exits_one(self, tmp_path, capsys):
        path_a = self._observation_file(tmp_path, capsys, seed="3")
        path_b = self._observation_file(tmp_path, capsys, seed="4")
        assert main(["obs", "diff", path_a, path_b]) == 1
        assert "seed_entropy" in capsys.readouterr().out

    def test_diff_across_backends_exits_zero_with_note(
        self, tmp_path, capsys, monkeypatch
    ):
        """Same seed serially and on the fork pool: identical results,
        identical identity — the backend difference in the manifest is
        a note, not a verdict."""
        import os

        # --jobs 2 must reach a real pool even on a one-core host
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        path_serial = tmp_path / "serial.jsonl"
        path_pool = tmp_path / "pool.jsonl"
        base = [
            "run", "--n", "64", "--trials", "4", "--adversary", "none",
            "--seed", "3",
        ]
        assert main(
            base + ["--jobs", "1", "--obs-out", str(path_serial)]
        ) == 0
        assert main(base + ["--jobs", "2", "--obs-out", str(path_pool)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(path_serial), str(path_pool)]) == 0
        out = capsys.readouterr().out
        assert "match" in out
        assert "note: manifest.executor" in out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["obs", "summary", "/no/such/file.jsonl"]) == 2
        assert "error" in capsys.readouterr().err
