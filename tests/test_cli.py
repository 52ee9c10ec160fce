"""End-to-end CLI: manifests, reproducibility, and every subcommand."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from epictrl.cli import main, parse_seeds
from epictrl.simulator import counts_from_csv

BASE_OVERRIDES = [
    "--set", "population.pop_size=400",
    "--set", "population.total_pop=400",
    "--set", "population.pop_infected=8",
    "--set", "env.episode_days=28",
]


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestParseSeeds:
    def test_forms(self):
        assert parse_seeds("1,2,3") == [1, 2, 3]
        assert parse_seeds("0-3") == [0, 1, 2, 3]
        assert parse_seeds("5") == [5]
        assert parse_seeds("1,4-6") == [1, 4, 5, 6]

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("seeds", ["x", "1,4-y"])
    def test_bad_seeds_are_usage_error(self, tmp_path, capsys, command, seeds):
        out = tmp_path / "X"
        policies = ["--policy", "none"] * (2 if command == "compare" else 1)
        code = run_cli(command, "--out", out, *policies, "--seeds", seeds, *BASE_OVERRIDES)
        assert code == 2
        assert "error: bad seed" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_writes_manifest_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", out, "--seed", 3, *BASE_OVERRIDES)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["resolved_config"]["population"]["pop_size"] == 400
        assert (out / "daily_counts.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest"] == "manifest.json"
        assert summary["days"] == 28

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--out", out_a, "--seed", 3, *BASE_OVERRIDES)
        run_cli("simulate", "--out", out_b, "--seed", 3, *BASE_OVERRIDES)
        for name in ("daily_counts.csv", "summary.json", "manifest.json"):
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes().replace(bytes(out_b), bytes(out_a))
            assert a == b, name

    def test_manifest_config_round_trip(self, tmp_path):
        out_a = tmp_path / "a"
        run_cli("simulate", "--out", out_a, "--seed", 3, *BASE_OVERRIDES)
        out_b = tmp_path / "b"
        code = run_cli("simulate", "--config", out_a / "manifest.json",
                       "--out", out_b, "--seed", 3)
        assert code == 0
        assert (out_a / "daily_counts.csv").read_bytes() == (out_b / "daily_counts.csv").read_bytes()

    def test_schedule_policy_echoes_in_trace(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", out, "--seed", 3,
                       "--policy", "schedule:7w7l", *BASE_OVERRIDES)
        assert code == 0

    def test_no_intervention_daily_counts_fingerprint(self, tmp_path):
        # SHA-256 of the file, recorded when the community layer became a circulant graph.
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", out, "--seed", 3, *BASE_OVERRIDES) == 0
        digest = hashlib.sha256((out / "daily_counts.csv").read_bytes()).hexdigest()
        assert digest == "87490d1618a0d71fde60be251fb738d9b189c245024ef1dbc930db0d97ceb819"

    @pytest.mark.parametrize("policy", ["none", "schedule:7w7l", "schedule:uk-approx"])
    def test_simulate_and_evaluate_write_the_same_series(self, tmp_path, policy):
        sim_out, eval_out = tmp_path / "sim", tmp_path / "eval"
        assert run_cli("simulate", "--out", sim_out, "--seed", 3, "--policy", policy, *BASE_OVERRIDES) == 0
        assert run_cli("evaluate", "--out", eval_out, "--seeds", 3, "--policy", policy, *BASE_OVERRIDES) == 0
        simulated = [asdict(c) for c in counts_from_csv(str(sim_out / "daily_counts.csv"))]
        records = [json.loads(line) for line in (eval_out / "trace_seed3.jsonl").read_text().splitlines()]
        assert simulated == [day for record in records for day in record["week_counts"]]

    def test_off_grid_schedule_in_discrete_mode_is_usage_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", tmp_path / "run", "--policy", "schedule:7w7l",
                       "--set", "env.action_space_kind=discrete", *BASE_OVERRIDES)
        assert code == 2
        assert "not a discrete level" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--policy", "schedule:7w7l"],
        ["evaluate", "--policy", "schedule:7w7l", "--seeds", "0"],
        ["compare", "--policy", "none", "--policy", "schedule:7w7l", "--seeds", "0"],
    ])
    def test_action_rejected_mid_run_leaves_no_output_dir(self, tmp_path, command):
        out = tmp_path / "X"
        code = run_cli(*command, "--out", out, "--set", "env.action_space_kind=discrete", *BASE_OVERRIDES)
        assert code == 2
        assert not out.exists()

    def test_missing_policy_file_is_usage_error(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", out, "--policy", "schedule:/nope.csv", *BASE_OVERRIDES)
        assert code == 2
        assert not out.exists()  # no partial output directory

    def test_bad_config_file_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--out", tmp_path / "x", "--config", "/does/not/exist.yaml")
        assert code == 2

    def test_config_env_var_provides_default(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "via_env.yaml"
        cfg_path.write_text(
            "population:\n  pop_size: 350\n  total_pop: 350\n  pop_infected: 5\n"
            "env:\n  episode_days: 21\n"
        )
        monkeypatch.setenv("EPICTRL_CONFIG", str(cfg_path))
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", out, "--seed", 1) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["population"]["pop_size"] == 350

    def test_shipped_default_config_loads(self, tmp_path):
        from importlib import resources

        ref = resources.files("epictrl.data").joinpath("default_config.yaml")
        with resources.as_file(ref) as path:
            out = tmp_path / "run"
            code = run_cli("simulate", "--config", path, "--out", out, "--seed", 1,
                           *BASE_OVERRIDES)
        assert code == 0


class TestCalibrate:
    def _write_observed(self, tmp_path):
        from datetime import date, timedelta

        rows = ["date,cum_confirmed,cum_deaths"]
        value = 10.0
        for i in range(25):
            rows.append(f"{(date(2020, 1, 21) + timedelta(days=i)).isoformat()},{value:.0f},{value / 20:.0f}")
            value *= 1.15
        path = tmp_path / "observed.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_single_trial_log_and_reloadable_params(self, tmp_path):
        data = self._write_observed(tmp_path)
        out = tmp_path / "cal"
        code = run_cli("calibrate", "--out", out, "--seed", 1, "--data", data,
                       "--trials", 1, "--replications", 1,
                       "--pop-infected-range", "4,20", "--beta-range", "0.02,0.2",
                       *BASE_OVERRIDES)
        assert code == 0
        log_lines = (out / "trial_log.csv").read_text().strip().splitlines()
        assert len(log_lines) == 2  # header + one trial
        assert (out / "fit_comparison.csv").exists()
        # best_params.yaml is a loadable config overlay
        out2 = tmp_path / "sim"
        code = run_cli("simulate", "--config", out / "best_params.yaml", "--out", out2,
                       "--seed", 1, *BASE_OVERRIDES)
        assert code == 0

    def test_missing_data_is_usage_error(self, tmp_path):
        code = run_cli("calibrate", "--out", tmp_path / "x", "--data", "/missing.csv")
        assert code == 2


class TestTrain:
    def test_zero_episodes_writes_initial_checkpoint_and_empty_curve(self, tmp_path):
        out = tmp_path / "train"
        code = run_cli("train", "--out", out, "--seed", 2, "--agent", "ppo",
                       "--space", "continuous", "--episodes", 0, *BASE_OVERRIDES)
        assert code == 0
        assert (out / "checkpoint_final.json").exists()
        assert (out / "learning_curve.csv").read_text().strip() == "episode,return"

    def test_dqn_continuous_is_usage_error(self, tmp_path):
        code = run_cli("train", "--out", tmp_path / "x", "--agent", "dqn",
                       "--space", "continuous", "--episodes", 1)
        assert code == 2

    def test_short_training_and_resume(self, tmp_path):
        out = tmp_path / "t1"
        overrides = BASE_OVERRIDES + ["--set", "ppo.n_steps=8", "--set", "ppo.batch_size=4"]
        code = run_cli("train", "--out", out, "--seed", 2, "--agent", "ppo",
                       "--space", "continuous", "--episodes", 2, *overrides)
        assert code == 0
        curve = (out / "learning_curve.csv").read_text().strip().splitlines()
        assert len(curve) == 3  # header + 2 episodes

        out2 = tmp_path / "t2"
        code = run_cli("train", "--out", out2, "--seed", 999, "--agent", "ppo",
                       "--space", "continuous", "--episodes", 4,
                       "--resume", out / "checkpoint_final.json", *overrides)
        assert code == 0
        curve2 = (out2 / "learning_curve.csv").read_text().strip().splitlines()
        assert len(curve2) == 5  # header + 4 episodes, no index gap
        assert curve2[1:3] == curve[1:3]


class TestEvaluateAndCompare:
    def test_evaluate_writes_metrics_and_traces(self, tmp_path):
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--out", out, "--policy", "schedule:7w7l",
                       "--seeds", "1,2", *BASE_OVERRIDES)
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert (out / "trace_seed1.jsonl").exists()
        assert (out / "trace_seed2.jsonl").exists()

    def test_compare_none_vs_none_identical_rows(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--out", out, "--policy", "none", "--policy", "none",
                       "--seeds", "1,2", *BASE_OVERRIDES)
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        # Rows identical apart from the strategy label.
        a = lines[1].split(",")[1:]
        b = lines[2].split(",")[1:]
        assert a == b

    def test_compare_requires_two_policies(self, tmp_path):
        code = run_cli("compare", "--out", tmp_path / "x", "--policy", "none",
                       "--seeds", "1", *BASE_OVERRIDES)
        assert code == 2

    def test_compare_writes_rt_and_traces(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--out", out, "--policy", "none",
                       "--policy", "schedule:7w7l", "--seeds", "1,2", *BASE_OVERRIDES)
        assert code == 0
        rt = (out / "rt_none_seed1.csv").read_text().splitlines()
        assert rt[0] == "day,rt"
        assert (out / "rt_7w7l_seed2.csv").exists()
        assert (out / "traces" / "none_seed1.csv").exists()
        assert (out / "traces" / "7w7l_seed2.csv").exists()
        assert (out / "report.txt").exists()

    def test_checkpoint_policy_in_compare(self, tmp_path):
        train_out = tmp_path / "train"
        overrides = BASE_OVERRIDES + ["--set", "ppo.n_steps=8", "--set", "ppo.batch_size=4"]
        run_cli("train", "--out", train_out, "--seed", 2, "--agent", "ppo",
                "--space", "continuous", "--episodes", 2, *overrides)
        out = tmp_path / "cmp"
        code = run_cli("compare", "--out", out, "--policy", "none",
                       "--policy", f"checkpoint:{train_out / 'checkpoint_final.json'}",
                       "--seeds", "1", *BASE_OVERRIDES)
        assert code == 0
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("content", ["not json {", "[1, 2]", '{"format_version": 1}'],
                             ids=["not-json", "not-an-object", "missing-key"])
    def test_malformed_checkpoint_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "checkpoint.json"
        path.write_text(content)
        out = tmp_path / "X"
        code = run_cli("evaluate", "--out", out, "--policy", f"checkpoint:{path}", "--seeds", "1", *BASE_OVERRIDES)
        assert code == 2
        assert f"error: {path}: malformed checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_checkpoint_named_in_error(self, tmp_path, capsys):
        code = run_cli("compare", "--out", tmp_path / "x", "--policy", "none",
                       "--policy", "checkpoint:/missing.json", "--seeds", "1")
        assert code == 2
        assert "/missing.json" in capsys.readouterr().err
