"""Tests for the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tvcate.cli import main
from tvcate.panel import panel_from_csv


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_panel_csv(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert run_cli("simulate", "--dgp", "d2", "--n", "40", "--seed", "7",
                       "--out", str(out)) == 0
        panel = panel_from_csv(out)
        assert panel.n == 40

    def test_pinned_first_covariate(self, tmp_path):
        out = tmp_path / "panel.csv"
        run_cli("simulate", "--dgp", "d1", "--n", "25", "--x1", "0.3",
                "--out", str(out))
        panel = panel_from_csv(out)
        firsts = [traj.covariates[0, 0] for traj in panel.trajectories]
        assert firsts == [0.3] * 25

    def test_enumeration_generator_supported(self, tmp_path):
        out = tmp_path / "panel.csv"
        run_cli("simulate", "--dgp", "mini-discrete", "--n", "30",
                "--out", str(out))
        assert panel_from_csv(out).n == 30

    def test_pinning_rejected_for_enumeration_generator(self, tmp_path):
        with pytest.raises(SystemExit, match="x1"):
            run_cli("simulate", "--dgp", "mini-discrete", "--n", "5",
                    "--x1", "1.0", "--out", str(tmp_path / "p.csv"))

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--dgp", "d1", "--n", "20", "--out", str(a))
        run_cli("simulate", "--dgp", "d1", "--n", "20", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    root = tmp_path_factory.mktemp("panels")
    train, test = root / "train.csv", root / "test.csv"
    run_cli("simulate", "--dgp", "d2", "--n", "400", "--seed", "3",
            "--out", str(train))
    run_cli("simulate", "--dgp", "d2", "--n", "150", "--seed", "4",
            "--out", str(test))
    return train, test


class TestFitTrainEvaluate:
    def test_pipeline(self, tmp_path, panels, capsys):
        train, test = panels
        bundle = tmp_path / "nz.json"
        assert run_cli("fit", "--panel", str(train), "--tau", "1",
                       "--clip-eps", "0.02", "--out", str(bundle)) == 0
        model = tmp_path / "dr.json"
        assert run_cli("train", "--panel", str(train), "--learner", "DR",
                       "--tau", "1", "--nuisances", str(bundle),
                       "--out", str(model)) == 0
        report = tmp_path / "eval.json"
        assert run_cli("evaluate", "--model", str(model), "--panel",
                       str(test), "--dgp", "d2", "--out", str(report)) == 0
        text = capsys.readouterr().out
        assert "rmse" in text
        payload = json.loads(report.read_text())
        assert payload["kind"] == "DR"
        assert payload["tau"] == 1
        assert 0.0 <= payload["rmse"] < 0.5
        assert payload["truth"] == 0.5

    def test_train_reusing_bundle_matches_refit(self, tmp_path, panels):
        train, _ = panels
        bundle = tmp_path / "nz.json"
        run_cli("fit", "--panel", str(train), "--tau", "0",
                "--out", str(bundle))
        reused, refit = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("train", "--panel", str(train), "--learner", "IPW",
                "--tau", "0", "--nuisances", str(bundle), "--out",
                str(reused))
        run_cli("train", "--panel", str(train), "--learner", "IPW",
                "--tau", "0", "--out", str(refit))
        assert reused.read_bytes() == refit.read_bytes()

    def test_evaluate_requires_one_truth_source(self, tmp_path, panels):
        train, test = panels
        model = tmp_path / "m.json"
        run_cli("train", "--panel", str(train), "--learner", "PI-RA",
                "--tau", "0", "--out", str(model))
        with pytest.raises(SystemExit, match="exactly one"):
            run_cli("evaluate", "--model", str(model), "--panel", str(test))
        with pytest.raises(SystemExit, match="exactly one"):
            run_cli("evaluate", "--model", str(model), "--panel", str(test),
                    "--truth", "0.5", "--dgp", "d2")
        # checked before the model and the panel are read
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit, match="exactly one"):
            run_cli("evaluate", "--model", missing, "--panel", missing)

    def test_evaluate_fixed_time_filter(self, tmp_path, panels, capsys):
        train, test = panels
        model = tmp_path / "m.json"
        run_cli("train", "--panel", str(train), "--learner", "PI-RA",
                "--tau", "1", "--out", str(model))
        run_cli("evaluate", "--model", str(model), "--panel", str(test),
                "--truth", "0.5", "--eval-t", "2")
        assert "(150 pooled test histories" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="no rows"):
            run_cli("evaluate", "--model", str(model), "--panel", str(test),
                    "--truth", "0.5", "--eval-t", "9")

    def test_bundle_whose_kind_lacks_its_models_exits_with_one_line(self, tmp_path, panels):
        train, test = panels
        model = tmp_path / "m.json"
        run_cli("train", "--panel", str(train), "--learner", "PI-RA",
                "--tau", "0", "--out", str(model))
        state = json.loads(model.read_text())
        state["kind"] = "DR"
        model.write_text(json.dumps(state))
        proc = subprocess.run(
            [sys.executable, "-m", "tvcate.cli", "evaluate", "--model", str(model),
             "--panel", str(test), "--truth", "0.5"], capture_output=True, text=True)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.strip() == ("tvcate evaluate: model bundle of kind 'DR' "
                                       "needs second_stage")

    def test_custom_arm_length_checked(self, panels, tmp_path):
        train, _ = panels
        with pytest.raises(SystemExit, match="fixes 2 arms"):
            run_cli("fit", "--panel", str(train), "--tau", "1",
                    "--arm-a", "1,0,1", "--out", str(tmp_path / "x.json"))


RUN_ARGS = ("--n_train=300", "--n_test=150", "--seeds=0,1", "--taus=0,1",
            "--learners=PI-RA,DR")


class TestRunAndSweep:
    def test_run_emits_files(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli("run", "--out", str(out), *RUN_ARGS) == 0
        text = capsys.readouterr().out
        assert "mean_rmse" in text
        for name in ("results.csv", "results.json", "results_summary.csv"):
            assert (out / name).exists()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "learner,tau,seed,rmse,walltime_s,clip_fraction"

    def test_run_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "res"
        names = ("results.csv", "results.json", "results_summary.csv")
        run_cli("run", "--out", str(out), *RUN_ARGS)
        first = {name: (out / name).read_bytes() for name in names}
        run_cli("run", "--out", str(out), *RUN_ARGS)
        assert {name: (out / name).read_bytes() for name in names} == first
        # the CSVs carry no paths, so they match across output directories
        other = tmp_path / "elsewhere"
        run_cli("run", "--out", str(other), *RUN_ARGS)
        for name in ("results.csv", "results_summary.csv"):
            assert (other / name).read_bytes() == first[name]

    def test_run_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_train = 300\nn_test = 150\nseeds = 0\n"
                       "taus = 0\nlearners = PI-RA\n")
        out = tmp_path / "res"
        run_cli("run", "--config", str(cfg), "--out", str(out),
                "--n_test=100")
        payload = json.loads((out / "results.json").read_text())
        assert payload["config"]["n_train"] == 300
        assert payload["config"]["n_test"] == 100  # flag beats file
        assert len(payload["rows"]) == 1

    def test_run_display_scale(self, tmp_path, capsys):
        run_cli("run", "--out", str(tmp_path), "--display-x10",
                "--n_train=300", "--n_test=100", "--seeds=0", "--taus=0",
                "--learners=PI-RA")
        assert "(x10)" in capsys.readouterr().out

    def test_run_rejects_unknown_override(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown config key"):
            run_cli("run", "--out", str(tmp_path), "--n_teach=5")

    def test_failing_seed_job_exits_with_one_line(self, tmp_path):
        # 500 fast-mode d1 trajectories leave the tau = 2 path (0, 0, 1)
        # unobserved at seed 2: a one-line exit, no traceback
        with pytest.raises(SystemExit) as info:
            run_cli("run", "--fast", "--taus=2", "--seeds=2", "--learners=PI-HA",
                    "--out", str(tmp_path))
        message = str(info.value)
        assert "tau=2 seed=2" in message and "(0, 0, 1)" in message
        assert "\n" not in message
        proc = subprocess.run(
            [sys.executable, "-m", "tvcate.cli", "run", "--fast", "--taus=2",
             "--seeds=2", "--learners=PI-HA", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "tau=2 seed=2" in proc.stderr

    @pytest.mark.parametrize("command,flag", [
        (["train", "--learner", "DR", "--tau", "0"], "--nuisances"),
        (["run"], "--config")])
    def test_missing_file_exits_with_one_line(self, tmp_path, command, flag):
        missing = str(tmp_path / "missing.json")
        argv = [*command, flag, missing, "--out", str(tmp_path / "out")]
        if command[0] == "train":
            run_cli("simulate", "--n", "20", "--out", str(tmp_path / "panel.csv"))
            argv += ["--panel", str(tmp_path / "panel.csv")]
        proc = subprocess.run([sys.executable, "-m", "tvcate.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        message = proc.stderr.strip()
        assert message.startswith(f"tvcate {command[0]}: ") and missing in message
        assert "\n" not in message

    def test_run_rejects_malformed_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="--key=value"):
            run_cli("run", "--out", str(tmp_path), "--fastish")

    def test_overrides_only_for_run_and_sweep(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--n", "5", "--out",
                    str(tmp_path / "p.csv"), "--n_train=3")

    def test_sweep_emits_files(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--out", str(out), "--n_train=300",
                       "--n_test=100", "--seeds=0,1", "--gammas=0,4") == 0
        assert "gamma" in capsys.readouterr().out
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == "gamma,learner,tau,seed,rmse,walltime_s,clip_fraction"
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["gamma_grid"] == [0.0, 4.0]
        assert payload["config"]["dgp"] == "d3"


class TestVerifyCommand:
    def test_single_suite_fast(self, capsys):
        assert run_cli("verify", "--suite", "ipw-unbiased", "--fast") == 0
        text = capsys.readouterr().out
        assert "suite ipw-unbiased: PASS" in text

    def test_budget_override(self, capsys):
        assert run_cli("verify", "--suite", "gcomp-bruteforce",
                       "--budget", "5000") == 0
        assert "budget 5000" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--suite", "no-such-suite")


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tvcate.cli", "verify", "--suite",
             "gcomp-bruteforce", "--budget", "5000"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
