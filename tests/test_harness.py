"""Tests for the benchmark experiment runner and its file formats."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tvcate
from tvcate import harness as harness_module
from tvcate.harness import (_seed_job, ExperimentConfig, ExperimentResult, ResultRow,
                            config_to_dict, config_to_text,
                            config_with_overrides, default_sweep_config,
                            emit_results, emit_sweep, format_results_csv,
                            format_summary_csv, format_summary_table,
                            overlap_sweep, parse_config_text,
                            resolve_output_dir, run_experiment, spearman,
                            summarize, OUTPUT_DIR_ENV)

TINY = ExperimentConfig(n_train=300, n_test=150, seeds=(0, 1), taus=(0, 1),
                        learners=("PI-RA", "DR"))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.dgp == "d1"
        assert cfg.learners == ("PI-HA", "PI-RA", "RA", "IPW", "DR", "IVW-DR")

    @pytest.mark.parametrize("kwargs,match", [
        (dict(seeds=()), "seeds"),
        (dict(seeds=(1, 1)), "seeds"),
        (dict(taus=()), "taus"),
        (dict(taus=(-1,)), "taus"),
        (dict(learners=()), "at least one"),
        (dict(learners=("DR", "DR")), "repeat"),
        (dict(learners=("NotALearner",)), "unknown learner"),
        (dict(n_train=0), "n_train"),
        (dict(clip_eps=0.0), "clip_eps"),
        (dict(clip_eps=0.5), "clip_eps"),
        (dict(eval_t=0), "eval_t"),
        (dict(gammas=()), "gammas"),
        (dict(workers=0), "workers"),
        (dict(taus=(0, 0)), "taus must not repeat"),
        (dict(gammas=(2.0, 2.0)), "gammas must not repeat"),
        (dict(regressor_features=0), "regressor_features: feature_count"),
        (dict(second_stage_bandwidth=-1), "second_stage_bandwidth: bandwidth"),
        (dict(regressor_ridge=-1), "regressor_ridge: ridge_lambda"),
        (dict(classifier_l2=-0.5), "classifier_l2: l2"),
        (dict(regressor_features=2.5), "regressor_features: feature_count must be an integer"),
        (dict(second_stage_features=True),
         "second_stage_features: feature_count must be an integer"),
    ])
    def test_rejects_bad_fields(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)


#: every field away from its default, so each one parses by its own type
EVERY_FIELD_SET = ExperimentConfig(
    dgp="d2", taus=(2, 1), n_train=700, n_test=90, seeds=(4, 9),
    learners=("IVW-DR", "RA"), regressor_features=32, regressor_bandwidth=0.75,
    regressor_ridge=0.5, classifier_cosine=False, classifier_l2=0.25,
    second_stage_features=48, second_stage_bandwidth=2.5, second_stage_ridge=3.0,
    clip_eps=0.2, split_enabled=True, eval_t=3, gammas=(1.0, 3.5), fast=True,
    record_walltime=True, workers=3, output_dir="elsewhere")


class TestConfigSerialization:
    def test_every_field_is_set(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)
                if getattr(EVERY_FIELD_SET, f.name) == f.default] == []

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(),
        default_sweep_config(),
        ExperimentConfig(eval_t=2, classifier_l2=0.5, fast=True,
                         output_dir="out", gammas=(0.0, 1.5)),
        # every digit survives: six significant digits would merge the gammas
        ExperimentConfig(clip_eps=0.0123456789, regressor_bandwidth=1.23456789,
                         classifier_l2=1e-7 / 3, gammas=(2.0, 2.0000001)),
        EVERY_FIELD_SET,
    ])
    def test_text_round_trip(self, cfg):
        text = config_to_text(cfg)
        rebuilt = config_with_overrides(None, parse_config_text(text))
        assert rebuilt == cfg
        assert repr(rebuilt) == repr(cfg)     # 3 == 3.0 == True, but not their reprs

    def test_parse_skips_comments_and_blanks(self):
        items = parse_config_text("# a comment\n\nn_train = 7 # inline\n")
        assert items == {"n_train": "7"}

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("n_train = 7\nnot a config line\n")

    def test_parse_last_assignment_wins(self):
        items = parse_config_text("n_train = 7\nn_train = 9\n")
        assert items == {"n_train": "9"}

    def test_override_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_with_overrides(None, {"n_teach": "7"})

    def test_override_bad_bool(self):
        with pytest.raises(ValueError, match="boolean"):
            config_with_overrides(None, {"fast": "maybe"})

    def test_override_coercions(self):
        cfg = config_with_overrides(None, {
            "taus": "1,2", "seeds": "3", "learners": "DR, IVW-DR",
            "gammas": "0,0.5", "eval_t": "none", "classifier_l2": "auto",
            "second_stage_ridge": "0.25", "split_enabled": "yes"})
        assert cfg.taus == (1, 2)
        assert cfg.seeds == (3,)
        assert cfg.learners == ("DR", "IVW-DR")
        assert cfg.gammas == (0.0, 0.5)
        assert cfg.eval_t is None
        assert cfg.classifier_l2 == "auto"
        assert cfg.second_stage_ridge == 0.25
        assert cfg.split_enabled is True

    def test_config_dict_is_json_ready(self):
        json.dumps(config_to_dict(ExperimentConfig()))


class TestRunExperiment:
    def test_row_grid_and_order(self):
        result = run_experiment(TINY)
        assert len(result.rows) == 2 * 2 * 2
        key = [(TINY.learners.index(r.learner), r.tau,
                TINY.seeds.index(r.seed)) for r in result.rows]
        assert key == sorted(key)
        assert {r.learner for r in result.rows} == {"PI-RA", "DR"}

    def test_rerun_is_identical(self):
        assert run_experiment(TINY) == run_experiment(TINY)

    def test_workers_do_not_change_rows(self):
        parallel = run_experiment(dataclasses.replace(TINY, workers=2))
        assert parallel.rows == run_experiment(TINY).rows
        assert parallel.advisories == run_experiment(TINY).advisories

    def test_walltime_zero_unless_recorded(self):
        result = run_experiment(TINY)
        assert all(r.walltime_s == 0.0 for r in result.rows)
        timed = run_experiment(dataclasses.replace(TINY,
                                                   record_walltime=True))
        assert all(r.walltime_s > 0.0 for r in timed.rows)

    def test_fast_matches_explicit_sizes(self):
        shrunk = run_experiment(dataclasses.replace(
            TINY, n_train=3000, n_test=1500, fast=True))
        explicit = run_experiment(dataclasses.replace(
            TINY, n_train=300, n_test=150))
        assert shrunk.rows == explicit.rows

    def test_fixed_time_evaluation_changes_rmse(self):
        pooled = run_experiment(TINY)
        fixed = run_experiment(dataclasses.replace(TINY, eval_t=1))
        assert fixed.rows != pooled.rows

    def test_fixed_time_past_horizon_rejected(self):
        with pytest.raises(ValueError, match="eval_t"):
            run_experiment(dataclasses.replace(TINY, eval_t=5, taus=(1,)))

    def test_horizon_without_pair_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            run_experiment(dataclasses.replace(TINY, taus=(4,)))

    def test_enumeration_generator_rejected(self):
        with pytest.raises(ValueError, match="closed-form"):
            run_experiment(dataclasses.replace(TINY, dgp="mini-discrete"))

    def test_clip_fraction_reported_for_weighting_learners(self):
        cfg = dataclasses.replace(TINY, clip_eps=0.4, taus=(1,),
                                  learners=("PI-RA", "DR"))
        result = run_experiment(cfg)
        by_kind = {r.learner: r for r in result.rows if r.seed == 0}
        assert by_kind["DR"].clip_fraction > 0.0
        assert by_kind["PI-RA"].clip_fraction == 0.0

    def test_low_overlap_advisories_are_collected(self):
        cfg = dataclasses.replace(TINY, n_train=50, n_test=50)
        result = run_experiment(cfg)
        assert result.advisories
        assert all(isinstance(note, str) for note in result.advisories)

    def test_rmse_sane_at_moderate_size(self):
        cfg = ExperimentConfig(n_train=2000, n_test=400, seeds=(0,),
                               taus=(0,), learners=("PI-RA",))
        result = run_experiment(cfg)
        assert result.rows[0].rmse < 0.2

    def test_nuisance_failure_names_tau_and_seed(self):
        # At n=500 the three-step intervention arm paths can be entirely
        # absent from a training draw; the error should say where.
        cfg = ExperimentConfig(fast=True, seeds=(2,), taus=(2,))
        with pytest.raises(RuntimeError, match=r"tau=2 seed=2"):
            run_experiment(cfg)


SINGLE = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1))


@pytest.fixture(scope="module")
def six_learner_rows():
    rows, _ = _seed_job(SINGLE, 0)
    return rows


class TestSingleLearnerJobs:
    """A job fits only the nuisances its learners need, with unchanged bits."""

    @pytest.mark.parametrize("kind", tvcate.LEARNER_KINDS)
    def test_row_equals_the_six_learner_job(self, kind, six_learner_rows):
        rows, _ = _seed_job(dataclasses.replace(SINGLE, learners=(kind,)), 0)
        assert rows == [row for row in six_learner_rows if row.learner == kind]


def _handmade_result():
    cfg = ExperimentConfig(seeds=(0, 1), taus=(1,), learners=("DR",))
    rows = (ResultRow("DR", 1, 0, 1.0 / 3.0, 0.0, 0.0),
            ResultRow("DR", 1, 1, 2.0 / 3.0, 0.0, 0.25))
    return ExperimentResult(cfg, rows, ("note",))


class TestSummariesAndFormats:
    def test_summarize_mean_and_sd(self):
        summary = summarize(_handmade_result())
        assert len(summary) == 1
        assert summary[0]["mean_rmse"] == pytest.approx(0.5)
        expected_sd = np.std([1.0 / 3.0, 2.0 / 3.0], ddof=1)
        assert summary[0]["sd_rmse"] == pytest.approx(expected_sd)

    def test_single_seed_sd_is_zero(self):
        cfg = ExperimentConfig(seeds=(0,), taus=(1,), learners=("DR",))
        result = ExperimentResult(cfg, (ResultRow("DR", 1, 0, 0.4, 0.0, 0.0),))
        assert summarize(result)[0]["sd_rmse"] == 0.0

    def test_results_csv_format(self):
        text = format_results_csv(_handmade_result())
        lines = text.splitlines()
        assert lines[0] == "learner,tau,seed,rmse,walltime_s,clip_fraction"
        assert lines[1] == "DR,1,0,0.33333333333333331,0,0"
        assert lines[2] == "DR,1,1,0.66666666666666663,0,0.25"

    def test_summary_csv_format(self):
        lines = format_summary_csv(_handmade_result()).splitlines()
        assert lines[0] == "learner,tau,mean_rmse,sd_rmse"
        assert lines[1].startswith("DR,1,0.5,")

    def test_summary_table_display_scale(self):
        table = format_summary_table(_handmade_result(), scale=10.0)
        assert "(x10)" in table
        assert "5.0000" in table  # 0.5 mean shown x10

    def test_csv_reals_round_trip(self):
        row = format_results_csv(_handmade_result()).splitlines()[1]
        assert float(row.split(",")[3]) == 1.0 / 3.0


class TestEmit:
    def test_emit_results_files_and_bytes(self, tmp_path):
        result = run_experiment(TINY)
        paths = emit_results(result, str(tmp_path))
        assert sorted(os.path.basename(p) for p in paths.values()) == [
            "results.csv", "results.json", "results_summary.csv"]
        first = {k: open(p, "rb").read() for k, p in paths.items()}
        paths = emit_results(run_experiment(TINY), str(tmp_path))
        second = {k: open(p, "rb").read() for k, p in paths.items()}
        assert first == second
        payload = json.loads(first["json"])
        assert payload["config"]["dgp"] == "d1"
        assert len(payload["rows"]) == len(result.rows)
        assert payload["rows"][0]["learner"] == result.rows[0].learner
        assert payload["summary"] == summarize(result)
        assert "gamma" not in payload["rows"][0]
        assert "gamma" not in payload["summary"][0]

    def test_emit_results_summarizes_a_sweep(self, tmp_path):
        cfg = dataclasses.replace(default_sweep_config(), seeds=(0, 1), gammas=(0.0, 4.0),
                                  learners=("DR",))
        sweep = ExperimentResult(cfg, tuple(
            ResultRow("DR", 1, seed, 0.1 * (seed + 1) + gamma, 0.0, 0.0, gamma=gamma)
            for gamma in cfg.gammas for seed in cfg.seeds))
        paths = emit_results(sweep, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [
            "results.csv", "results.json", "results_summary.csv"]
        lines = open(paths["summary"]).read().splitlines()
        assert lines[0] == "gamma,learner,mean_rmse,sd_rmse"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "DR"], ["4", "DR"]]
        assert float(lines[2].split(",")[2]) == pytest.approx(4.15)
        table = format_summary_table(sweep, scale=10.0).splitlines()
        assert table[0].split()[:2] == ["gamma", "learner"]
        assert table[2].split()[:3] == ["4", "DR", "41.5000"]

    @pytest.mark.parametrize("emit", [emit_results, emit_sweep])
    def test_one_config_into_two_directories_writes_the_same_bytes(self, emit, tmp_path):
        # the JSON records the config but not output_dir, which says where
        # the files went, not what ran
        cfg = dataclasses.replace(default_sweep_config(), seeds=(0,), gammas=(0.0,),
                                  learners=("DR",))
        files = []
        for out in ("first", "second"):
            result = ExperimentResult(dataclasses.replace(cfg, output_dir=str(tmp_path / out)),
                                      (ResultRow("DR", 1, 0, 0.1, 0.0, 0.0, gamma=0.0),))
            paths = emit(result).values()
            assert {os.path.dirname(path) for path in paths} == {str(tmp_path / out)}
            files.append({os.path.basename(path): open(path, "rb").read() for path in paths})
        assert files[0] == files[1]
        config = json.loads(files[0][emit.__name__.replace("emit_", "") + ".json"])["config"]
        assert "output_dir" not in config and config["dgp"] == "d3"

    def test_failing_formatter_writes_no_file(self, tmp_path, monkeypatch):
        def failing(result):
            raise RuntimeError("summary failed")
        monkeypatch.setattr(harness_module, "format_summary_csv", failing)
        cfg = dataclasses.replace(TINY, seeds=(0,), taus=(0,), learners=("DR",))
        result = ExperimentResult(cfg, (ResultRow("DR", 0, 0, 0.1, 0.0, 0.0),))
        with pytest.raises(RuntimeError, match="summary failed"):
            emit_results(result, str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_output_dir_resolution(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert resolve_output_dir(ExperimentConfig()) == "results"
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/tmp/elsewhere")
        assert resolve_output_dir(ExperimentConfig()) == "/tmp/elsewhere"
        cfg = ExperimentConfig(output_dir="chosen")
        assert resolve_output_dir(cfg) == "chosen"


SWEEP_TINY = dataclasses.replace(default_sweep_config(), n_train=300,
                                 n_test=150, seeds=(0, 1), gammas=(0.0, 4.0))


class TestOverlapSweep:
    def test_rows_and_order(self):
        sweep = overlap_sweep(SWEEP_TINY)
        assert len(sweep.rows) == 2 * 2 * 2  # gammas x learners x seeds
        key = [(SWEEP_TINY.gammas.index(r.gamma),
                SWEEP_TINY.learners.index(r.learner), r.seed)
               for r in sweep.rows]
        assert key == sorted(key)
        assert all(r.tau == 1 for r in sweep.rows)

    def test_rerun_and_workers_identical(self):
        base = overlap_sweep(SWEEP_TINY)
        assert overlap_sweep(SWEEP_TINY) == base
        parallel = overlap_sweep(dataclasses.replace(SWEEP_TINY, workers=2))
        assert parallel.rows == base.rows

    def test_each_gamma_runs_its_own_generator(self, monkeypatch):
        points = []

        def recording(cfg, seed):
            points.append(cfg.dgp)
            return [], []
        monkeypatch.setattr(harness_module, "_seed_job", recording)
        for gamma in (2.0, 2.0000001):
            harness_module._sweep_job(SWEEP_TINY, gamma, 0)
        logits = [harness_module._experiment_dgp(name).f_a(1.0, 0.0, 0.0)
                  for name in points]
        assert logits == [2.0 * 0.75, 2.0000001 * 0.75]

    def test_bad_point_raises_before_any_job(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness_module, "_seed_job",
                            lambda cfg, seed: calls.append(seed) or ([], []))
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            overlap_sweep(dataclasses.replace(SWEEP_TINY, gammas=(0.0, -1.0)))
        assert calls == []

    def test_requires_d3_family(self):
        with pytest.raises(ValueError, match="d3"):
            overlap_sweep(dataclasses.replace(SWEEP_TINY, dgp="d1"))

    def test_requires_single_tau(self):
        with pytest.raises(ValueError, match="single tau"):
            overlap_sweep(dataclasses.replace(SWEEP_TINY, taus=(0, 1)))

    def test_summary_and_files(self, tmp_path):
        sweep = overlap_sweep(SWEEP_TINY)
        summary = summarize(sweep)
        assert [s["gamma"] for s in summary] == [0.0, 0.0, 4.0, 4.0]
        assert "tau" not in summary[0]
        lines = format_results_csv(sweep).splitlines()
        assert lines[0] == ("gamma,learner,tau,seed,rmse,walltime_s,"
                            "clip_fraction")
        paths = emit_sweep(sweep, str(tmp_path))
        payload = json.loads(open(paths["json"]).read())
        assert payload["gamma_grid"] == [0.0, 4.0]
        assert set(payload["curves"]) == {"DR", "IVW-DR"}
        assert len(payload["curves"]["DR"]["mean_rmse"]) == 2
        assert payload["rows"][0]["gamma"] == 0.0
        first = open(paths["csv"], "rb").read()
        emit_sweep(overlap_sweep(SWEEP_TINY), str(tmp_path))
        assert open(paths["csv"], "rb").read() == first


class TestSpearman:
    def test_import_tvcate_leaves_scipy_stats_unloaded(self):
        # spearman imports scipy.stats itself, on first use
        src = os.path.dirname(os.path.dirname(tvcate.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c",
                        "import sys, tvcate; assert 'scipy.stats' not in sys.modules"],
                       env=env, check=True)

    def test_perfect_monotone(self):
        assert spearman([0, 2, 4, 6, 8], [1, 5, 7, 20, 21]) == \
            pytest.approx(1.0)
        assert spearman([0, 2, 4, 6, 8], [5, 4, 3, 2, 1]) == \
            pytest.approx(-1.0)

    def test_tied_values_use_average_ranks(self):
        # x ranks (0.5, 0.5, 2) vs y ranks (0, 1, 2): rho = 1.5/sqrt(3)
        assert spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == \
            pytest.approx(1.5 / np.sqrt(3.0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="equal-length"):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="equal-length"):
            spearman([1], [2])


class TestBlasThreadCount:
    """The thread half of the README's reproducibility contract: every result
    file of a run is byte-identical at one and two OpenBLAS threads."""

    @staticmethod
    def files(tmp_path, threads):
        src = os.path.dirname(os.path.dirname(tvcate.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        # results.json does not record where it went
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "tvcate.cli", "run", "--fast",
                        "--taus=0,1", "--seeds=0", "--out", str(out)],
                       cwd=tmp_path, env=env, check=True, capture_output=True, text=True)
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_one_and_two_threads_agree(self, tmp_path):
        one, two = self.files(tmp_path, 1), self.files(tmp_path, 2)
        assert len(json.loads(one["results.json"])["rows"]) == 12
        assert one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []
