"""Acceptance gate: the nine primary criteria, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion; each test also prints the measured statistics behind its verdict.
Statistical tolerances are asserted exactly as stated; wall-clock budgets
are asserted from measured process time.

The identity criteria (1-6) run the statistical verification suites at
their full default budgets.  The ordering criteria (7-8) run the default
benchmark configs: the full six-learner study on the first confounded
generator, and the overlap sweep on the overlap-knob family.  Criterion 9
reruns both experiments and requires byte-identical result files.
"""

import time

import numpy as np
import pytest

from tvcate.harness import (ExperimentConfig, default_sweep_config,
                            emit_results, emit_sweep, overlap_sweep,
                            run_experiment, spearman, summarize)
from tvcate.verify import run_suite

pytestmark = pytest.mark.acceptance


def _run_suite_timed(name: str, wall_budget_s: float):
    start = time.perf_counter()
    report = run_suite(name)
    wall = time.perf_counter() - start
    verdict = "PASS" if report.passed else "FAIL"
    print(f"suite {name}: {verdict} in {wall:.1f}s (budget {wall_budget_s}s)")
    for check in report.checks:
        flag = "pass" if check.passed else "FAIL"
        print(f"  [{flag}] {check.name}: {check.statistic:.6g} "
              f"{check.comparison} {check.tolerance:g}")
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"suite {name} failed checks: {failed}"
    assert wall < wall_budget_s, f"suite {name} took {wall:.1f}s"
    return report


@pytest.fixture(scope="module")
def full_d1_run():
    start = time.perf_counter()
    result = run_experiment(ExperimentConfig())
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def full_overlap_sweep():
    start = time.perf_counter()
    sweep = overlap_sweep(default_sweep_config())
    return sweep, time.perf_counter() - start


class TestAcceptance:
    def test_criterion_1_variance_identity_5pct_tau_0_1_2(self):
        # MC variance of the DR pseudo-outcome vs sigma^2 E[V | pinned
        # history], 5% relative, 10^6 rollouts, < 2 min.
        report = _run_suite_timed("ivw-variance", 120.0)
        assert all(c.tolerance == 0.05 for c in report.checks)
        assert len(report.checks) == 6  # arm + pair identity at each tau

    def test_criterion_2_eif_mean_and_second_stage_rmse(self):
        # Pseudo-outcome mean within 3 MC SE of the constant 0.5 at 2*10^5
        # trajectories (tau 0 and 1) plus second-stage RMSE <= 0.05 at
        # n = 5*10^4, < 3 min.
        report = _run_suite_timed("eif-mean", 180.0)
        by_name = {c.name: c for c in report.checks}
        for tau in (0, 1):
            assert by_name[f"tau={tau}: |mean - 0.5| in standard "
                           f"errors"].tolerance == 3.0
            assert by_name[f"tau={tau}: second-stage RMSE vs constant "
                           f"effect"].tolerance == 0.05

    def test_criterion_3_double_robustness_controls(self):
        # Single corruptions stay within 3 SE; both corrupted exceeds
        # absolute bias 0.05; < 2 min.
        report = _run_suite_timed("double-robust", 120.0)
        negative = [c for c in report.checks if c.comparison == ">"]
        assert len(negative) == 1
        assert negative[0].tolerance == 0.05
        assert negative[0].statistic > 0.05

    def test_criterion_4_ipw_unbiased_oracle_propensities(self):
        # IPW pseudo-outcome mean within 3 SE of 0.5 at 10^5 trajectories,
        # tau 0 and 1, < 1 min.
        report = _run_suite_timed("ipw-unbiased", 60.0)
        assert all(c.tolerance == 3.0 for c in report.checks)

    def test_criterion_5_gcomp_matches_brute_force(self):
        # Fitted lookup-table response surfaces vs exhaustive enumeration,
        # max abs error <= 0.02 at n = 5*10^4, < 1 min.
        report = _run_suite_timed("gcomp-bruteforce", 60.0)
        assert all(c.tolerance == 0.02 for c in report.checks)

    def test_criterion_6_static_ivw_reduction(self):
        # One-step inverse-variance weight vs closed form pi(1-pi):
        # fitted sup relative error <= 5%, < 1 min.
        report = _run_suite_timed("static-reduction", 60.0)
        fitted = [c for c in report.checks if c.tolerance == 0.05]
        assert len(fitted) == 1

    def test_criterion_7_history_adjustment_is_worst(self, full_d1_run):
        # Full default run (first confounded generator, 5 seeds, fitted
        # nuisances): history-adjustment plug-in has mean RMSE >= 2x the
        # regression plug-in and is the worst learner at tau 1 and 2;
        # < 15 min.
        result, wall = full_d1_run
        means = {(r["learner"], r["tau"]): r["mean_rmse"]
                 for r in summarize(result)}
        kinds = result.config.learners
        print(f"full run in {wall:.1f}s (budget 900s)")
        for tau in (1, 2):
            table = "  ".join(f"{k} {means[(k, tau)]:.4f}" for k in kinds)
            ratio = means[("PI-HA", tau)] / means[("PI-RA", tau)]
            print(f"  tau={tau}: {table}  (PI-HA/PI-RA = {ratio:.2f})")
        for tau in (1, 2):
            ha = means[("PI-HA", tau)]
            assert ha >= 2.0 * means[("PI-RA", tau)], \
                f"tau={tau}: PI-HA mean RMSE below 2x PI-RA"
            for kind in kinds:
                assert means[(kind, tau)] <= ha, \
                    f"tau={tau}: {kind} is worse than PI-HA"
        assert wall < 900.0, f"full run took {wall:.1f}s"

    def test_criterion_8_overlap_trend_and_ivw_gain(self, full_overlap_sweep):
        # Overlap sweep gamma in {0,2,4,6,8}, tau=1, 5 seeds: DR mean RMSE
        # increases with gamma (Spearman rho >= 0.8) and the
        # inverse-variance weighted variant is no worse at the largest
        # gamma in at least 4 of 5 seeds; < 20 min.
        sweep, wall = full_overlap_sweep
        gammas = sweep.config.gammas
        dr_means = [r["mean_rmse"] for r in summarize(sweep)
                    if r["learner"] == "DR"]
        rho = spearman(gammas, dr_means)
        largest = gammas[-1]
        at_max = {}
        for row in sweep.rows:
            if row.gamma == largest:
                at_max.setdefault(row.seed, {})[row.learner] = row.rmse
        wins = sum(per["IVW-DR"] <= per["DR"] for per in at_max.values())
        print(f"sweep in {wall:.1f}s (budget 1200s)")
        print("  DR mean RMSE by gamma: "
              + " ".join(f"{g:g}:{m:.4f}" for g, m in zip(gammas, dr_means)))
        print(f"  Spearman rho = {rho:.3f}; IVW-DR wins at gamma={largest:g}:"
              f" {wins}/{len(at_max)}")
        assert rho >= 0.8, f"DR trend too weak: rho = {rho:.3f}"
        assert wins >= 4, f"IVW-DR won only {wins}/5 seeds at the largest gamma"
        assert wall < 1200.0, f"sweep took {wall:.1f}s"

    def test_criterion_9_byte_identical_reruns(self, full_d1_run,
                                               full_overlap_sweep,
                                               tmp_path):
        # Rerunning criteria 7 and 8 with identical configs reproduces
        # every result file byte for byte.
        result, _ = full_d1_run
        sweep, _ = full_overlap_sweep
        run_paths = emit_results(result, str(tmp_path / "run"))
        sweep_paths = emit_sweep(sweep, str(tmp_path / "sweep"))
        rerun = run_experiment(ExperimentConfig())
        resweep = overlap_sweep(default_sweep_config())
        rerun_paths = emit_results(rerun, str(tmp_path / "run2"))
        resweep_paths = emit_sweep(resweep, str(tmp_path / "sweep2"))
        compared = 0
        for key in run_paths:
            a = open(run_paths[key], "rb").read()
            b = open(rerun_paths[key], "rb").read()
            assert a == b, f"experiment file {key} differs between reruns"
            compared += 1
        for key in sweep_paths:
            a = open(sweep_paths[key], "rb").read()
            b = open(resweep_paths[key], "rb").read()
            assert a == b, f"sweep file {key} differs between reruns"
            compared += 1
        print(f"byte-compared {compared} result files across reruns: "
              "all identical")
        assert compared == 5
