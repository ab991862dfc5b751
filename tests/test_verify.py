"""Tests for the verification suites: dispatch, check logic, and the
identities at reduced Monte-Carlo budgets (full budgets run in the
acceptance tests)."""

import tracemalloc

import numpy as np
import pytest

from tvcate.verify import (
    _CLUSTER_TRAJ,
    DEFAULT_BUDGETS,
    DEFAULT_SEEDS,
    SUITE_NAMES,
    CheckResult,
    SuiteReport,
    cluster_mean_se,
    format_report,
    run_suite,
)


class TestCheckResult:
    def test_upper_bound_comparison(self):
        assert CheckResult.compare("x", 0.04, 0.05).passed
        assert not CheckResult.compare("x", 0.06, 0.05).passed

    def test_exceedance_comparison(self):
        assert CheckResult.compare("x", 0.06, 0.05, ">").passed
        assert not CheckResult.compare("x", 0.04, 0.05, ">").passed

    def test_unknown_comparison(self):
        with pytest.raises(ValueError, match="comparison"):
            CheckResult.compare("x", 1.0, 1.0, "==")


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("variance")

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            run_suite("ipw-unbiased", budget=0)

    def test_every_suite_is_registered(self):
        assert set(DEFAULT_BUDGETS) == set(SUITE_NAMES)
        assert set(DEFAULT_SEEDS) == set(SUITE_NAMES)

    def test_report_shape(self):
        report = run_suite("ipw-unbiased", budget=5000)
        assert isinstance(report, SuiteReport)
        assert report.suite == "ipw-unbiased"
        assert report.budget == 5000
        assert len(report.checks) == 2
        assert report.walltime_s > 0
        assert report.passed == all(c.passed for c in report.checks)

    def test_repeated_runs_are_deterministic(self):
        a = run_suite("ivw-variance", budget=5000)
        b = run_suite("ivw-variance", budget=5000)
        assert [c.statistic for c in a.checks] == [c.statistic for c in b.checks]


class TestClusterMeanSE:
    """Per-trajectory means over row chunks that start at trajectory
    boundaries keep the bits of one whole-table ``bincount``."""

    @staticmethod
    def ragged(n_traj):
        """A sorted int32 ``traj_id`` of 1-7 rows a trajectory, and values
        spread over six decades, so a changed summation order shows."""
        rng = np.random.default_rng([35, n_traj])
        traj_id = np.repeat(np.arange(n_traj, dtype=np.int32), rng.integers(1, 8, n_traj))
        return traj_id, rng.standard_normal(traj_id.size) * 10.0 ** rng.uniform(-3, 3, traj_id.size)

    @pytest.mark.parametrize("n_traj", [1000, 3 * _CLUSTER_TRAJ + 1234, 5 * _CLUSTER_TRAJ + 1])
    def test_chunks_have_the_bits_of_the_whole_table_formula(self, n_traj):
        traj_id, values = self.ragged(n_traj)
        # trajectories straddle fixed 2^16-row edges, which a row chunking would split
        edges = np.arange(1 << 16, traj_id.size, 1 << 16)
        assert n_traj < _CLUSTER_TRAJ or np.any(traj_id[edges - 1] == traj_id[edges])
        m = np.bincount(traj_id, weights=values, minlength=n_traj) / np.bincount(traj_id)
        want = float(m.mean()), float(m.std(ddof=1) / np.sqrt(m.size))
        assert repr(cluster_mean_se(traj_id, values, n_traj)) == repr(want)

    def test_peak_memory_has_no_int64_copy_of_traj_id(self):
        # an int64 copy of traj_id alone is 8 bytes a row; the chunked means
        # measure 1.8 MB here against a bound of 2.6 MB (the whole-table
        # formula 3.9 MB)
        n_traj = 5 * _CLUSTER_TRAJ + 1
        traj_id, values = self.ragged(n_traj)
        tracemalloc.start()
        try:
            cluster_mean_se(traj_id, values, n_traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * traj_id.size + 24 * n_traj


class TestSuitesAtReducedBudget:
    def test_ivw_variance(self):
        report = run_suite("ivw-variance", budget=50_000)
        assert report.passed
        assert len(report.checks) == 6        # arm + pair for three horizons

    def test_eif_mean_unbiasedness(self):
        report = run_suite("eif-mean", budget=20_000)
        mean_checks = [c for c in report.checks if "mean" in c.name]
        assert len(mean_checks) == 2
        assert all(c.passed for c in mean_checks)
        rmse_checks = [c for c in report.checks if "RMSE" in c.name]
        assert all(c.detail["n_fit"] == 5000 for c in rmse_checks)

    def test_double_robust(self):
        report = run_suite("double-robust", budget=50_000)
        assert report.passed
        positive = [c for c in report.checks if c.comparison == "<="]
        negative = [c for c in report.checks if c.comparison == ">"]
        assert len(positive) == 2 and len(negative) == 1
        # the negative control records a genuinely biased mean
        assert abs(negative[0].detail["mean"] - 0.5) > 0.05

    def test_ipw_unbiased(self):
        assert run_suite("ipw-unbiased", budget=20_000).passed

    def test_gcomp_bruteforce(self):
        report = run_suite("gcomp-bruteforce", budget=20_000)
        assert report.passed
        assert len(report.checks) == 4        # two arm suffixes x two levels

    def test_static_reduction(self):
        report = run_suite("static-reduction", budget=20_000)
        assert report.passed
        exact = report.checks[0]
        assert exact.statistic <= 1e-12
        fitted = report.checks[1]
        assert fitted.tolerance == 0.05


class TestFormatReport:
    def test_pass_and_fail_lines(self):
        report = run_suite("gcomp-bruteforce", budget=2000)
        text = format_report(report)
        lines = text.splitlines()
        assert ("PASS" in lines[0]) or ("FAIL" in lines[0])
        assert len(lines) == 1 + len(report.checks)
        for line, check in zip(lines[1:], report.checks):
            assert check.name in line
            assert ("pass" in line) if check.passed else ("FAIL" in line)
