"""Monte-Carlo verification suites for the estimator identities.

Each suite draws fresh synthetic data at a configurable budget, evaluates
one analytic identity of the estimators against its ground truth, and
reports the measured statistic next to a fixed tolerance:

* ``ivw-variance`` — conditional variance of the doubly robust pseudo-outcome
  equals sigma^2 * E[V | pinned history] on the constant-variance linear
  chain, per horizon.
* ``eif-mean`` — with oracle nuisances the doubly robust pseudo-outcome is
  conditionally unbiased, so its unconditional mean matches the constant
  effect and a second-stage fit recovers the constant within a small RMSE.
* ``double-robust`` — corrupting either nuisance family alone leaves the
  doubly robust mean unbiased; corrupting both at once must produce a
  visible bias (a deliberate negative control: the last check passes only
  when the doubly corrupted estimator is biased).
* ``ipw-unbiased`` — the inverse-propensity-weighted pseudo-outcome mean
  matches the constant effect under oracle propensities.
* ``gcomp-bruteforce`` — iterative regression surfaces fitted by lookup
  table on the discrete generator match exhaustive enumeration at every
  level.
* ``static-reduction`` — at horizon 0 with binary arms the fitted inverse
  variance weight reduces to the product of propensities pi * (1 - pi),
  and the oracle conditional mean of V obeys the reduction exactly.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dgp import (
    make_d1,
    make_d2,
    make_linear_chain,
    make_mini_discrete,
    benchmark_pair,
    simulate_panel,
)
from .learners import LOOKUP_TABLE
from .meta import (
    PseudoRows,
    fit_meta,
    fit_v_model,
    ivw_realized,
    pseudo_dr,
    pseudo_ipw,
)
from .nuisance import build_row_table, default_codec, fit_response_iterative, oracle_nuisances

__all__ = [
    "SUITE_NAMES",
    "DEFAULT_BUDGETS",
    "CheckResult",
    "SuiteReport",
    "run_suite",
    "format_report",
]

SUITE_NAMES = ("ivw-variance", "eif-mean", "double-robust", "ipw-unbiased",
               "gcomp-bruteforce", "static-reduction")

#: Monte-Carlo budget (simulated trajectories / rollouts) per suite.
DEFAULT_BUDGETS = {
    "ivw-variance": 1_000_000,
    "eif-mean": 200_000,
    "double-robust": 1_000_000,
    "ipw-unbiased": 100_000,
    "gcomp-bruteforce": 50_000,
    "static-reduction": 50_000,
}

#: Base seed per suite (the double-robust negative control is sized so its
#: bias margin is stable at the default budget).
DEFAULT_SEEDS = {name: 1 if name == "double-robust" else 0
                 for name in SUITE_NAMES}


@dataclass(frozen=True)
class CheckResult:
    """One measured statistic compared against a tolerance."""

    name: str
    statistic: float
    tolerance: float
    comparison: str            # "<=" (identity holds) or ">" (negative control)
    passed: bool
    detail: dict

    @staticmethod
    def compare(name, statistic, tolerance, comparison="<=", detail=None):
        statistic = float(statistic)
        if comparison == "<=":
            ok = statistic <= tolerance
        elif comparison == ">":
            ok = statistic > tolerance
        else:
            raise ValueError(f"unknown comparison {comparison!r}")
        return CheckResult(name, statistic, float(tolerance), comparison,
                           bool(ok), dict(detail or {}))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    budget: int
    seed: int
    passed: bool
    checks: tuple
    walltime_s: float


def cluster_mean_se(traj_id, values, n_traj):
    """Mean of per-trajectory means and its standard error over trajectories."""
    counts = np.bincount(traj_id, minlength=n_traj)
    m = np.bincount(traj_id, weights=values, minlength=n_traj) / counts
    return float(m.mean()), float(m.std(ddof=1) / np.sqrt(m.size))


# -- suites -------------------------------------------------------------------

def _suite_ivw_variance(budget, seed):
    dgp = make_linear_chain()
    sigma2 = dgp.x_noise_std ** 2
    x_pin = 0.3
    checks = []
    for tau in (0, 1, 2):
        short = dataclasses.replace(dgp, horizon=tau + 1)
        pair = benchmark_pair(tau)
        panel = simulate_panel(short, budget, seed=[seed, 71, tau], x1=x_pin)
        nz = oracle_nuisances(short, pair)
        table = build_row_table(panel, tau)
        a_vals, _, diff = pseudo_dr(table, nz, pair)
        v_a, v_ab = ivw_realized(table, nz, pair)
        for label, lhs, rhs in (("arm", a_vals.var(ddof=1), sigma2 * v_a.mean()),
                                ("pair", diff.var(ddof=1), sigma2 * v_ab.mean())):
            checks.append(CheckResult.compare(
                f"tau={tau} {label}: relative error of Var vs sigma^2 E[V]",
                abs(lhs / rhs - 1.0), 0.05,
                detail={"mc_variance": float(lhs), "sigma2_mean_v": float(rhs),
                        "pinned_x1": x_pin, "rollouts": budget}))
    return checks


def _suite_eif_mean(budget, seed):
    dgp = make_d1()
    checks = []
    n_fit = max(budget // 4, 1)
    for tau in (0, 1):
        pair = benchmark_pair(tau)
        nz = oracle_nuisances(dgp, pair)
        panel = simulate_panel(dgp, budget, seed=[seed, 11, tau])
        table = build_row_table(panel, tau)
        mean, se = cluster_mean_se(table.traj_id, pseudo_dr(table, nz, pair)[2], panel.n)
        checks.append(CheckResult.compare(
            f"tau={tau}: |mean - 0.5| in standard errors",
            abs(mean - 0.5) / se, 3.0,
            detail={"mean": mean, "se": se, "n": budget}))

        train = simulate_panel(dgp, n_fit, seed=[seed, 12, tau])
        model = fit_meta("DR", train, pair, nz)
        test = simulate_panel(dgp, 1000, seed=[seed, 13, tau])
        ttab = build_row_table(test, tau, nz.codec)
        preds = model.predict(ttab.features(0))
        rmse = float(np.sqrt(np.mean((preds - 0.5) ** 2)))
        checks.append(CheckResult.compare(
            f"tau={tau}: second-stage RMSE vs constant effect",
            rmse, 0.05, detail={"n_fit": n_fit, "n_test": test.n}))
    return checks


def _suite_double_robust(budget, seed):
    dgp = make_d2()
    pair = benchmark_pair(1)
    panel = simulate_panel(dgp, budget, seed=seed)
    table = build_row_table(panel, 1)
    base = oracle_nuisances(dgp, pair)
    configs = [
        ("oracle response, corrupted propensity",
         base.corrupted(propensity=0.5), "<=", 3.0, True),
        ("oracle propensity, corrupted response",
         base.corrupted(response=0.0), "<=", 3.0, True),
        ("both corrupted (negative control)",
         base.corrupted(propensity=0.5, response=0.0), ">", 0.05, False),
    ]
    checks = []
    for name, nz, cmp_, tol, scaled in configs:
        # no config's pseudo-outcomes outlive its statistic
        mean, se = cluster_mean_se(table.traj_id, pseudo_dr(table, nz, pair)[2], panel.n)
        stat = abs(mean - 0.5) / se if scaled else abs(mean - 0.5)
        unit = "standard errors" if scaled else "absolute bias"
        checks.append(CheckResult.compare(
            f"{name}: {unit}", stat, tol, cmp_,
            detail={"mean": mean, "se": se, "n": budget}))
    return checks


def _suite_ipw_unbiased(budget, seed):
    dgp = make_d2()
    checks = []
    for tau in (0, 1):
        pair = benchmark_pair(tau)
        nz = oracle_nuisances(dgp, pair)
        panel = simulate_panel(dgp, budget, seed=[seed, 31, tau])
        table = build_row_table(panel, tau)
        mean, se = cluster_mean_se(table.traj_id, pseudo_ipw(table, nz, pair)[2], panel.n)
        checks.append(CheckResult.compare(
            f"tau={tau}: |mean - 0.5| in standard errors",
            abs(mean - 0.5) / se, 3.0,
            detail={"mean": mean, "se": se, "n": budget}))
    return checks


def _suite_gcomp_bruteforce(budget, seed):
    dgp = make_mini_discrete()
    panel = dgp.simulate(budget, seed=[seed, 21])
    codec = default_codec(panel)
    table = build_row_table(panel, 1, codec)
    first = panel.offsets[:-1]            # per x1, the encoded H_1 of its first trajectory
    reps = {x1: panel.encoded(codec)[first[panel.X[first, 0] == x1][0]] for x1 in (0.0, 1.0)}
    checks = []
    for suffix in ((0, 1), (1, 0)):
        models = fit_response_iterative(panel, suffix, 1, LOOKUP_TABLE, table=table)
        exact0 = dgp.enumerate_response(suffix, 0)
        err0 = max(abs(float(models[0].predict(reps[x1])) - exact0[x1]) for x1 in (0.0, 1.0))
        checks.append(CheckResult.compare(
            f"arms {suffix} level 0: max abs error vs enumeration", err0, 0.02,
            detail={"n": budget, "exact": exact0}))
        exact1 = dgp.enumerate_response(suffix, 1)
        on_arm = table.a_obs[:, 1] == suffix[1]
        pred1 = models[1].predict(table.features(1)[on_arm])
        truth1 = np.vectorize(exact1.get)(table.frontier(1, ("x",))[0][on_arm])
        checks.append(CheckResult.compare(
            f"arms {suffix} level 1: max abs error vs enumeration",
            np.max(np.abs(pred1 - truth1)), 0.02,
            detail={"n": budget, "exact": exact1}))
    return checks


def _mini_realized_v(dgp, table):
    """Realized V and the exact propensity for the discrete generator, tau=0."""
    x, a_prev = table.frontier(0, ("x", "a_prev"))
    pi1 = dgp.propensity1(x, a_prev)        # a_prev is 0 at absolute time 1
    ind1 = table.a_obs[:, 0] == 1
    v = np.where(ind1, 1.0 / pi1 ** 2, 1.0 / (1.0 - pi1) ** 2)
    return v, pi1


def _suite_static_reduction(budget, seed):
    checks = []

    # the conditional mean of V under the oracle propensity inverts to the
    # product of propensities exactly: 1 / (1/pi + 1/(1-pi)) = pi (1 - pi)
    cont = make_d2()
    pair = benchmark_pair(0)
    nz = oracle_nuisances(cont, pair)
    probe = simulate_panel(cont, 1000, seed=[seed, 40])
    ptab = build_row_table(probe, 0)
    _, raw = nz.propensity(0, 1, ptab)
    mean_v = 1.0 / raw + 1.0 / (1.0 - raw)
    checks.append(CheckResult.compare(
        "oracle E[V|h] inverse equals pi(1-pi): max abs deviation",
        np.max(np.abs(1.0 / mean_v - raw * (1.0 - raw))), 1e-12,
        detail={"n_histories": ptab.n_rows}))

    # end to end: regress realized V on history features on the discrete
    # generator (binary covariate and arms) and compare the fitted inverse
    # weight with the closed form on fresh test histories
    mini = make_mini_discrete()
    train = mini.simulate(budget, seed=[seed, 41])
    codec = default_codec(train)
    table = build_row_table(train, 0, codec)
    v, _ = _mini_realized_v(mini, table)
    rows = PseudoRows(table.features(0), np.zeros(table.n_rows), v)
    vm = fit_v_model(rows)
    test = mini.simulate(1000, seed=[seed, 42])
    ttab = build_row_table(test, 0, codec)
    _, pi1 = _mini_realized_v(mini, ttab)
    closed = pi1 * (1.0 - pi1)
    rel = np.abs(1.0 / vm.predict(ttab.features(0)) - closed) / closed
    checks.append(CheckResult.compare(
        "fitted inverse weight vs pi(1-pi): sup relative error",
        rel.max(), 0.05,
        detail={"n_fit": budget, "n_test_rows": ttab.n_rows}))
    return checks


_SUITES = {
    "ivw-variance": _suite_ivw_variance,
    "eif-mean": _suite_eif_mean,
    "double-robust": _suite_double_robust,
    "ipw-unbiased": _suite_ipw_unbiased,
    "gcomp-bruteforce": _suite_gcomp_bruteforce,
    "static-reduction": _suite_static_reduction,
}


def run_suite(name: str, budget: Optional[int] = None,
              seed: Optional[int] = None) -> SuiteReport:
    """Run one verification suite and report its checks.

    ``budget`` scales the number of simulated trajectories or rollouts
    (default per suite in DEFAULT_BUDGETS); ``seed`` replaces the suite's
    preregistered base seed.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if budget is None:
        budget = DEFAULT_BUDGETS[name]
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed is None:
        seed = DEFAULT_SEEDS[name]
    start = time.perf_counter()
    checks = tuple(_SUITES[name](int(budget), seed))
    return SuiteReport(suite=name, budget=int(budget), seed=int(seed),
                       passed=all(c.passed for c in checks), checks=checks,
                       walltime_s=time.perf_counter() - start)


def format_report(report: SuiteReport) -> str:
    lines = [f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
             f"(budget {report.budget}, seed {report.seed}, "
             f"{report.walltime_s:.1f}s)"]
    for c in report.checks:
        flag = "pass" if c.passed else "FAIL"
        lines.append(f"  [{flag}] {c.name}: {c.statistic:.6g} {c.comparison} "
                     f"{c.tolerance:g}")
    return "\n".join(lines)
