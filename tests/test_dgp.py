import dataclasses
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from tvcate import _blocks
from tvcate.dgp import (
    ChainResponseForm,
    DiscreteDGP,
    get_dgp,
    make_d1,
    make_d2,
    make_d3,
    make_linear_chain,
    make_mini_discrete,
    benchmark_pair,
    simulate_panel,
)
from tvcate.panel import HistoryView, InterventionPair, Panel, Trajectory
from tvcate.harness import default_sweep_config
from tvcate.nuisance import build_row_table
from tvcate.verify import DEFAULT_BUDGETS

from helpers import (oracle_history_adjustment, oracle_propensity, oracle_response, recording,
                     same_bits, set_blocks, suite_report_pinned_and_free)


def history(x_vals, a_vals=(), y_vals=(), pad_to=5):
    """HistoryView at t = len(x_vals) inside a horizon-pad_to trajectory."""
    t = len(x_vals)
    X = np.zeros(pad_to)
    X[:t] = x_vals
    A = np.zeros(pad_to, dtype=int)
    A[: t - 1] = a_vals
    Y = np.zeros(pad_to)
    Y[: t - 1] = y_vals
    return HistoryView(Trajectory(X, A, Y), t)


class TestFactories:
    def test_d1_logit_and_propensity_at_origin(self):
        dgp = make_d1()
        logit = dgp.f_a(np.array([0.0]), np.array([0.0]), np.array([0.0]))[0]
        assert logit == pytest.approx(4 * np.cos(0.25))
        assert logit == pytest.approx(3.875649686842579)
        assert expit(logit) == pytest.approx(0.9796805837041865, abs=1e-12)

    def test_d2_logit_at_origin_prev_treated(self):
        dgp = make_d2()
        logit = dgp.f_a(np.array([0.0]), np.array([1.0]), np.array([0.0]))[0]
        assert logit == pytest.approx(-0.25)

    def test_d3_zero_gamma_gives_half_propensity(self):
        dgp = make_d3(0.0)
        rng = np.random.default_rng(0)
        x, a, y = rng.normal(size=(3, 8))
        np.testing.assert_allclose(expit(dgp.f_a(x, a, y)), 0.5)

    def test_d3_negative_gamma_errors(self):
        with pytest.raises(ValueError, match="gamma"):
            make_d3(-1.0)

    def test_noise_scales_read_as_standard_deviations(self):
        # d1: X_1 ~ N(0, 1), Y_1 = cos(X_1) + 0.5 (A_1 - 0.5) + N(0, 0.3^2),
        # X_2 = 0.5 X_1 + N(0, 0.5^2); the sample sds are within 3 % at n = 20000
        d1 = make_d1()
        assert (d1.x1_std, d1.x_noise_std, d1.y_noise_std) == (1.0, 0.5, 0.3)
        X, A, Y = simulate_panel(d1, 20000, seed=3).dense()
        x1, x2 = X[:, 0, 0], X[:, 1, 0]
        assert x1.std() == pytest.approx(1.0, rel=0.03)
        assert (Y[:, 0] - d1.f_y(x1, A[:, 0], 0.0)).std() == pytest.approx(0.3, rel=0.03)
        assert (x2 - 0.5 * x1).std() == pytest.approx(0.5, rel=0.03)


@pytest.mark.parametrize("build,field", [
    pytest.param(lambda: dataclasses.replace(make_d1(), horizon=2.5), "horizon", id="horizon 2.5"),
    pytest.param(lambda: dataclasses.replace(make_d1(), horizon=True), "horizon",
                 id="horizon True"),
    pytest.param(lambda: dataclasses.replace(make_d1(), horizon=0), "horizon", id="horizon 0"),
    pytest.param(lambda: dataclasses.replace(make_d1(), x1_std=np.nan), "x1_std", id="x1_std nan"),
    pytest.param(lambda: dataclasses.replace(make_d1(), x_noise_std=0.0), "x_noise_std",
                 id="x_noise_std 0"),
    pytest.param(lambda: dataclasses.replace(make_d1(), y_noise_std=np.inf), "y_noise_std",
                 id="y_noise_std inf"),
    pytest.param(lambda: dataclasses.replace(make_d1(), y_noise_std="x"), "y_noise_std",
                 id="y_noise_std x"),
    pytest.param(lambda: dataclasses.replace(make_d1(), a0=2.5), "a0", id="a0 2.5"),
    pytest.param(lambda: dataclasses.replace(make_d1(), a0=5), "a0", id="a0 5"),
    pytest.param(lambda: dataclasses.replace(make_d1(), a0=-1), "a0", id="a0 -1"),
    pytest.param(lambda: dataclasses.replace(make_d1(), a0=True), "a0", id="a0 True"),
    pytest.param(lambda: DiscreteDGP(horizon=3), "horizon", id="discrete horizon 3"),
    pytest.param(lambda: DiscreteDGP(horizon=2.0), "horizon", id="discrete horizon 2.0"),
])
def test_a_generator_field_is_checked_when_built(build, field):
    # each once built: horizon 2.5 and True then failed inside NumPy, the
    # noise scales were caught by the panel check or not at all, a0 2.5 and
    # 5 simulated, and DiscreteDGP(horizon=3) simulated two steps
    with pytest.raises(ValueError, match=f"^{field} must be"):
        build()


class TestRegistry:
    def test_known_names(self):
        assert get_dgp("d1").name == "d1"
        assert get_dgp("d2").name == "d2"
        assert get_dgp("d3:gamma=4").name == "d3:gamma=4.0"
        assert get_dgp("mini-discrete").name == "mini-discrete"
        assert get_dgp("linear-chain").name == "linear-chain"

    @pytest.mark.parametrize("gamma", default_sweep_config().gammas + (2.0000001,))
    def test_d3_name_looks_up_the_same_generator(self, gamma):
        d = make_d3(gamma)
        assert get_dgp(d.name).name == d.name
        assert get_dgp(d.name).f_a(1.0, 0.0, 0.0) == d.f_a(1.0, 0.0, 0.0)

    def test_gamma_is_parsed(self):
        dgp = get_dgp("d3:gamma=8")
        logit = dgp.f_a(np.array([1.0]), np.array([0.0]), np.array([0.0]))[0]
        assert logit == pytest.approx(8 * (0.5 + 0.25))

    def test_unknown_name_errors(self):
        with pytest.raises(ValueError, match="unknown DGP"):
            get_dgp("d9")

    def test_d3_without_gamma_errors(self):
        with pytest.raises(ValueError, match="bad parameters"):
            get_dgp("d3")

    def test_linear_chain_horizon_errors(self):
        # the linear chain has the default horizon 5 and takes no horizon
        assert get_dgp("linear-chain").horizon == 5
        with pytest.raises(ValueError, match="bad parameters for DGP 'linear-chain'"):
            get_dgp("linear-chain:horizon=3")


class TestSimulatePanel:
    def test_shapes_and_validity(self):
        panel = simulate_panel(make_d1(), 50, seed=0)
        assert panel.n == 50
        Panel(panel.X, panel.A, panel.Y, panel.offsets)       # the constructor's checks pass
        assert all(tr.length == 5 for tr in panel.trajectories)

    def test_same_seed_bit_identical(self):
        p1 = simulate_panel(make_d2(), 40, seed=123)
        p2 = simulate_panel(make_d2(), 40, seed=123)
        for t1, t2 in zip(p1.trajectories, p2.trajectories):
            np.testing.assert_array_equal(t1.covariates, t2.covariates)
            np.testing.assert_array_equal(t1.treatments, t2.treatments)
            np.testing.assert_array_equal(t1.outcomes, t2.outcomes)

    def test_different_seed_differs(self):
        p1 = simulate_panel(make_d1(), 10, seed=1)
        p2 = simulate_panel(make_d1(), 10, seed=2)
        assert not np.array_equal(p1.trajectories[0].covariates,
                                  p2.trajectories[0].covariates)

    def test_d1_first_step_treatment_rate_matches_quadrature(self):
        # E[sigmoid(4 cos(0.5 X_1 + 0.25))], X_1 ~ N(0,1), by Gauss-Hermite
        nodes, weights = np.polynomial.hermite.hermgauss(201)
        target = np.sum(weights * expit(4 * np.cos(0.5 * np.sqrt(2) * nodes + 0.25)))
        target /= np.sqrt(np.pi)
        assert target == pytest.approx(0.9558373901636644, abs=1e-12)
        n = 10 ** 5
        panel = simulate_panel(make_d1(), n, seed=7)
        a1 = np.array([tr.treatments[0] for tr in panel.trajectories])
        se = np.sqrt(target * (1 - target) / n)
        assert abs(a1.mean() - target) <= 3 * se


class TestSimulateBoundary:
    @pytest.mark.parametrize("n", [2.5, "10", True, None, 0, -3])
    def test_bad_n_is_rejected_naming_the_field(self, n):
        with pytest.raises(ValueError, match=r"^n must be"):
            simulate_panel(make_d1(), n, seed=0)

    def test_numpy_integer_n_is_an_integer(self):
        want = simulate_panel(make_d1(), 7, seed=3)
        for n in (np.int64(7), np.int32(7), np.uint8(7)):
            got = simulate_panel(make_d1(), n, seed=3)
            assert got.n == 7 and same_bits(got.X, want.X) and same_bits(got.Y, want.Y)

    @pytest.mark.parametrize("x1", [np.zeros(3), np.zeros((5, 1)), [[0.1]], np.zeros(6), "abc",
                                    object()])
    def test_bad_x1_is_rejected_naming_the_field(self, x1):
        with pytest.raises(ValueError, match=r"^x1 must be"):
            simulate_panel(make_linear_chain(), 5, seed=0, x1=x1)

    @pytest.mark.parametrize("x1", [0.3, np.float32(0.3), [0.3], np.full(5, 0.3),
                                    np.linspace(-1.0, 1.0, 5)])
    def test_x1_pins_every_first_covariate(self, x1):
        panel = simulate_panel(make_linear_chain(), 5, seed=0, x1=x1)
        want = np.broadcast_to(np.asarray(x1, dtype=float), (5,))
        assert same_bits(panel.dense()[0][:, 0, 0], want)


#: generators (and x1 pins) whose simulations the block tests compare
SIMULATED = {
    "d1": (make_d1(), None),
    "d2": (make_d2(), None),
    "d3 gamma 8": (make_d3(8.0), None),
    "linear chain, x1 pinned": (make_linear_chain(), 0.3),
    "linear chain, x1 per trajectory": (make_linear_chain(), np.linspace(-2.0, 2.0, 300)),
    "horizon 1": (dataclasses.replace(make_d2(), horizon=1), None),
}


class TestSimulateBlocks:
    """A simulation of at least ``_blocks._TABLE_MIN_ROWS`` trajectories runs
    its arithmetic in trajectory blocks on every usable CPU, with the bits
    of one block."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", list(SIMULATED))
    def test_blocks_have_the_bits_of_one_block(self, name, cpus, monkeypatch):
        dgp, x1 = SIMULATED[name]
        want = simulate_panel(dgp, 300, seed=[8, 1], x1=x1)
        set_blocks(monkeypatch, cpus, table_rows=97)
        got = simulate_panel(dgp, 300, seed=[8, 1], x1=x1)
        for field in ("X", "A", "Y", "offsets"):
            assert same_bits(getattr(got, field), getattr(want, field)), field

    def test_peak_memory_per_position(self, monkeypatch):
        # X and Y at 8 bytes a position in the simulation and again in the
        # panel's copies, A at 1 byte in each and one step's draws: 37.3
        # bytes a position here; int64 arms measured 51.3
        set_blocks(monkeypatch, 2, table_rows=1024)
        tracemalloc.start()
        try:
            panel = simulate_panel(make_d2(), 20000, seed=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * panel.A.size
        assert panel.A.dtype == np.uint8

    def test_more_threads_than_cores_keep_every_block(self, monkeypatch):
        # eight shares of 7-row blocks, switching threads every microsecond:
        # a block written twice, lost or mixed up changes the bits of the
        # panel or of its row table
        want = simulate_panel(make_d2(), 300, seed=12)
        tables = [build_row_table(want, tau) for tau in (0, 2)]
        set_blocks(monkeypatch, 8, table_rows=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_panel(make_d2(), 300, seed=12)
            got_tables = [build_row_table(got, tau) for tau in (0, 2)]
        finally:
            sys.setswitchinterval(interval)
        for field in ("X", "A", "Y"):
            assert same_bits(getattr(got, field), getattr(want, field)), field
        for g, w in zip(got_tables, tables):
            for name in ("traj_id", "t", "a_obs", "y_term"):
                assert same_bits(getattr(g, name), getattr(w, name)), name

    def test_block_error_is_raised_in_the_caller(self, monkeypatch):
        caller = threading.current_thread()

        def record(thread):
            if thread is not caller:
                raise FloatingPointError("an outcome block on a started thread")
        set_blocks(monkeypatch, 2, table_rows=97)
        with pytest.raises(FloatingPointError, match="started thread"):
            simulate_panel(recording(make_d1(), "f_y", record), 300, seed=5)

    @pytest.mark.parametrize("cpus", [None, 2, 3])
    def test_nan_outcome_names_the_first_trajectory_and_time(self, cpus, monkeypatch):
        # the outcome is NaN where 100 < X_t < 300.  d1 halves X_t each step
        # (noise sd 0.5), so trajectory 150, pinned at X_1 = 1000, is NaN
        # from t 3 (X_3 ~ 250) and trajectory 200, pinned at 200, from t 1:
        # the first is in the second 97-row block, the next in the third
        d1 = make_d1()
        nan_y = dataclasses.replace(d1, f_y=lambda x, a, y: np.where(
            (x > 100) & (x < 300), np.nan, d1.f_y(x, a, y)))
        x1 = np.zeros(300)
        x1[[150, 200]] = 1000.0, 200.0
        if cpus is not None:
            set_blocks(monkeypatch, cpus, table_rows=97)
        with pytest.raises(ValueError, match=r"^trajectory 150, t 3: non-finite "
                                             r"covariate or outcome$"):
            simulate_panel(nan_y, 300, seed=9, x1=x1)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        set_blocks(monkeypatch, 3, table_rows=97)
        seen = set()
        before = threading.enumerate()
        simulate_panel(recording(make_d1(), "f_x", seen.add), 300, seed=6)
        # the caller and started threads ran blocks, and none of them is left
        assert threading.current_thread() in seen and len(seen) > 1
        assert threading.enumerate() == before
        assert not any(t.is_alive() for t in seen - {threading.current_thread()})


    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_process_writes_the_ipw_report_of_every_cpu(self):
        # the ipw-unbiased suite at its default budget: two 10^5-trajectory
        # panels, each simulated in two blocks
        budget = DEFAULT_BUDGETS["ipw-unbiased"]
        assert _blocks._TABLE_MIN_ROWS <= budget < 2 * _blocks._TABLE_BLOCK_ROWS
        pinned, free = suite_report_pinned_and_free("ipw-unbiased", budget)
        assert pinned[0] == "1"
        assert int(free[0]) == len(os.sched_getaffinity(0))
        assert f"suite ipw-unbiased: PASS (budget {budget}, seed 0)" in pinned[1]
        assert pinned[1] == free[1]


class TestOraclePropensity:
    def test_d1_at_origin(self):
        h = history([0.0])
        assert oracle_propensity(make_d1(), h) == pytest.approx(0.9796805837041865)

    def test_complement_sums_to_one(self):
        h = history([0.4, -0.2], [1], [0.3])
        dgp = make_d2()
        assert oracle_propensity(dgp, h, 1) + oracle_propensity(dgp, h, 0) == pytest.approx(1.0)

    def test_d3_gamma0_half_everywhere(self):
        dgp = make_d3(0.0)
        for hv in (history([0.5]), history([1.0, -2.0], [1], [0.7])):
            assert oracle_propensity(dgp, hv) == 0.5

    def test_strictly_inside_unit_interval(self):
        dgp = make_d1()
        rng = np.random.default_rng(5)
        for _ in range(25):
            h = history([float(rng.normal())])
            p = oracle_propensity(dgp, h)
            assert 0.0 < p < 1.0


class TestOracleResponse:
    def test_terminal_level_is_exact(self):
        # tau=0 at X_t=0, arm 1: cos(0) + 0.5*(1-0.5) = 1.25, no rollout
        est = oracle_response(make_d1(), history([0.0]), (1,))
        assert est.value == pytest.approx(1.25)
        assert est.se == 0.0 and est.n_mc == 0

    def test_mc_matches_closed_form_on_d1(self):
        dgp = make_d1()
        for x, suffix, seed in [(0.3, (0, 1), 1), (-1.2, (1, 0, 1), 2), (0.0, (0, 0), 3)]:
            h = history([x])
            est = oracle_response(dgp, h, suffix, n_mc=200000, seed=seed)
            exact = dgp.response_form.capo(x, len(suffix) - 1, suffix[-1], dgp.x_noise_std)
            assert abs(est.value - float(exact)) <= 3 * est.se + 1e-12

    def test_mc_matches_closed_form_on_d2(self):
        dgp = make_d2()
        h = history([0.7])
        est = oracle_response(dgp, h, (1, 0), n_mc=400000, seed=4)
        exact = dgp.response_form.capo(0.7, 1, 0, dgp.x_noise_std)
        assert abs(est.value - float(exact)) <= 3 * est.se + 1e-12

    def test_suffix_past_horizon_errors(self):
        with pytest.raises(ValueError, match="horizon"):
            oracle_response(make_d1(), history([0.0] * 5, [0] * 4, [0.0] * 4), (1, 1))

    def test_bad_n_mc_errors(self):
        with pytest.raises(ValueError, match="n_mc"):
            oracle_response(make_d1(), history([0.0]), (1, 1), n_mc=0)


def oracle_contrast(dgp, h, pair, n_mc, seed):
    """Difference of the two arms' oracle responses at one seed, and its bound.

    The bound is 3 * (se_a + se_b), or 1e-12 when both arms are exact.
    """
    est_a = oracle_response(dgp, h, pair.a_seq, n_mc=n_mc, seed=seed)
    est_b = oracle_response(dgp, h, pair.b_seq, n_mc=n_mc, seed=seed)
    return est_a.value - est_b.value, max(3 * (est_a.se + est_b.se), 1e-12)


class TestOracleCate:
    """The CATE as a difference of Monte-Carlo response surfaces."""

    def test_equal_arms_give_zero(self):
        diff, _ = oracle_contrast(make_d1(), history([0.2]),
                                  InterventionPair((1, 1), (1, 1)), n_mc=500, seed=0)
        assert diff == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_d1_benchmark_pairs_give_half(self, tau):
        diff, bound = oracle_contrast(make_d1(), history([0.4]), benchmark_pair(tau),
                                      n_mc=4000, seed=tau)
        assert abs(diff - 0.5) <= bound

    def test_d2_tau1_gives_half(self):
        diff, bound = oracle_contrast(make_d2(), history([-0.3]), benchmark_pair(1),
                                      n_mc=4000, seed=5)
        assert abs(diff - 0.5) <= bound

    def test_constant_across_random_histories(self):
        dgp = make_d1()
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = int(rng.integers(1, 4))
            h = history(rng.normal(size=t), rng.integers(0, 2, max(t - 1, 0)),
                        rng.normal(size=max(t - 1, 0)))
            diff, bound = oracle_contrast(dgp, h, benchmark_pair(1), n_mc=2000,
                                          seed=int(rng.integers(1e6)))
            assert abs(diff - 0.5) <= bound


class TestOracleHistoryAdjustment:
    def test_matches_independent_quadrature_on_linear_chain(self):
        # E[Y_{t+1} | X_t=x, observed arms (a0,a1)] = x + a1 + E[eps*w]/E[w],
        # w(eps) = P(A_{t+1}=a1 | X_t + eps); frozen via adaptive quadrature
        dgp = make_linear_chain()
        cases = {
            (0.3, (1, 1)): 1.3441430324712134,
            (0.3, (1, 0)): 0.24511247629681576,
            (-0.8, (0, 1)): 0.2548875237031842,
        }
        for (x, path), truth in cases.items():
            h = history([x])
            est = oracle_history_adjustment(dgp, h, path, n_mc=400000, seed=3)
            assert abs(est.value - truth) <= 4 * est.se

    def test_unmatchable_path_errors(self):
        dgp = make_linear_chain(logit_scale=0.0, logit_intercept=30.0)  # A always 1
        with pytest.raises(ValueError, match="no rollouts matched"):
            oracle_history_adjustment(dgp, history([0.0]), (0, 0), n_mc=2000, seed=0)


class TestChainResponseForm:
    def test_d1_terminal_surface(self):
        form = make_d1().response_form
        assert form.capo(0.0, 0, 1, 0.5) == pytest.approx(1.25)
        assert form.capo(0.0, 0, 0, 0.5) == pytest.approx(0.75)

    def test_cate_constant_half_for_benchmark_pairs(self):
        form = make_d1().response_form
        for tau in (0, 1, 2):
            assert form.cate(benchmark_pair(tau)) == pytest.approx(0.5)

    def test_one_step_gaussian_smoothing(self):
        # E[cos(Z)], Z ~ N(0.5*x, 0.25): cos(0.5x) * exp(-0.125)
        form = ChainResponseForm(x_coef=0.5, outcome_kind="cos", omega=1.0)
        val = form.capo(1.0, 1, 1, 0.5)
        assert val == pytest.approx(np.cos(0.5) * np.exp(-0.125) + 0.25)

    def test_linear_chain_form_is_identity_plus_arm(self):
        form = make_linear_chain().response_form
        np.testing.assert_allclose(form.capo(np.array([0.2, -1.0]), 2, 1, 0.5),
                                   [1.2, 0.0])


class TestDiscreteDGP:
    def test_simulation_is_valid_and_deterministic(self):
        mini = make_mini_discrete()
        p1 = mini.simulate(300, seed=1)
        p2 = mini.simulate(300, seed=1)
        Panel(p1.X, p1.A, p1.Y, p1.offsets, p1.treatment_arity)    # the checks pass
        for t1, t2 in zip(p1.trajectories, p2.trajectories):
            np.testing.assert_array_equal(t1.covariates, t2.covariates)
        X, A, Y = p1.dense()
        assert set(np.unique(X)) <= {0.0, 1.0}
        np.testing.assert_array_equal(Y[:, 0], 0.0)
        np.testing.assert_allclose(Y[:, 1], mini.y2(X[:, 1, 0], A[:, 1]))

    def test_enumeration_tables(self):
        mini = make_mini_discrete()
        lvl1 = mini.enumerate_response((0, 1), level=1)
        assert lvl1[0.0] == pytest.approx(0.35) and lvl1[1.0] == pytest.approx(0.95)
        lvl0 = mini.enumerate_response((0, 1), level=0)
        # x1=0, a1=0: P(x2=1)=0.3 -> 0.7*0.35 + 0.3*0.95
        assert lvl0[0.0] == pytest.approx(0.7 * 0.35 + 0.3 * 0.95)
        assert lvl0[1.0] == pytest.approx(0.3 * 0.35 + 0.7 * 0.95)

