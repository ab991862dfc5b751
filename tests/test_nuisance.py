"""Tests for nuisance fitting: row tables, splits, response surfaces,
history adjustments, propensities, and the oracle-backed query interface."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from tvcate.dgp import (
    StructuralDGP,
    make_d1,
    make_d2,
    make_d3,
    make_mini_discrete,
    benchmark_pair,
    simulate_panel,
)
from tvcate.learners import (LOOKUP_TABLE, ClassifierSpec, RegressorSpec, RidgeDesign,
                             fit_regressor)
from tvcate.meta import LEARNER_KINDS, build_pseudo_rows, fit_meta
from tvcate.nuisance import (
    NuisanceSet,
    RowTable,
    SplitPlan,
    build_row_table,
    default_codec,
    fit_history_adjustment,
    fit_nuisances,
    fit_propensities,
    fit_response_iterative,
    load_nuisances,
    make_split,
    nuisances_from_dict,
    nuisances_to_dict,
    oracle_nuisances,
    position_map,
    save_nuisances,
)
from tvcate.panel import (
    FeatureCodec,
    HistoryView,
    InterventionPair,
    Panel,
    Trajectory,
    encode_history,
    panel_from_arrays,
)
from tvcate.verify import SUITE_NAMES, run_suite

from helpers import oracle_history_adjustment, panel_of, same_bits, set_blocks

TUNED_D1_SPEC = RegressorSpec(bandwidth=1.5, ridge_lambda=1e-2)


def hand_panel():
    X = np.array([[[1.0], [2.0], [3.0]], [[-1.0], [-2.0], [-3.0]]])
    A = np.array([[1, 0, 1], [0, 1, 0]])
    Y = np.array([[0.5, 1.5, 2.5], [-0.5, -1.5, -2.5]])
    return panel_from_arrays(X, A, Y, 2)


class TestRowTable:
    def test_matches_pooled_rows(self):
        # the pooled-row definition on a ragged panel (lengths 5 and 3); the
        # encoded rows equal per-history encodings bit for bit, so predicting
        # on table rows equals predicting on encoded history views
        rng = np.random.default_rng(3)
        trajs = tuple(Trajectory(rng.normal(size=(T, 1)), rng.integers(0, 2, size=T),
                                 rng.normal(size=T)) for T in (5, 3))
        panel = panel_of([(tr.covariates, tr.treatments, tr.outcomes) for tr in trajs])
        with pytest.raises(ValueError, match="horizon too long"):
            build_row_table(panel, 3)
        for tau in (1, 2):
            table = build_row_table(panel, tau)
            want = [(i, t) for i, tr in enumerate(trajs) for t in range(1, tr.length - tau + 1)]
            assert table.n_rows == len(want)
            assert list(zip(table.traj_id.tolist(), table.t.tolist())) == want
            for row, (i, t) in enumerate(want):
                assert table.y_term[row] == trajs[i].outcomes[t + tau - 1]
                for j in range(tau + 1):
                    vec = encode_history(HistoryView(trajs[i], t + j), table.codec)
                    assert table.features(j)[row].tobytes() == vec.tobytes()

    @pytest.mark.parametrize("lengths,arity,t_type", [((200, 4, 7), 2, np.int16),
                                                      ((127, 3), 2, np.int8),
                                                      ((128, 3), 3, np.int16),
                                                      ((5, 3, 4), 3, np.int8)])
    def test_row_index_and_arms_in_narrow_types(self, lengths, arity, t_type):
        # traj_id int32, t the narrowest signed type that holds the longest
        # trajectory and a_obs the narrowest that holds the arms; the values
        # are the pooled rows' and the panel's arms
        rng = np.random.default_rng(len(lengths) + arity)
        trajs = tuple(Trajectory(rng.normal(size=(T, 1)), rng.integers(0, arity, size=T),
                                 rng.normal(size=T)) for T in lengths)
        table = build_row_table(panel_of([(tr.covariates, tr.treatments, tr.outcomes)
                                          for tr in trajs], arity), 2)
        assert (table.traj_id.dtype, table.t.dtype, table.a_obs.dtype) == (
            np.int32, t_type, np.uint8)
        want = [(i, t) for i, tr in enumerate(trajs) for t in range(1, tr.length - 1)]
        assert list(zip(table.traj_id.tolist(), table.t.tolist())) == want
        assert table.a_obs.tolist() == [trajs[i].treatments[t - 1:t + 2].tolist()
                                        for i, t in want]
        assert table.y_term.dtype == np.float64
        assert same_bits(table.y_term, np.array([trajs[i].outcomes[t + 1] for i, t in want]))
        assert np.array_equal(table.positions(2), [sum(lengths[:i]) + t + 1 for i, t in want])
        # an evaluation time past the type's range selects no row
        assert not np.any(table.t == np.iinfo(t_type).max + 1)
        assert np.count_nonzero(table.t == 1) == len(lengths)

    @pytest.mark.parametrize("tau", [0, 1, 2])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_terminal_outcome_is_gathered_not_held(self, ragged, tau):
        # each access gathers Y_{t+tau} from the panel: the float64 bits of
        # the trajectories' outcomes, and no column of the table holds them
        panel = simulate_panel(make_d1(), 60, seed=[9, tau])
        if ragged:                 # lengths 3 to 5
            panel = panel_of([(tr.covariates[:3 + i % 3], tr.treatments[:3 + i % 3],
                               tr.outcomes[:3 + i % 3])
                              for i, tr in enumerate(panel.trajectories)])
        table = build_row_table(panel, tau)
        assert "y_term" not in vars(table)
        trajs = panel.trajectories
        want = np.array([trajs[i].outcomes[t + tau - 1]
                         for i, t in zip(table.traj_id.tolist(), table.t.tolist())])
        assert same_bits(table.y_term, want)

    def test_raw_tails_hand_values(self):
        table = build_row_table(hand_panel(), 1)
        assert np.array_equal(table.traj_id, [0, 0, 1, 1])
        assert np.array_equal(table.t, [1, 2, 1, 2])
        assert np.array_equal(table.x_tail, [[1, 2], [2, 3], [-1, -2], [-2, -3]])
        assert np.array_equal(table.a_obs, [[1, 0], [0, 1], [0, 1], [1, 0]])
        assert np.array_equal(table.aprev_tail, [[0, 1], [1, 0], [0, 0], [0, 1]])
        assert np.array_equal(table.yprev_tail,
                              [[0, 0.5], [0.5, 1.5], [0, -0.5], [-0.5, -1.5]])
        assert np.array_equal(table.y_term, [1.5, 2.5, -1.5, -2.5])
        assert np.array_equal(table.t[:, None] + np.arange(2), [[1, 2], [2, 3], [1, 2], [2, 3]])

    def test_horizon_and_offset_errors(self):
        with pytest.raises(ValueError, match="horizon too long"):
            build_row_table(hand_panel(), 3)
        table = build_row_table(hand_panel(), 1)
        with pytest.raises(ValueError, match="offset"):
            table.features(2)
        with pytest.raises(ValueError, match="offset"):
            table.frontier(2)

    def test_frontier_is_one_level_of_the_stacked_columns(self):
        table = build_row_table(hand_panel(), 1)
        x, a_prev, y_prev = table.frontier(1)
        assert np.array_equal(x, [2, 3, -2, -3])
        assert np.array_equal(a_prev, [1, 0, 0, 1]) and a_prev.dtype == float
        assert np.array_equal(y_prev, [0.5, 1.5, -0.5, -1.5])
        table = build_row_table(simulate_panel(make_d2(), 30, seed=5), 2)
        stacked = (table.yprev_tail, table.x_tail, table.aprev_tail)
        for j in range(3):
            got = table.frontier(j, ("y_prev", "x", "a_prev"))
            assert [g.tobytes() for g in got] == [s[:, j].tobytes() for s in stacked]

    def test_library_reads_the_frontier_one_level_at_a_time(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("stacked (N, tau + 1) frontier column built")
        monkeypatch.setattr(RowTable, "_stacked", refuse)
        d1 = make_d1()
        pair = benchmark_pair(2)
        table = build_row_table(simulate_panel(d1, 50, seed=7), 2)
        nz = oracle_nuisances(d1, pair)
        for kind in ("RA", "IPW", "DR"):
            build_pseudo_rows(table, nz, pair, kind)
        for suite in SUITE_NAMES:
            run_suite(suite, budget=2000)

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_holds_its_row_index_arms_and_outcome_only(self, tau):
        # traj_id, t and y_term at 8 bytes a row and a_obs at 8 per level;
        # a table that also held the (N, tau + 1) frontier columns and
        # absolute times held 8 * (3 + 5 * (tau + 1)) bytes a row
        table = build_row_table(simulate_panel(make_d1(), 400, seed=6), tau)
        held = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
        assert held <= 8 * (3 + (tau + 1)) * table.n_rows


    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0, 1, 2])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_blocks_have_the_bits_and_dtypes_of_one_block(self, ragged, tau, cpus, monkeypatch):
        # a table of at least _blocks._TABLE_MIN_ROWS rows fills its row
        # index, arms and outcome in row blocks on every usable CPU
        panel = simulate_panel(make_d1(), 300, seed=[7, tau])
        if ragged:                 # lengths 3 to 5, so blocks start mid-trajectory
            panel = panel_of([(tr.covariates[:3 + i % 3], tr.treatments[:3 + i % 3],
                               tr.outcomes[:3 + i % 3])
                              for i, tr in enumerate(panel.trajectories)])
        want = build_row_table(panel, tau)
        set_blocks(monkeypatch, cpus, table_rows=97)
        got = build_row_table(panel, tau)
        assert got.n_rows == want.n_rows > 3 * 97
        for name in ("traj_id", "t", "a_obs", "y_term"):
            assert same_bits(getattr(got, name), getattr(want, name)), name


class TestMakeSplit:
    def test_disabled_uses_everything(self):
        panel = simulate_panel(make_d1(), 12, seed=0)
        plan = make_split(panel, 2, enabled=False)
        assert not plan.enabled
        for name in plan.folds:
            assert np.array_equal(plan.fold(name), np.arange(12))

    def test_enabled_partitions_disjointly(self):
        panel = simulate_panel(make_d1(), 23, seed=0)
        plan = make_split(panel, 1, enabled=True, seed=4)
        parts = [plan.fold(name) for name in plan.folds]
        assert len(parts) == 4
        merged = np.concatenate(parts)
        assert np.array_equal(np.sort(merged), np.arange(23))
        assert merged.size == np.unique(merged).size

    def test_deterministic_and_seed_sensitive(self):
        panel = simulate_panel(make_d1(), 30, seed=0)
        a = make_split(panel, 1, enabled=True, seed=7)
        b = make_split(panel, 1, enabled=True, seed=7)
        c = make_split(panel, 1, enabled=True, seed=8)
        assert all(np.array_equal(a.fold(n), b.fold(n)) for n in a.folds)
        assert any(not np.array_equal(a.fold(n), c.fold(n)) for n in a.folds)

    def test_too_few_trajectories(self):
        panel = simulate_panel(make_d1(), 3, seed=0)
        with pytest.raises(ValueError, match="folds"):
            make_split(panel, 2, enabled=True, seed=0)


class TestFitResponseIterative:
    def test_tau_zero_equals_per_arm_regression(self):
        panel = simulate_panel(make_d1(), 200, seed=1)
        table = build_row_table(panel, 0)
        spec = RegressorSpec(feature_count=64, seed=5)
        models = fit_response_iterative(panel, (1,), 0, spec, table=table)
        mask = table.a_obs[:, 0] == 1
        direct = fit_regressor(spec, table.features(0)[mask], table.y_term[mask])
        grid = table.features(0)[:20]
        assert np.allclose(models[0].predict(grid), direct.predict(grid))

    def test_mini_discrete_matches_enumeration(self):
        dgp = make_mini_discrete()
        panel = dgp.simulate(50000, seed=21)
        codec = default_codec(panel)
        spec = RegressorSpec(kind="lookup-table")
        reps = {}
        for traj in panel.trajectories:
            reps.setdefault(float(traj.covariates[0, 0]), HistoryView(traj, 1))
        for suffix in ((0, 1), (1, 0)):
            models = fit_response_iterative(panel, suffix, 1, spec)
            exact0 = dgp.enumerate_response(suffix, 0)
            for x1 in (0.0, 1.0):
                got = float(models[0].predict(encode_history(reps[x1], codec)))
                assert abs(got - exact0[x1]) <= 0.02
            exact1 = dgp.enumerate_response(suffix, 1)
            table = build_row_table(panel, 1, codec)
            on_arm = table.a_obs[:, 1] == suffix[1]
            pred1 = models[1].predict(table.features(1)[on_arm])
            truth1 = np.vectorize(exact1.get)(table.x_tail[on_arm, 1])
            assert np.max(np.abs(pred1 - truth1)) <= 1e-12

    def test_error_names_empty_level(self):
        X = np.random.default_rng(0).normal(size=(20, 3, 1))
        A = np.zeros((20, 3), dtype=int)
        Y = np.random.default_rng(1).normal(size=(20, 3))
        panel = panel_from_arrays(X, A, Y, 2)
        with pytest.raises(ValueError, match="level 1"):
            fit_response_iterative(panel, (0, 1), 1, RegressorSpec())

    def test_small_restriction_warns(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2, 1))
        A = np.zeros((40, 2), dtype=int)
        A[:5, 0] = 1
        Y = rng.normal(size=(40, 2))
        panel = panel_from_arrays(X, A, Y, 2)
        with pytest.warns(RuntimeWarning, match="only 5 training rows"):
            fit_response_iterative(panel, (1,), 0, RegressorSpec(feature_count=8))

    def test_d1_level0_accuracy_with_tuned_bandwidth(self):
        d1 = make_d1()
        pair = benchmark_pair(1)
        panel = simulate_panel(d1, 5000, seed=11)
        table = build_row_table(panel, 1)
        models = fit_response_iterative(panel, pair.a_seq, 1, TUNED_D1_SPEC,
                                        table=table)
        truth = oracle_nuisances(d1, pair).mu("a", 0, table)
        rmse = float(np.sqrt(np.mean((models[0].predict(table.features(0)) - truth) ** 2)))
        assert rmse <= 0.15

    def test_split_restricts_training_rows(self):
        panel = simulate_panel(make_d2(), 120, seed=9)
        split = make_split(panel, 1, enabled=True, seed=3)
        spec = RegressorSpec(feature_count=32, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            models = fit_response_iterative(panel, (1, 1), 1, spec, split=split)
        table = build_row_table(panel, 1)
        mask = table.traj_mask(split.fold("mu_1")) & (table.a_obs[:, 1] == 1)
        direct = fit_regressor(spec, table.features(1)[mask], table.y_term[mask])
        grid = table.features(1)[:25]
        assert np.allclose(models[1].predict(grid), direct.predict(grid))


class TestFitHistoryAdjustment:
    def test_unobserved_path_raises(self):
        X = np.random.default_rng(0).normal(size=(30, 2, 1))
        A = np.zeros((30, 2), dtype=int)
        Y = np.random.default_rng(1).normal(size=(30, 2))
        panel = panel_from_arrays(X, A, Y, 2)
        pair = InterventionPair((0, 1), (1, 0))
        with pytest.raises(ValueError, match="intervention path unobserved"):
            fit_history_adjustment(panel, pair, 1, RegressorSpec())

    def test_d1_matches_path_conditioned_rollouts(self):
        d1 = make_d1()
        pair = benchmark_pair(1)
        panel = simulate_panel(d1, 5000, seed=31)
        models = fit_history_adjustment(panel, pair, 1, TUNED_D1_SPEC)
        test_panel = simulate_panel(d1, 40, seed=32)
        histories = [HistoryView(traj, 2) for traj in test_panel.trajectories]
        codec = default_codec(panel)
        feats = np.array([encode_history(h, codec) for h in histories])
        fitted = models["a"].predict(feats)
        truth = np.array([
            oracle_history_adjustment(d1, h, pair.a_seq, n_mc=150000, seed=[77, i]).value
            for i, h in enumerate(histories)
        ])
        rmse = float(np.sqrt(np.mean((fitted - truth) ** 2)))
        assert rmse <= 0.2

    def test_history_free_outcome_gives_constant(self):
        dgp = StructuralDGP(
            name="const-y",
            f_x=lambda x, a, y: 0.5 * x,
            f_a=lambda x, a_prev, y_prev: 0.5 * x,
            f_y=lambda x, a, y_prev: np.full_like(np.asarray(x, dtype=float), 0.7),
        )
        panel = simulate_panel(dgp, 10000, seed=13)
        pair = benchmark_pair(1)
        spec = RegressorSpec(ridge_lambda="auto")
        models = fit_history_adjustment(panel, pair, 1, spec)
        table = build_row_table(panel, 1)
        for key in ("a", "b"):
            pred = models[key].predict(table.features(0)[::50])
            assert np.max(np.abs(pred - 0.7)) <= 0.05


class TestFitPropensities:
    def test_randomized_design_predicts_half(self):
        for seed in (5, 8):
            panel = simulate_panel(make_d3(0.0), 5000, seed=seed)
            model = fit_propensities(panel, ClassifierSpec())
            table = build_row_table(panel, 0)
            probs = model.predict_proba(table.features(0))[:, 1]
            assert np.max(np.abs(probs - 0.5)) <= 0.03

    def test_d2_decile_calibration(self):
        panel = simulate_panel(make_d2(), 10000, seed=5)
        model = fit_propensities(panel, ClassifierSpec())
        table = build_row_table(panel, 0)
        probs = model.predict_proba(table.features(0))[:, 1]
        taken = table.a_obs[:, 0] == 1
        edges = np.quantile(probs, np.linspace(0.0, 1.0, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            cell = (probs >= lo) & (probs <= hi)
            if cell.sum() > 50:
                assert abs(probs[cell].mean() - taken[cell].mean()) <= 0.05

    def test_probabilities_sum_to_one(self):
        panel = simulate_panel(make_d2(), 200, seed=0)
        model = fit_propensities(panel, ClassifierSpec(feature_count=16))
        table = build_row_table(panel, 0)
        P = model.predict_proba(table.features(0))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_single_class_panel_raises(self):
        X = np.random.default_rng(0).normal(size=(50, 2, 1))
        A = np.zeros((50, 2), dtype=int)
        Y = np.random.default_rng(1).normal(size=(50, 2))
        panel = panel_from_arrays(X, A, Y, 2)
        with pytest.raises(ValueError, match="single-class"):
            fit_propensities(panel, ClassifierSpec())


class TestClippedPropensity:
    """A fitted propensity model's queries through NuisanceSet clipping."""

    @staticmethod
    def fitted_set(panel, model, clip_eps):
        return NuisanceSet(pair=benchmark_pair(1), tau=1, codec=default_codec(panel),
                           clip_eps=clip_eps, split=make_split(panel, 1, enabled=False),
                           propensity_model=model)

    def test_clamps_extreme_and_keeps_interior(self):
        d1 = make_d1()
        panel = simulate_panel(d1, 2000, seed=17)
        model = fit_propensities(panel, ClassifierSpec())
        table = build_row_table(panel, 1, default_codec(panel))
        clipped, raw = self.fitted_set(panel, model, 0.05).propensity(1, 0, table)
        assert np.array_equal(raw, model.predict_proba(table.features(1))[:, 0])
        assert np.any(raw < 0.05)
        assert np.all(clipped[raw < 0.05] == 0.05)
        assert np.all(clipped[raw > 0.95] == 0.95)
        inside = (raw >= 0.05) & (raw <= 0.95)
        assert inside.any() and np.array_equal(clipped[inside], raw[inside])

    def test_eps_validation(self):
        panel = simulate_panel(make_d1(), 100, seed=0)
        model = fit_propensities(panel, ClassifierSpec(feature_count=8))
        for bad in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError, match="clip_eps"):
                self.fitted_set(panel, model, bad)


class TestNuisanceSetOracle:
    def test_response_delegates_exactly(self):
        d1 = make_d1()
        pair = benchmark_pair(2)
        panel = simulate_panel(d1, 80, seed=23)
        table = build_row_table(panel, 2)
        ons = oracle_nuisances(d1, pair)
        for j in (0, 1, 2):
            want = d1.response_form.capo(table.x_tail[:, j], 2 - j, pair.a_seq[-1],
                                         d1.x_noise_std)
            assert np.array_equal(ons.mu("a", j, table), want)

    def test_propensity_delegates_exactly(self):
        d1 = make_d1()
        pair = benchmark_pair(1)
        panel = simulate_panel(d1, 80, seed=24)
        table = build_row_table(panel, 1)
        ons = oracle_nuisances(d1, pair, clip_eps=0.01)
        a_prev = table.aprev_tail[:, 0].copy()
        a_prev[table.t == 1] = d1.a0
        want_raw = expit(d1.f_a(table.x_tail[:, 0], a_prev, table.yprev_tail[:, 0]))
        clipped, raw = ons.propensity(0, 1, table)
        assert np.array_equal(raw, want_raw)
        assert np.array_equal(clipped, np.clip(want_raw, 0.01, 0.99))

    def test_history_adjustment_is_deterministic(self):
        # the oracle set has no history surfaces for encoded rows, which cannot
        # carry a full history; the Monte-Carlo oracle itself is seeded and exact
        d1 = make_d1()
        pair = benchmark_pair(1)
        panel = simulate_panel(d1, 5, seed=25)
        with pytest.raises(ValueError, match="full histories"):
            fit_meta("PI-HA", panel, pair, oracle_nuisances(d1, pair))
        histories = [HistoryView(traj, 2) for traj in panel.trajectories[:3]]

        def values():
            return [oracle_history_adjustment(d1, h, pair.a_seq, n_mc=4000,
                                              seed=[1299721, i]).value
                    for i, h in enumerate(histories)]
        assert values() == values()

    def test_requires_closed_form(self):
        with pytest.raises(ValueError, match="closed-form"):
            oracle_nuisances(make_mini_discrete(), benchmark_pair(1))

    @pytest.mark.parametrize("mode", ["oracle", "injected"])
    @pytest.mark.parametrize("seqs,where", [(((0, 5), (1, 1)), r"a_seq\[1\] is arm 5"),
                                            (((1, 0), (2, 0)), r"b_seq\[0\] is arm 2")])
    def test_oracle_and_injected_propensities_refuse_arms_past_one(self, mode, seqs, where):
        # both answered P(A = 0) for every arm other than 1
        pair, codec = InterventionPair(*seqs), FeatureCodec(max_len=5, treatment_arity=6)
        fitted = NuisanceSet(pair=pair, tau=1, codec=codec, clip_eps=0.01,
                             split=SplitPlan(False, 1, {}))
        fitted.corrupted(response=1.0)          # fitted values and responses take any arm
        with pytest.raises(ValueError, match=rf"^{where}: oracle and injected propensities "
                                             r"answer arms 0 and 1 only$"):
            if mode == "oracle":
                oracle_nuisances(make_d1(), pair, codec=codec)
            else:
                fitted.corrupted(propensity=0.3)

    def test_corruption_overrides(self):
        d2 = make_d2()
        pair = benchmark_pair(1)
        panel = simulate_panel(d2, 50, seed=26)
        table = build_row_table(panel, 1)
        ons = oracle_nuisances(d2, pair)
        bad = ons.corrupted(propensity=0.5, response=0.0)
        clipped, raw = bad.propensity(0, 1, table)
        assert np.all(raw == 0.5) and np.all(clipped == 0.5)
        assert np.all(bad.mu("a", 1, table) == 0.0)
        # original set unchanged
        assert not np.all(ons.propensity(0, 1, table)[1] == 0.5)

    def test_missing_models_raise(self):
        d2 = make_d2()
        pair = benchmark_pair(0)
        panel = simulate_panel(d2, 200, seed=27)
        ns = fit_nuisances(panel, pair, need=("propensity",))
        table = build_row_table(panel, 0)
        with pytest.raises(ValueError, match="missing response"):
            ns.mu("a", 0, table)
        with pytest.raises(ValueError, match="fitted history models"):
            fit_meta("PI-HA", panel, pair, ns)

    def test_clip_eps_validation(self):
        with pytest.raises(ValueError, match="clip_eps"):
            oracle_nuisances(make_d1(), benchmark_pair(0), clip_eps=0.7)


def params_equal(got, want):
    return got.params.keys() == want.params.keys() and all(
        np.array_equal(got.params[key], value) for key, value in want.params.items())


def params_close(got, want, rtol=1e-10):
    """The map and penalty bit for bit; beta, phi_mean and intercept within
    ``rtol``, as two summation orders of one gram leave them."""
    fitted = ("beta", "phi_mean", "intercept")
    return got.params.keys() == want.params.keys() and all(
        np.allclose(got.params[key], value, rtol=rtol, atol=0.0) if key in fitted
        else np.array_equal(got.params[key], value) for key, value in want.params.items())


class TestOneMapPerLevel:
    """fit_nuisances maps each level's rows once, grouped by (time, arm): a
    level's fit takes its gram from the group sums, so it matches fitting
    separately mapped rows up to the gram's summation order, and every
    mu-hat keeps the bits of the stored models' predictions."""

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_fits_and_fit_time_mu_have_the_bits_of_separate_maps(self, tau):
        panel = simulate_panel(make_d2(), 400, seed=41)     # every path observed
        pair = benchmark_pair(tau)
        spec = RegressorSpec(feature_count=128, bandwidth=1.5, ridge_lambda=1e-2)
        table = build_row_table(panel, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ns = fit_nuisances(panel, pair, regressor_spec=spec, need=("response", "history"))
            history = fit_history_adjustment(panel, pair, tau, spec)
        for arm, seq in (("a", pair.a_seq), ("b", pair.b_seq)):
            target = table.y_term
            for j in range(tau, -1, -1):
                mask = table.a_obs[:, j] == seq[j]
                want = fit_regressor(spec, table.features(j)[mask], target[mask])
                got = ns.response_models[arm][j]
                assert params_close(got, want)
                target = got.predict(table.features(j))
                assert ns.mu(arm, j, table) is ns.mu_values.values[arm, j]   # kept at fit
                assert np.array_equal(ns.mu(arm, j, table), target)
            # a history path mask is no union of (time, arm) groups: its fit
            # gathers its rows, with the bits of a separate map; at tau = 0
            # the history adjustment is the level-0 response fit
            assert (params_equal if tau > 0 else params_close)(ns.history_models[arm],
                                                                 history[arm])
            assert (ns.history_models[arm] is ns.response_models[arm][0]) == (tau == 0)

    def test_equal_rows_share_one_design(self, monkeypatch):
        # at tau = 2 both arms fix A_(t+1) = 0, so level 1's two fits read
        # the same rows and share one design: 5 designs for 6 fits, each fit
        # with the bits of a fit on a fresh map
        panel = simulate_panel(make_d2(), 400, seed=41)
        pair = benchmark_pair(2)
        assert pair.a_seq[1] == pair.b_seq[1] and pair.a_seq[0] != pair.b_seq[0]
        spec = RegressorSpec(feature_count=64, bandwidth=1.5, ridge_lambda=1e-2)
        built, original = [0], RidgeDesign.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            original(self, *args, **kwargs)
        monkeypatch.setattr(RidgeDesign, "__init__", counting)
        ns = fit_nuisances(panel, pair, regressor_spec=spec, need=("response",))
        assert built[0] == 5
        table = build_row_table(panel, 2)
        for arm, seq in (("a", pair.a_seq), ("b", pair.b_seq)):
            target = table.y_term
            for j in (2, 1, 0):
                mask = table.a_obs[:, j] == seq[j]
                fresh = position_map(spec, panel, table.codec)
                want = fresh.fit(spec, target[mask], rows=table.positions(j)[mask])
                assert params_equal(ns.response_models[arm][j], want)
                target = want.predict(table.features(j))


class TestLookupTableSpecs:
    """Under lookup-table specs every fit reads the rows themselves: the
    nuisances and learners are the models of ``fit_regressor`` on the
    gathered rows of the table."""

    def test_nuisances_and_learners_match_fits_on_gathered_rows(self):
        panel = make_mini_discrete().simulate(2000, seed=4)
        pair = benchmark_pair(1)
        ns = fit_nuisances(panel, pair, regressor_spec=LOOKUP_TABLE,
                           classifier_spec=ClassifierSpec(feature_count=16))
        table = build_row_table(panel, 1)
        for arm, seq in (("a", pair.a_seq), ("b", pair.b_seq)):
            target = table.y_term
            for j in (1, 0):
                mask = table.a_obs[:, j] == seq[j]
                want = fit_regressor(LOOKUP_TABLE, table.features(j)[mask], target[mask])
                assert ns.response_models[arm][j].params == want.params
                target = want.predict(table.features(j))
            mask = np.all(table.a_obs == np.asarray(seq), axis=1)
            want = fit_regressor(LOOKUP_TABLE, table.features(0)[mask], table.y_term[mask])
            assert ns.history_models[arm].params == want.params
        for kind in LEARNER_KINDS:
            model = fit_meta(kind, panel, pair, ns, LOOKUP_TABLE)
            if kind == "PI-HA":
                assert model.arm_models == ns.history_models
                continue
            if kind == "PI-RA":
                assert model.arm_models == {arm: ns.response_models[arm][0] for arm in "ab"}
                continue
            rows = build_pseudo_rows(table, ns, pair, "DR" if kind == "IVW-DR" else kind)
            weight = None
            if kind == "IVW-DR":
                inv = 1.0 / model.v_model.predict(rows.features)
                weight = inv / inv.mean()
            want = fit_regressor(LOOKUP_TABLE, rows.features, rows.value, weight)
            assert model.second_stage.params == want.params, kind


class TestFitBoundary:
    def test_invalid_panel_rejected_naming_the_trajectory(self):
        # a panel is checked when built, so no fit can receive an invalid one
        panel = simulate_panel(make_d1(), 12, seed=34)
        Y = panel.Y.copy()
        Y[panel.offsets[7] + 2] = np.nan
        with pytest.raises(ValueError, match="trajectory 7, t 3: non-finite covariate or outcome"):
            Panel(panel.X, panel.A, Y, panel.offsets, treatment_arity=2)


class TestBundleSerialization:
    def test_fitted_round_trip(self, tmp_path):
        panel = simulate_panel(make_d2(), 400, seed=29)
        pair = benchmark_pair(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ns = fit_nuisances(panel, pair,
                               regressor_spec=RegressorSpec(feature_count=32),
                               classifier_spec=ClassifierSpec(feature_count=16))
        path = tmp_path / "bundle.json"
        save_nuisances(ns, path)
        back = load_nuisances(path)
        table = build_row_table(panel, 1)
        for arm in ("a", "b"):
            for j in (0, 1):
                assert np.array_equal(ns.mu(arm, j, table), back.mu(arm, j, table))
        assert np.array_equal(ns.propensity(0, 1, table)[1],
                              back.propensity(0, 1, table)[1])
        feats = table.features(0)
        for arm in ("a", "b"):
            assert np.array_equal(ns.history_models[arm].predict(feats),
                                  back.history_models[arm].predict(feats))

    def test_oracle_round_trip(self, tmp_path):
        ns = oracle_nuisances(make_d1(), benchmark_pair(1))
        path = tmp_path / "oracle.json"
        save_nuisances(ns, path)
        back = load_nuisances(path)
        assert back.oracle_mode
        panel = simulate_panel(make_d1(), 40, seed=30)
        table = build_row_table(panel, 1)
        assert np.array_equal(ns.mu("a", 0, table), back.mu("a", 0, table))
        assert np.array_equal(ns.propensity(1, 0, table)[0],
                              back.propensity(1, 0, table)[0])
        # bundles written before the history-adjustment budget was dropped
        old = nuisances_from_dict({**nuisances_to_dict(ns), "oracle_history_mc": 4000})
        assert old.oracle_mode
        assert np.array_equal(ns.mu("a", 0, table), old.mu("a", 0, table))

    def test_format_version(self):
        panel = simulate_panel(make_d1(), 200, seed=33)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted = fit_nuisances(panel, benchmark_pair(1),
                                   regressor_spec=RegressorSpec(feature_count=16),
                                   classifier_spec=ClassifierSpec(feature_count=8, l2=1e-2))
        for ns in (fitted, oracle_nuisances(make_d1(), benchmark_pair(1))):
            state = nuisances_to_dict(ns)
            assert state["format_version"] == 3
            # a bundle without the version key is read as format 1, which a
            # format-3 state is not: it raises instead of loading other bits
            legacy = {k: v for k, v in state.items() if k != "format_version"}
            with pytest.raises(ValueError):
                nuisances_from_dict(legacy)
            with pytest.raises(ValueError, match="unknown format_version 4"):
                nuisances_from_dict({**state, "format_version": 4})
            for key in ("pair", "split", "dgp" if ns.oracle_mode else "history_models"):
                broken = {k: v for k, v in state.items() if k != key}
                with pytest.raises(ValueError, match=f"lacks the required key '{key}'"):
                    nuisances_from_dict(broken)
        with pytest.raises(ValueError, match="required key 'oracle_mode'"):
            nuisances_from_dict({})
        with pytest.raises(ValueError, match="must be a JSON object"):
            nuisances_from_dict([])
