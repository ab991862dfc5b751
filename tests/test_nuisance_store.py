"""Tests for the position maps and the fitted values of a NuisanceSet.

Every row a seed job touches is a panel position: a fitted set keeps its
models' values on the training panel (mu-hat at the training table's rows,
class probabilities at every position), and every regressor fit and
prediction reads one row map of a panel's positions.  These tests
pin which queries the fitted values answer, how many rows a seed job maps
and how many maps it holds, and that the gathers change no result bit.
"""

import collections
import dataclasses
import threading
import warnings
import weakref

import numpy as np
import pytest

from tvcate import harness as harness_module
from tvcate import learners as learners_module
from tvcate import nuisance as nuisance_module
from tvcate.dgp import benchmark_pair, make_d1, simulate_panel
from tvcate.harness import ExperimentConfig, _seed_job
from tvcate.learners import (ClassifierSpec, FittedClassifier, FittedRegressor,
                             RegressorSpec, RidgeDesign, RowMap, fit_regressor,
                             random_cosine_map)
from tvcate.meta import LEARNER_KINDS, fit_meta
from tvcate.nuisance import (build_row_table, fit_nuisances, fit_propensities,
                             load_nuisances, make_split, oracle_nuisances,
                             save_nuisances)
from tvcate.panel import FeatureCodec, Panel, encode_block

PAIR = benchmark_pair(1)
SECOND_STAGE = RegressorSpec(feature_count=32, ridge_lambda=1.0)


def tiny_fit(panel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_nuisances(panel, PAIR,
                             regressor_spec=RegressorSpec(feature_count=32,
                                                          bandwidth=1.5,
                                                          ridge_lambda=1e-2),
                             classifier_spec=ClassifierSpec(feature_count=16, l2=1e-2),
                             clip_eps=0.03)


@pytest.fixture(scope="module")
def panels():
    d1 = make_d1()
    return simulate_panel(d1, 400, seed=31), simulate_panel(d1, 60, seed=32)


@pytest.fixture
def calls(monkeypatch):
    """Counts of FittedRegressor.predict and FittedClassifier.predict_proba."""
    counts = {"predict": 0, "predict_proba": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(FittedRegressor, "predict")
    counting(FittedClassifier, "predict_proba")
    return counts


def query_all(ns, table):
    """Every mu and propensity query the weighting learners make."""
    for arm in ("a", "b"):
        for j in range(ns.tau + 1):
            ns.mu(arm, j, table)
    for j, a_value in enumerate(PAIR.a_seq + PAIR.b_seq):
        ns.propensity(j % (ns.tau + 1), a_value, table)


class TestSharedSetChangesNoBit:
    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_after_the_other_learners_equals_alone(self, panels, kind):
        train, test = panels
        feats = build_row_table(test, 1).features(0)
        shared = tiny_fit(train)
        for other in LEARNER_KINDS:
            if other != kind:
                fit_meta(other, train, PAIR, shared, second_stage_spec=SECOND_STAGE)
        assert shared.mu_values is not None and shared.pi_values is not None
        got = fit_meta(kind, train, PAIR, shared,
                       second_stage_spec=SECOND_STAGE).predict(feats)
        alone = fit_meta(kind, train, PAIR, tiny_fit(train),
                         second_stage_spec=SECOND_STAGE).predict(feats)
        assert np.array_equal(got, alone)

    def test_seed_job_rows_equal_one_propensity_fit_per_tau(self):
        # a job over one tau fits its own classifier; the two-tau job shares one
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1),
                               regressor_features=32, second_stage_features=32,
                               classifier_l2=1e-2)
        rows, notes = _seed_job(cfg, 0)
        per_tau = [_seed_job(dataclasses.replace(cfg, taus=(tau,)), 0)
                   for tau in cfg.taus]
        assert rows == [row for job_rows, _ in per_tau for row in job_rows]
        assert notes == sorted({n for _, job_notes in per_tau for n in job_notes})


ORDERS = {
    "default": LEARNER_KINDS,
    "reversed": LEARNER_KINDS[::-1],
    "IVW-DR first": ("IVW-DR",) + tuple(k for k in LEARNER_KINDS if k != "IVW-DR"),
    "RA alone": ("RA",),
}


@pytest.fixture(scope="module")
def alone(panels):
    """Each learner's test predictions from a freshly fitted set used alone."""
    train, test = panels
    feats = build_row_table(test, 1).features(0)
    return {kind: fit_meta(kind, train, PAIR, tiny_fit(train),
                           second_stage_spec=SECOND_STAGE).predict(feats)
            for kind in LEARNER_KINDS}


class TestLearnerOrders:
    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    def test_every_learner_equals_its_fresh_set_alone(self, panels, alone, order):
        train, test = panels
        feats = build_row_table(test, 1).features(0)
        shared = tiny_fit(train)
        for kind in order:
            got = fit_meta(kind, train, PAIR, shared,
                           second_stage_spec=SECOND_STAGE).predict(feats)
            assert np.array_equal(got, alone[kind]), kind

    @pytest.mark.parametrize("features", [32, 256])
    def test_position_maps_change_no_bit(self, panels, features):
        # the harness path: the second stages gather from one map of the
        # training positions (at 256 features the variance model shares it),
        # and the predictions from one map of the test positions per spec
        train, test = panels
        spec = dataclasses.replace(SECOND_STAGE, feature_count=features)
        shared = tiny_fit(train)
        positions = RowMap(spec, train.encoded(shared.codec))
        table = build_row_table(test, 1, shared.codec)
        test_maps = {spec: RowMap(spec, test.encoded(shared.codec))}
        for kind in ORDERS["reversed"]:
            model = fit_meta(kind, train, PAIR, shared, second_stage_spec=spec,
                             positions=positions)
            want = fit_meta(kind, train, PAIR, tiny_fit(train),
                            second_stage_spec=spec).predict(table.features(0))
            drawn = (shared.response_models["a"][0].spec
                     if kind in ("PI-HA", "PI-RA") else spec)
            if drawn not in test_maps:
                test_maps[drawn] = RowMap(drawn, test.encoded(shared.codec))
            got = model.predict(test_maps[drawn], table.positions(0))
            assert np.array_equal(got, want), kind


class TestPositionArrays:
    """Every encoded history, mu-hat and pi-hat of a fitted set on its
    training panel is a gather with the bits of the per-table path: encoding
    the table's rows, and evaluating the models at them."""

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_gathers_have_the_bits_of_the_per_table_path(self, panels, tau):
        train, _ = panels                   # d1: every trajectory has length 5
        pair = benchmark_pair(tau)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ns = fit_nuisances(train, pair,
                               regressor_spec=RegressorSpec(bandwidth=1.5,
                                                            ridge_lambda=1e-2),
                               classifier_spec=ClassifierSpec(l2=1e-2), clip_eps=0.03,
                               need=("response", "propensity"))
        table = build_row_table(train, tau, ns.codec)
        X, A, Y = train.dense()
        T = X.shape[1]
        for j in range(tau + 1):
            encoded = np.empty((table.n_rows, ns.codec.width))
            for t in range(1, T - tau + 1):
                encoded[t - 1::T - tau] = encode_block(X, A, Y, t + j, ns.codec)
            assert np.array_equal(table.features(j), encoded)
            for arm in ("a", "b"):
                want = ns.response_models[arm][j].predict(encoded)
                assert np.array_equal(ns.mu(arm, j, table), want)
            proba = ns.propensity_model.predict_proba(encoded)
            for a_value in (0, 1):
                assert np.array_equal(ns.propensity(j, a_value, table)[1],
                                      proba[:, a_value])


@pytest.fixture
def one_map_at_a_time(monkeypatch):
    """Fails any cosine map of at least ``limit[0]`` rows built while another
    such map is alive, and any ridge design built beside another: a seed job
    holds one map of the training positions, and that map one design."""
    maps, designs, limit = weakref.WeakSet(), weakref.WeakSet(), [1]
    map_init, design_init = RowMap.__init__, RidgeDesign.__init__

    def tracked_map(self, *args, **kwargs):
        map_init(self, *args, **kwargs)
        if self.n_rows >= limit[0]:
            assert not [m for m in maps if m.n_rows >= limit[0]]
        maps.add(self)

    def tracked_design(self, *args, **kwargs):
        assert not list(designs)
        design_init(self, *args, **kwargs)
        designs.add(self)

    monkeypatch.setattr(RowMap, "__init__", tracked_map)
    monkeypatch.setattr(RidgeDesign, "__init__", tracked_design)
    return limit


@pytest.fixture
def map_rows(monkeypatch):
    """Rows mapped by ``_cosine_features``, counted by (features, rows)."""
    maps = collections.Counter()
    original = learners_module._cosine_features

    def counting(X, W, b, *rest):
        maps[W.shape[1], X.shape[0]] += 1
        return original(X, W, b, *rest)
    monkeypatch.setattr(learners_module, "_cosine_features", counting)
    return maps


class TestHeldDesign:
    def test_one_map_per_key_and_no_design_after_ivw_dr(self, panels, map_rows,
                                                        one_map_at_a_time):
        train, _ = panels
        ns = tiny_fit(train)
        n_positions, n_rows = train.X.shape[0], build_row_table(train, 1).n_rows
        one_map_at_a_time[0] = n_positions
        # with a map the variance model shares, the uniform fits share one
        # held design, IVW-DR's weighted fit drops it, and no row is mapped
        spec = dataclasses.replace(SECOND_STAGE, feature_count=256)
        positions = RowMap(spec, train.encoded(ns.codec))
        map_rows.clear()
        designs = set()
        for kind in ("RA", "IPW", "DR"):
            fit_meta(kind, train, PAIR, ns, second_stage_spec=spec, positions=positions)
            designs.add(id(positions._design))
        assert len(designs) == 1
        fit_meta("IVW-DR", train, PAIR, ns, second_stage_spec=spec, positions=positions)
        assert positions._design is None and not map_rows
        positions = None
        # without a map, IVW-DR maps its pseudo-outcome rows once per map,
        # one map at a time: once when the variance model shares the second
        # stage's map (256 features), once per map when it does not
        for features, want in ((256, {(256, n_rows): 1}),
                               (32, {(256, n_rows): 1, (32, n_rows): 1})):
            map_rows.clear()
            fit_meta("IVW-DR", train, PAIR, ns,
                     second_stage_spec=dataclasses.replace(SECOND_STAGE,
                                                           feature_count=features))
            assert map_rows == want
        # with a map the variance model does not draw, it maps the
        # pseudo-outcome rows beside the handed-in map, which the weighted
        # fit gathers from once the variance model's map is gone
        positions = RowMap(SECOND_STAGE, train.encoded(ns.codec))
        map_rows.clear()
        fit_meta("IVW-DR", train, PAIR, ns, second_stage_spec=SECOND_STAGE,
                 positions=positions)
        assert positions._design is None
        assert map_rows == {(256, n_rows): 1}

    def test_seed_job_drops_each_horizons_design(self, one_map_at_a_time):
        # IPW never drops its design, and the plug-in model refers to the
        # set; no two maps of the training positions or designs coexist
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1),
                               learners=("IPW", "PI-RA"), regressor_features=32,
                               second_stage_features=32, classifier_l2=1e-2)
        one_map_at_a_time[0] = 2500          # the training positions
        _seed_job(cfg, 0)

    def test_seed_job_map_rows(self, monkeypatch):
        # d1 with 500 training and 100 test trajectories of length 5: 2500
        # training and 500 test positions, each mapped once per map for
        # every tau and learner; the classifier maps its training rows to
        # fit, and every position again to evaluate them
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1, 2),
                               classifier_l2=1e-2)
        names = {}
        for name, features, bandwidth in (
                ("classifier", 64, 2.0),
                ("regressor", cfg.regressor_features, cfg.regressor_bandwidth),
                ("second stage", cfg.second_stage_features, cfg.second_stage_bandwidth)):
            W, _ = random_cosine_map(FeatureCodec(max_len=5).width, features, bandwidth, 0)
            names[W.tobytes()] = name
        counts = collections.Counter()
        original = learners_module._cosine_features

        def counting(X, W, b, *rest):
            counts[names[W.tobytes()], X.shape[0]] += 1
            return original(X, W, b, *rest)
        monkeypatch.setattr(learners_module, "_cosine_features", counting)
        _seed_job(cfg, 0)
        assert counts == {("classifier", 2500): 2,
                          ("regressor", 2500): 1, ("regressor", 500): 1,
                          ("second stage", 2500): 1, ("second stage", 500): 1}

    def test_seed_job_gram_rows(self, monkeypatch):
        # every uniform row set of the job is a union of (time, arm) groups of
        # the training positions: each of the two maps sums its groups once,
        # and only IVW-DR's weighted fits and the history-path fits at
        # tau >= 1 fill grams from their rows
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1, 2),
                               classifier_l2=1e-2)
        train = simulate_panel(make_d1(), cfg.n_train, seed=[0, 10])
        T = train.lengths().max()
        weighted = sum(train.n * (T - tau) for tau in cfg.taus)
        history = 0
        for tau in cfg.taus[1:]:
            table, pair = build_row_table(train, tau), benchmark_pair(tau)
            seqs = {pair.a_seq, pair.b_seq}
            history += sum(int(np.all(table.a_obs == np.asarray(seq), axis=1).sum())
                           for seq in seqs)
        rows, lock = [0], threading.Lock()
        original = learners_module._gram

        def counting(phi, *args):           # on block threads too
            with lock:
                rows[0] += phi.shape[0]
            return original(phi, *args)
        monkeypatch.setattr(learners_module, "_gram", counting)
        _seed_job(cfg, 0)
        assert rows[0] == 2 * train.A.size + weighted + history

    def test_split_fits_gather_with_the_bits_of_fit_regressor(self, panels):
        # fold masks are no unions of (time, arm) groups: every fit gathers
        # its rows from the grouped map
        train, _ = panels
        spec = RegressorSpec(feature_count=64, bandwidth=1.5, ridge_lambda=1e-2)
        split = make_split(train, 1, enabled=True, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ns = fit_nuisances(train, PAIR, regressor_spec=spec, split=split,
                               need=("response", "history"))
        table = build_row_table(train, 1)
        for arm, seq in (("a", PAIR.a_seq), ("b", PAIR.b_seq)):
            target = table.y_term
            for j in (1, 0):
                mask = table.traj_mask(split.fold(f"mu_{j}")) & (table.a_obs[:, j] == seq[j])
                got = ns.response_models[arm][j]
                want = fit_regressor(spec, table.features(j)[mask], target[mask])
                assert all(np.array_equal(got.params[key], value)
                           for key, value in want.params.items())
                target = got.predict(table.features(j))
            mask = (table.traj_mask(split.fold("mu_0"))
                    & np.all(table.a_obs == np.asarray(seq), axis=1))
            want = fit_regressor(spec, table.features(0)[mask], table.y_term[mask])
            assert all(np.array_equal(ns.history_models[arm].params[key], value)
                       for key, value in want.params.items())

    def test_zero_lambda_singular_second_stage_raises(self):
        # 4 trajectories of 5 rows against 64 features: a singular gram
        d1, pair = make_d1(), benchmark_pair(0)
        panel = simulate_panel(d1, 4, seed=3)
        ns = oracle_nuisances(d1, pair)
        spec = RegressorSpec(feature_count=64, ridge_lambda=0.0)
        positions = RowMap(spec, panel.encoded(ns.codec))
        for kind in ("DR", "IPW"):          # IPW reuses the design DR built
            for held in (None, positions):
                with pytest.raises(ValueError, match="singular system with ridge_lambda=0"):
                    fit_meta(kind, panel, pair, ns, second_stage_spec=spec,
                             positions=held)
        assert positions._design is not None

    def test_fit_time_mu_survives_the_shared_classifier(self, monkeypatch):
        sets = []
        original = harness_module.fit_nuisances

        def recording(*args, **kwargs):
            ns = original(*args, **kwargs)
            sets.append((ns, dict(ns.mu_values.values)))
            return ns
        monkeypatch.setattr(harness_module, "fit_nuisances", recording)
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(1, 2),
                               learners=("DR",), regressor_features=32,
                               second_stage_features=32, classifier_l2=1e-2)
        _seed_job(cfg, 0)
        (first, at_fit), (second, _) = sets
        assert first.propensity_model is second.propensity_model
        assert first.pi_values.values is second.pi_values.values   # one evaluation
        assert sorted(at_fit) == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        for key, values in at_fit.items():
            assert first.mu_values.values[key] is values


class TestStoreContract:
    def test_second_table_from_the_same_source_reuses(self, panels, calls):
        train, _ = panels
        ns = tiny_fit(train)
        first = build_row_table(train, 1, ns.codec)
        second = build_row_table(train, 1, ns.codec)
        before = dict(calls)
        # the fit kept mu-hat at both levels and pi-hat at every position
        query_all(ns, first)
        query_all(ns, second)
        assert calls == before
        assert ns.mu("a", 1, second) is ns.mu("a", 1, first)
        assert np.array_equal(ns.propensity(1, 0, second)[1],
                              ns.pi_values.values[second.positions(1), 0])

    def test_other_sources_evaluate_afresh(self, panels, calls):
        train, test = panels
        ns = tiny_fit(train)
        query_all(ns, build_row_table(train, 1, ns.codec))
        sources = [build_row_table(Panel(train.X, train.A, train.Y, train.offsets), 1, ns.codec),
                   build_row_table(test, 1, ns.codec),
                   build_row_table(train, 1, dataclasses.replace(ns.codec,
                                                                 time_scale=2.0))]
        for table in sources:
            before = dict(calls)
            query_all(ns, table)
            assert calls["predict"] - before["predict"] == 4     # one per query
            assert calls["predict_proba"] - before["predict_proba"] == 4
            mu = ns.mu("b", 0, table)
            want = ns.response_models["b"][0].predict(table.features(0))
            assert np.array_equal(mu, want)

    def test_loaded_set_evaluates_each_model_once(self, panels, calls, tmp_path):
        # a bundle carries no values: fit_meta evaluates the classifier once at
        # every position and each level's two response models once, with the
        # bits of the fitted set
        train, test = panels
        ns = tiny_fit(train)
        save_nuisances(ns, tmp_path / "n.json")
        loaded = load_nuisances(tmp_path / "n.json")
        feats = build_row_table(test, 1).features(0)
        before = dict(calls)
        got = fit_meta("DR", train, PAIR, loaded, second_stage_spec=SECOND_STAGE)
        assert calls["predict_proba"] - before["predict_proba"] == 1
        assert calls["predict"] - before["predict"] == 0      # paired per level
        want = fit_meta("DR", train, PAIR, ns, second_stage_spec=SECOND_STAGE)
        assert np.array_equal(got.predict(feats), want.predict(feats))

    def test_replaced_and_corrupted_sets_start_empty(self, panels, calls):
        train, test = panels
        ns = tiny_fit(train)
        table = build_row_table(train, 1, ns.codec)
        query_all(ns, table)
        # the values came from the replaced model: the new one is evaluated
        other = fit_propensities(test, ClassifierSpec(feature_count=16, seed=5))
        swapped = dataclasses.replace(ns, propensity_model=other)
        want = other.predict_proba(table.features(0))[:, 1]
        assert np.array_equal(swapped.propensity(0, 1, table)[1], want)
        assert not np.array_equal(ns.propensity(0, 1, table)[1], want)

        bad = ns.corrupted(propensity=0.5, response=0.0)
        clipped, raw = bad.propensity(0, 1, table)
        assert np.all(raw == 0.5) and np.all(clipped == 0.5)
        assert np.all(bad.mu("a", 0, table) == 0.0)
        before = dict(calls)
        plain = ns.corrupted()
        assert plain.mu("a", 0, table) is ns.mu("a", 0, table)
        assert calls == before

    def test_stored_arrays_are_read_only(self, panels):
        train, _ = panels
        ns = tiny_fit(train)
        table = build_row_table(train, 1, ns.codec)
        mu = ns.mu("a", 0, table)
        for stored in (mu, ns.pi_values.values, train.encoded(ns.codec)):
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0
        clipped, raw = ns.propensity(1, 1, table)
        clipped[0] = raw[0] = 0.0      # gathers are the caller's own

    def test_oracle_and_override_queries_store_nothing(self, panels):
        train, _ = panels
        table = build_row_table(train, 1)
        oracle = oracle_nuisances(make_d1(), PAIR)
        assert oracle.mu_values is None and oracle.pi_values is None
        for ns in (oracle, tiny_fit(train).corrupted(propensity=0.4, response=1.0)):
            query_all(ns, table)
            first, second = ns.mu("a", 1, table), ns.mu("a", 1, table)
            assert first is not second and first.flags.writeable
            assert ns.propensity(0, 1, table)[1].flags.writeable


class TestPropensityFitsPerSeedJob:
    @pytest.mark.parametrize("split_enabled,fits", [(False, 1), (True, 2)])
    def test_classifier_fits(self, monkeypatch, calls, split_enabled, fits):
        # the "pi" fold of a split plan depends on tau, so each tau refits;
        # each fit is evaluated once, at every position of the panel
        count = []
        original = nuisance_module.fit_classifier

        def counting(*args, **kwargs):
            count.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(nuisance_module, "fit_classifier", counting)
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1),
                               learners=("IPW",), split_enabled=split_enabled,
                               second_stage_features=32, classifier_l2=1e-2)
        _seed_job(cfg, 0)
        assert len(count) == calls["predict_proba"] == fits
