"""Tests for the stored nuisance evaluations of a NuisanceSet.

A fitted set evaluates each model once per (row-table source, level) and
returns the stored array afterwards, and holds one raw second-stage map with
the uniform-weight design built from it; these tests pin what counts as the
same source, what is never stored, how many maps a seed job computes and
holds, and that sharing changes no result bit.
"""

import collections
import dataclasses
import warnings
import weakref

import numpy as np
import pytest

from tvcate import harness as harness_module
from tvcate import learners as learners_module
from tvcate import meta as meta_module
from tvcate import nuisance as nuisance_module
from tvcate.dgp import benchmark_pair, make_d1, simulate_panel
from tvcate.harness import ExperimentConfig, _seed_job
from tvcate.learners import (ClassifierSpec, CosineMap, FittedClassifier, RegressorSpec,
                             RidgeDesign)
from tvcate.meta import LEARNER_KINDS, fit_meta
from tvcate.nuisance import (build_row_table, fit_nuisances, fit_propensities,
                             oracle_nuisances)

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
    """Counts of the set's ``predict_many`` calls (each evaluates both arms'
    level-j response models) and of FittedClassifier.predict_proba."""
    counts = {"predict_many": 0, "predict_proba": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(nuisance_module, "predict_many")
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
        assert shared._store                   # the others did store evaluations
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


def held(ns):
    """The set's second-stage entries that still hold arrays: (raw map, design)."""
    return [entry for _, entry in ns._store.values() if isinstance(entry, tuple)
            and (entry[0].phi is not None or entry[1].phi is not None)]


@pytest.fixture
def one_map_at_a_time(monkeypatch):
    """Fails any cosine map or ridge design built while more than one other
    N x F array is alive: a design is built beside the one raw map it gathers
    from, and a map beside nothing but at most one other map."""
    live = weakref.WeakSet()

    def check():
        assert len([d for d in live if d.phi is not None]) <= 1

    class TrackedMap(CosineMap):
        def __init__(self, *args, **kwargs):
            check()
            super().__init__(*args, **kwargs)
            live.add(self)

    class TrackedDesign(RidgeDesign):
        def __init__(self, *args, **kwargs):
            check()
            super().__init__(*args, **kwargs)
            live.add(self)

    for module in (learners_module, nuisance_module, meta_module):
        monkeypatch.setattr(module, "CosineMap", TrackedMap, raising=False)
    monkeypatch.setattr(learners_module, "RidgeDesign", TrackedDesign)
    monkeypatch.setattr(nuisance_module, "RidgeDesign", TrackedDesign)


@pytest.fixture
def map_rows(monkeypatch):
    """Rows mapped by ``_cosine_features``, counted by (features, rows)."""
    maps = collections.Counter()
    original = learners_module._cosine_features

    def counting(X, W, b):
        maps[W.shape[1], X.shape[0]] += 1
        return original(X, W, b)
    monkeypatch.setattr(learners_module, "_cosine_features", counting)
    return maps


class TestHeldDesign:
    def test_at_most_one_map_and_none_after_ivw_dr(self, panels, map_rows,
                                                    one_map_at_a_time):
        train, _ = panels
        ns = tiny_fit(train)
        for kind in ("RA", "IPW", "DR"):
            fit_meta(kind, train, PAIR, ns, second_stage_spec=SECOND_STAGE)
            (raw, design), = held(ns)
            assert raw.phi is not None and design.phi is not None
        # the variance model draws another map here, so it replaces the entry,
        # and the weighted fit maps the rows with the second stage's map
        fit_meta("IVW-DR", train, PAIR, ns, second_stage_spec=SECOND_STAGE)
        assert held(ns) == [] and raw.phi is None and design.phi is None
        # with a shared map the variance model reuses the second stage's
        # design and the weighted fit gathers from its raw map: no row is mapped
        shared_map = dataclasses.replace(SECOND_STAGE, feature_count=256)
        fit_meta("DR", train, PAIR, ns, second_stage_spec=shared_map)
        (raw, design), = held(ns)
        map_rows.clear()
        fit_meta("IVW-DR", train, PAIR, ns, second_stage_spec=shared_map)
        assert not map_rows
        assert held(ns) == [] and raw.phi is None and design.phi is None

    def test_seed_job_drops_each_horizons_design(self, one_map_at_a_time):
        # IPW never releases its design, and the plug-in model refers to the
        # set; the next horizon's fits must still find no held map
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1),
                               learners=("IPW", "PI-RA"), regressor_features=32,
                               second_stage_features=32, classifier_l2=1e-2)
        _seed_job(cfg, 0)

    def test_seed_job_map_rows(self, map_rows):
        # d1, 500 training trajectories of length 5: the tau = 0 and tau = 1
        # training tables hold 2500 and 2000 rows; the variance model and
        # the second stages share one 256-feature map
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(0, 1),
                               regressor_features=32, second_stage_features=256,
                               classifier_l2=1e-2)
        _seed_job(cfg, 0)
        # per tau: the tables above, the classifier (plus its fit's 2500 rows
        # once), and the 500 and 400 test rows, mapped once per second stage
        # and once per plug-in arm pair
        assert sum(rows * n for (_, rows), n in map_rows.items()) == 25_400
        # whole training tables: one response map per level, which the fits,
        # the next level's targets, mu-hat and the history adjustments share;
        # one second-stage map, which IVW-DR's weighted fit gathers from too
        assert {k: n for k, n in map_rows.items() if k[1] in (2000, 2500)} == {
            (32, 2500): 1, (256, 2500): 1,
            (32, 2000): 2, (256, 2000): 1,
            (64, 2500): 2, (64, 2000): 2}       # classifier: fit, 3 levels

    def test_zero_lambda_singular_second_stage_raises(self):
        # 4 trajectories of 5 rows against 64 features: a singular gram
        d1, pair = make_d1(), benchmark_pair(0)
        panel = simulate_panel(d1, 4, seed=3)
        ns = oracle_nuisances(d1, pair)
        spec = RegressorSpec(feature_count=64, ridge_lambda=0.0)
        for kind in ("DR", "IPW"):          # IPW reuses the design DR built
            with pytest.raises(ValueError, match="singular system with ridge_lambda=0"):
                fit_meta(kind, panel, pair, ns, second_stage_spec=spec)
        assert len(held(ns)) == 1

    def test_fit_time_mu_survives_the_shared_classifier(self, monkeypatch):
        sets = []
        original = harness_module.fit_nuisances

        def recording(*args, **kwargs):
            ns = original(*args, **kwargs)
            sets.append((ns, dict(ns._store)))
            return ns
        monkeypatch.setattr(harness_module, "fit_nuisances", recording)
        cfg = ExperimentConfig(n_train=500, n_test=100, seeds=(0,), taus=(1, 2),
                               learners=("DR",), regressor_features=32,
                               second_stage_features=32, classifier_l2=1e-2)
        _seed_job(cfg, 0)
        (first, at_fit), (second, _) = sets
        assert first.propensity_model is second.propensity_model
        mu_keys = [k for k in at_fit if k[3] == "mu"]
        assert sorted(k[4:] for k in mu_keys) == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        for key in mu_keys:
            assert first._store[key][1] is at_fit[key][1]


class TestStoreContract:
    def test_second_table_from_the_same_source_reuses(self, panels, calls):
        train, _ = panels
        ns = tiny_fit(train)
        first = build_row_table(train, 1, ns.codec)
        second = build_row_table(train, 1, ns.codec)
        before = dict(calls)
        # the fit stored both levels: no paired call evaluates either
        query_all(ns, first)
        assert calls["predict_many"] - before["predict_many"] == 0
        assert calls["predict_proba"] - before["predict_proba"] == 2
        mu = ns.mu("a", 1, first)
        _, raw = ns.propensity(1, 0, first)
        query_all(ns, second)
        assert calls["predict_many"] - before["predict_many"] == 0
        assert calls["predict_proba"] - before["predict_proba"] == 2
        assert ns.mu("a", 1, second) is mu
        assert np.shares_memory(ns.propensity(1, 0, second)[1], raw)

    def test_other_sources_evaluate_afresh(self, panels, calls):
        train, test = panels
        ns = tiny_fit(train)
        query_all(ns, build_row_table(train, 1, ns.codec))
        sources = [build_row_table(train.subset(np.arange(train.n)), 1, ns.codec),
                   build_row_table(test, 1, ns.codec),
                   build_row_table(train, 1, dataclasses.replace(ns.codec,
                                                                 time_scale=2.0))]
        for table in sources:
            before = dict(calls)
            query_all(ns, table)
            assert calls["predict_many"] - before["predict_many"] == 2   # one per level
            assert calls["predict_proba"] - before["predict_proba"] == 2
            mu = ns.mu("b", 0, table)
            want = ns.response_models["b"][0].predict(table.features(0))
            assert np.array_equal(mu, want)

    def test_replaced_and_corrupted_sets_start_empty(self, panels, calls):
        train, test = panels
        ns = tiny_fit(train)
        table = build_row_table(train, 1, ns.codec)
        query_all(ns, table)
        other = fit_propensities(test, ClassifierSpec(feature_count=16, seed=5))
        swapped = dataclasses.replace(ns, propensity_model=other)
        assert not swapped._store
        want = other.predict_proba(table.features(0))[:, 1]
        assert np.array_equal(swapped.propensity(0, 1, table)[1], want)
        assert not np.array_equal(ns.propensity(0, 1, table)[1], want)

        bad = ns.corrupted(propensity=0.5, response=0.0)
        clipped, raw = bad.propensity(0, 1, table)
        assert np.all(raw == 0.5) and np.all(clipped == 0.5)
        assert np.all(bad.mu("a", 0, table) == 0.0)
        before = dict(calls)
        plain = ns.corrupted()
        assert np.array_equal(plain.mu("a", 0, table), ns.mu("a", 0, table))
        assert calls["predict_many"] - before["predict_many"] == 1

    def test_stored_arrays_are_read_only(self, panels):
        train, _ = panels
        ns = tiny_fit(train)
        table = build_row_table(train, 1, ns.codec)
        mu = ns.mu("a", 0, table)
        clipped, raw = ns.propensity(1, 1, table)
        for stored in (mu, raw):
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0
        clipped[0] = 0.0          # the clipped copy is the caller's own

    def test_oracle_and_override_queries_store_nothing(self, panels):
        train, _ = panels
        table = build_row_table(train, 1)
        for ns in (oracle_nuisances(make_d1(), PAIR),
                   tiny_fit(train).corrupted(propensity=0.4, response=1.0)):
            query_all(ns, table)
            assert not ns._store
            first, second = ns.mu("a", 1, table), ns.mu("a", 1, table)
            assert first is not second and first.flags.writeable
            assert ns.propensity(0, 1, table)[1].flags.writeable


class TestPropensityFitsPerSeedJob:
    @pytest.mark.parametrize("split_enabled,fits", [(False, 1), (True, 2)])
    def test_classifier_fits(self, monkeypatch, split_enabled, fits):
        # the "pi" fold of a split plan depends on tau, so each tau refits
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
        assert len(count) == fits
