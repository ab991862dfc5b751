"""Tests for the stored nuisance evaluations of a NuisanceSet.

A fitted set evaluates each model once per (row-table source, level) and
returns the stored array afterwards; these tests pin what counts as the same
source, what is never stored, and that sharing changes no result bit.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from tvcate import nuisance as nuisance_module
from tvcate.dgp import benchmark_pair, make_d1, simulate_panel
from tvcate.harness import ExperimentConfig, _seed_job
from tvcate.learners import (ClassifierSpec, FittedClassifier, FittedRegressor,
                             RegressorSpec)
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
    """Counts of FittedRegressor.predict and FittedClassifier.predict_proba."""
    counts = {"predict": 0, "predict_proba": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

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


class TestStoreContract:
    def test_second_table_from_the_same_source_reuses(self, panels, calls):
        train, _ = panels
        ns = tiny_fit(train)
        first = build_row_table(train, 1, ns.codec)
        second = build_row_table(train, 1, ns.codec)
        before = dict(calls)
        query_all(ns, first)
        assert calls["predict"] - before["predict"] == 4
        assert calls["predict_proba"] - before["predict_proba"] == 2
        mu = ns.mu("a", 1, first)
        _, raw = ns.propensity(1, 0, first)
        query_all(ns, second)
        assert calls["predict"] - before["predict"] == 4
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
            assert calls["predict"] - before["predict"] == 4
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
        assert calls["predict"] - before["predict"] == 1

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
