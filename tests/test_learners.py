import collections
import hashlib
import json
import multiprocessing
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from tvcate import _blocks, learners
from tvcate.learners import (
    LOOKUP_TABLE,
    ClassifierSpec,
    FittedClassifier,
    FittedRegressor,
    RegressorSpec,
    RidgeDesign,
    RowMap,
    fit_classifier,
    fit_regressor,
    predict_many,
)

from helpers import run_on_one_thread, same_bits, set_blocks


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestRidgeRandomFeatures:
    def test_constant_targets_interpolated_with_zero_lambda(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        y = np.full(60, 3.25)
        model = fit_regressor(RegressorSpec(feature_count=8, ridge_lambda=0.0, seed=1), X, y)
        np.testing.assert_allclose(model.predict(X), 3.25, atol=1e-9)

    def test_weight_rescaling_leaves_fit_unchanged(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 1))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.1, 200)
        w = rng.uniform(0.5, 2.0, 200)
        spec = RegressorSpec(feature_count=32, ridge_lambda=1e-3, seed=2)
        m1 = fit_regressor(spec, X, y, w)
        m2 = fit_regressor(spec, X, y, 2.0 * w)
        grid = np.linspace(-2, 2, 50)[:, None]
        np.testing.assert_allclose(m1.predict(grid), m2.predict(grid), atol=1e-12)

    def test_cosine_fit_quality(self):
        # y = cos(x) + noise(sigma=0.1), n=2000, 256 random cosine features
        rng = np.random.default_rng(42)
        x = rng.uniform(-3, 3, 2000)[:, None]
        y = np.cos(x[:, 0]) + rng.normal(0, 0.1, 2000)
        x_test = rng.uniform(-3, 3, 1000)[:, None]
        model = fit_regressor(RegressorSpec(seed=1), x, y)
        rmse = np.sqrt(np.mean((model.predict(x_test) - np.cos(x_test[:, 0])) ** 2))
        assert rmse <= 0.15

    def test_singular_system_with_zero_lambda_errors(self):
        # duplicated rows and more random features than rows -> singular Gram
        X = np.ones((5, 1))
        y = np.arange(5.0)
        with pytest.raises(ValueError, match="regularize or drop collinear features"):
            fit_regressor(RegressorSpec(feature_count=16, ridge_lambda=0.0, seed=0), X, y)

    def test_ridge_optimality_gradient(self):
        # gradient of the weighted objective (incl. unpenalized intercept) ~ 0
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 2))
        y = rng.normal(size=150)
        w = rng.uniform(0.1, 1.0, 150)
        spec = RegressorSpec(feature_count=24, ridge_lambda=5e-3, seed=4)
        model = fit_regressor(spec, X, y, w)
        wn = w / w.sum()
        from tvcate.learners import _cosine_features
        phi = _cosine_features(X, model.params["W"], model.params["b"])
        phi_c = phi - model.params["phi_mean"]
        resid = y - model.params["intercept"] - phi_c @ model.params["beta"]
        grad_beta = -2 * phi_c.T @ (wn * resid) + 2 * spec.ridge_lambda * model.params["beta"]
        grad_alpha = -2 * np.dot(wn, resid)
        gnorm = np.sqrt(np.sum(grad_beta ** 2) + grad_alpha ** 2)
        pnorm = np.sqrt(np.sum(model.params["beta"] ** 2) + model.params["intercept"] ** 2)
        assert gnorm <= 1e-8 * (1 + pnorm)

    def test_determinism_and_seed_sensitivity(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        grid = np.linspace(-1, 1, 9)[:, None]
        spec = RegressorSpec(feature_count=16, seed=7)
        p1 = fit_regressor(spec, X, y).predict(grid)
        p2 = fit_regressor(spec, X, y).predict(grid)
        np.testing.assert_array_equal(p1, p2)
        p3 = fit_regressor(RegressorSpec(feature_count=16, seed=8), X, y).predict(grid)
        assert not np.array_equal(p1, p3)

    def test_feature_width_mismatch_errors(self):
        X = np.zeros((10, 3))
        model = fit_regressor(RegressorSpec(feature_count=4, seed=0), X, np.zeros(10))
        with pytest.raises(ValueError, match="width"):
            model.predict(np.zeros((2, 2)))


#: row counts around the 4096-row blocks of predictions
PREDICT_ROWS = (1, 2, 7, 4096, 4097, 8193, 20000)


@pytest.fixture(scope="module")
def whole_map_mismatches():
    """Per row count, the (features, model) pairs whose ``predict_many``
    differs on one BLAS thread from the one whole-map product."""
    script = """
        import json
        import numpy as np
        from tvcate.learners import (RegressorSpec, _cosine_features, fit_regressor,
                                     predict_many)
        rng = np.random.default_rng(10)
        train = rng.normal(size=(300, 19))
        bad = {}
        # 200 features: a multiple of 8 above 192, mapped in blocks; 300 is
        # no multiple of 8, where blocks of X @ W can change bits on 19-wide rows
        for features in (64, 128, 200, 256, 300):
            # the first two models share one map, the third draws its own
            models = [fit_regressor(RegressorSpec(feature_count=features, seed=seed), train,
                                    rng.normal(size=300), weight)
                      for seed, weight in ((3, None), (3, rng.uniform(0.5, 2.0, 300)),
                                           (4, None))]
            for rows in ROWS:
                X = rng.normal(size=(rows, 19))
                for k, (model, got) in enumerate(zip(models, predict_many(models, X))):
                    p = model.params
                    phi = _cosine_features(X, p["W"], p["b"])
                    if not np.array_equal(got, (phi - p["phi_mean"]) @ p["beta"]
                                          + p["intercept"]):
                        bad.setdefault(rows, []).append([features, k])
        print(json.dumps(bad))
        """.replace("ROWS", repr(PREDICT_ROWS))
    return {int(rows): pairs for rows, pairs in json.loads(run_on_one_thread(script)).items()}


class TestPredictMany:
    @staticmethod
    def models(seeds, n=60):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(n, 3))
        return [fit_regressor(RegressorSpec(feature_count=16, seed=seed), X,
                              rng.normal(size=n), rng.uniform(0.5, 1.0, n))
                for seed in seeds]

    @pytest.mark.parametrize("rows", PREDICT_ROWS)
    def test_each_prediction_has_the_bits_of_predict(self, rows, whole_map_mismatches):
        # on one BLAS thread, block by block, the bits of the whole-map product
        assert whole_map_mismatches.get(rows, []) == []
        # seeds 0, 0, 1: the first two share one map, the third has its own
        models = self.models([0, 0, 1]) + [fit_regressor(
            RegressorSpec(kind="lookup-table"), np.zeros((2, 3)), np.array([1.0, 3.0]))]
        X = np.random.default_rng(9).normal(size=(rows, 3))
        for model, out in zip(models, predict_many(models, X)):
            assert np.array_equal(out, model.predict(X))
        single = predict_many(models, X[0])
        assert [float(v) for v in single] == [float(m.predict(X[0])) for m in models]

    def test_width_mismatch_errors(self):
        with pytest.raises(ValueError, match="width"):
            predict_many(self.models([0]), np.zeros((2, 2)))

    def test_blocks_reproduce_one_whole_map_product_on_one_thread(self):
        # predictions are centered and multiplied in 4096-row blocks; on one
        # BLAS thread that must equal the product over the whole map
        run_on_one_thread("""
            import numpy as np
            from tvcate.learners import RegressorSpec, _cosine_features, fit_regressor
            rng = np.random.default_rng(10)
            model = fit_regressor(RegressorSpec(seed=3), rng.normal(size=(300, 19)),
                                  rng.normal(size=300))
            p = model.params
            for rows in (4097, 2 * 4096 + 1, 3 * 4096 + 2, 20003):
                X = rng.normal(size=(rows, 19))
                phi = _cosine_features(X, p["W"], p["b"])
                phi -= p["phi_mean"]
                assert np.array_equal(model.predict(X), p["intercept"] + phi @ p["beta"])
            """)

    def test_peak_memory_does_not_grow_with_the_rows(self, monkeypatch):
        # two models on one 256-feature map: a block of the map and one
        # centered copy of it at most, whatever the row count, on one CPU
        set_blocks(monkeypatch, 1)
        rng = np.random.default_rng(13)
        train = rng.normal(size=(300, 19))
        models = [fit_regressor(RegressorSpec(seed=5), train, rng.normal(size=300), weight)
                  for weight in (None, rng.uniform(0.5, 2.0, 300))]
        peaks = []
        for rows in (10_000, 40_000):
            X = rng.normal(size=(rows, 19))
            tracemalloc.start()
            try:
                outs = predict_many(models, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - sum(out.nbytes for out in outs))
        two_blocks = 2 * 4097 * 256 * 8              # about 17 MB
        assert max(peaks) <= two_blocks + 2 ** 20
        assert abs(peaks[1] - peaks[0]) <= 2 ** 20

    @staticmethod
    def share_models(rng, features=64):
        """Two ridge models on one map (seed 3), the second weighted, and a
        third on its own map (seed 4)."""
        train = rng.normal(size=(300, 19))
        return [fit_regressor(RegressorSpec(feature_count=features, seed=seed), train,
                              rng.normal(size=300), weight)
                for seed, weight in ((3, None), (3, rng.uniform(0.5, 2.0, 300)), (4, None))]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_shares_have_the_bits_of_one_share(self, cpus, monkeypatch):
        # 20,000 rows are five blocks; each share maps, centers and
        # multiplies its own, by predict_many and by RowMap.predict at rows
        rng = np.random.default_rng(17)
        models = self.share_models(rng)
        X = rng.normal(size=(20_000, 19))
        rows = np.sort(rng.choice(20_000, size=15_000, replace=False))

        def run():
            outs = predict_many(models, X) + RowMap(models[0].spec, X).predict(models[:2], rows)
            return [out.tobytes() for out in outs]
        set_blocks(monkeypatch, 1, blas=1)
        want = run()
        set_blocks(monkeypatch, cpus)
        names, original = set(), learners._cosine_features

        def recording(*args):
            names.add(threading.current_thread().name)
            return original(*args)
        monkeypatch.setattr(learners, "_cosine_features", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run()
        finally:
            sys.setswitchinterval(interval)
        assert _blocks._shares(5) == cpus
        assert ("tvcate-block" in names) == (cpus > 1)
        assert [k for k, (a, b) in enumerate(zip(got, want)) if a != b] == []

    def test_two_share_peak_memory_is_a_block_and_a_sub_block_per_share(self, monkeypatch):
        # two models on one 256-feature map over two shares: per share its
        # block of the map and the sub-block the first model is centered in
        set_blocks(monkeypatch, 2, blas=1)
        rng = np.random.default_rng(13)
        models = self.share_models(rng, 256)[:2]
        peaks = []
        for rows in (10_000, 40_000):
            X = rng.normal(size=(rows, 19))
            tracemalloc.start()
            try:
                outs = predict_many(models, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - sum(out.nbytes for out in outs))
        sub = _blocks._SUB_BLOCK_ROWS + _blocks._SUB_BLOCK_LEAST - 1
        assert max(peaks) <= 2 * (4097 + sub) * 256 * 8 + 2 ** 20
        assert abs(peaks[1] - peaks[0]) <= 2 ** 20


def inline_map(X, W, b):
    """The cosine map made in one piece in the calling thread."""
    Z = X @ W
    Z += b
    np.cos(Z, out=Z)
    Z *= np.sqrt(2.0 / W.shape[1])
    return Z


class TestChunkedCosineMap:
    """The elementwise half of a cosine map runs in row chunks over the CPUs
    and must keep the bits of the map made in one piece."""

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    @pytest.mark.parametrize("features", [64, 256, 300])
    @pytest.mark.parametrize("rows", [1, 2, 255, 4096, 4097, 25_000])
    def test_map_has_the_bits_of_the_inline_form(self, rows, features, cpus, monkeypatch):
        # None: this machine's CPUs; 1 and 3 stand in for other machines
        if cpus is not None:
            set_blocks(monkeypatch, cpus)
        rng = np.random.default_rng(rows + features)
        X = rng.normal(size=(rows, 5))
        W, b = learners.random_cosine_map(5, features, 1.5, 7)
        chunks = learners._map_chunks(rows, features)
        assert chunks == (1 if rows * features < 2 ** 14
                          else min(cpus or _blocks._usable_cpus(), rows))
        assert np.array_equal(learners._cosine_features(X, W, b), inline_map(X, W, b))

    def test_chunk_error_is_raised_in_the_caller(self, monkeypatch):
        # an inf in the last row makes the last chunk's cos warn; as an
        # error, it must reach the caller from the chunk's thread
        set_blocks(monkeypatch, 2)
        X = np.random.default_rng(31).normal(size=(4096, 5))
        X[-1] = [np.inf, 0.0, 0.0, 0.0, 0.0]
        W, b = learners.random_cosine_map(5, 256, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning):
                learners._cosine_features(X, W, b)

    def test_forked_child_maps_with_the_parents_bits(self, monkeypatch):
        # as the harness's worker processes are: a chunked map in the parent,
        # then one in a child forked after it, which must finish and agree;
        # no map thread outlives its map, so the fork copies none of them
        set_blocks(monkeypatch, 2)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(25_000, 5))
        W, b = learners.random_cosine_map(5, 256, 1.0, 3)
        threads = threading.active_count()
        want = hashlib.sha256(learners._cosine_features(X, W, b)).hexdigest()
        assert threading.active_count() == threads
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: theirs.send(
            hashlib.sha256(learners._cosine_features(X, W, b)).hexdigest()))
        child.start()
        try:
            assert ours.poll(60), "the forked child's map did not finish in 60 s"
            assert ours.recv() == want
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_process_has_the_bits_of_every_cpu(self):
        # a fit on a RowMap and a predict_many in a process pinned to one CPU
        # (its own affinity only), against the same in a process on all CPUs
        script = """
            import hashlib, os
            import numpy as np
            from tvcate import learners
            from tvcate.learners import RegressorSpec, RowMap, predict_many
            if PIN:
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            rng = np.random.default_rng(21)
            spec = RegressorSpec(seed=4)
            model = RowMap(spec, rng.normal(size=(5000, 7))).fit(spec, rng.normal(size=5000))
            digest = hashlib.sha256()
            for key in ("phi_mean", "beta", "intercept"):
                digest.update(np.asarray(model.params[key], dtype=float).tobytes())
            for out in predict_many([model], rng.normal(size=(20000, 7))):
                digest.update(out.tobytes())
            print(learners._map_chunks(20000, 256), digest.hexdigest())
            """
        pinned, free = (run_on_one_thread(script.replace("PIN", repr(pin))).split()
                        for pin in (True, False))
        assert pinned[0] == "1"
        assert int(free[0]) == min(len(os.sched_getaffinity(0)), 20000)
        assert pinned[1] == free[1]


class TestRidgeDesign:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_fits_have_the_bits_of_fit_regressor(self, weighted):
        # 5000 rows: predictions from the map span two 4096-row blocks
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5000, 3))
        w = rng.uniform(0.5, 2.0, 5000) if weighted else None
        raw = RowMap(RegressorSpec(feature_count=32, seed=2), X)
        design = RidgeDesign(raw, None if w is None else w / w.sum())
        # repeated penalties reuse the stored factor and eigendecomposition
        for lam in (1e-2, "auto", 1e-4, 1e-2, "auto", 0.0):
            spec = RegressorSpec(feature_count=32, seed=2, ridge_lambda=lam)
            y = rng.normal(size=5000)
            got, want = design.fit(spec, y), fit_regressor(spec, X, y, w)
            assert got.params.keys() == want.params.keys()
            for key, value in want.params.items():
                assert np.array_equal(got.params[key], value), key
            assert np.array_equal(raw.predict([got])[0], want.predict(X))

    def test_fits_gather_their_rows_once(self, monkeypatch):
        # 9000 gathered rows are three blocks: the pass that fills a new
        # design's gram also makes its first right-hand side
        rng = np.random.default_rng(22)
        X = rng.normal(size=(12000, 3))
        at = np.sort(rng.choice(12000, size=9000, replace=False))
        y, w = rng.normal(size=9000), rng.uniform(0.5, 2.0, 9000)
        spec = RegressorSpec(feature_count=64, ridge_lambda=1e-3)
        raw = RowMap(spec, X)
        blocks = gathered_blocks(monkeypatch)
        weighted = raw.fit(spec, y, w, rows=at)
        assert block_rows(blocks) == [4096, 4096, 808]
        assert params_equal(weighted, fit_regressor(spec, X[at], y, w))
        del blocks[:]
        raw.fit(spec, y, rows=at)                    # a new uniform design
        assert block_rows(blocks) == [4096, 4096, 808]
        raw.fit(spec, -y, rows=at)                   # held: the right-hand side only
        assert block_rows(blocks) == [4096, 4096, 808] * 2

    @pytest.mark.parametrize("gathered", [False, True])
    def test_raw_sums_peak_memory_is_a_block_and_the_gram(self, gathered, monkeypatch):
        # weighted sums over 20,000 x 256 on one CPU: one block buffer
        # (gathered rows are scaled in place, views of the map into a block
        # of their own) and the F x F gram, never an N x F temporary; the
        # two-share bound is TestBlockPass's
        set_blocks(monkeypatch, 1)
        rng = np.random.default_rng(23)
        raw = RowMap(RegressorSpec(), rng.normal(size=(20_000, 3)))
        rows = np.sort(rng.choice(20_000, size=15_000, replace=False)) if gathered else None
        n = 20_000 if rows is None else rows.size
        w, v = rng.uniform(0.1, 3.0, n), rng.normal(size=n)
        tracemalloc.start()
        try:
            learners._raw_sums(raw.phi, rows, w / w.sum(), v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4097 * 256 * 8 + 256 * 256 * 8 + 2 ** 20   # the map is 41 MB

    def test_zero_lambda_singular_system_raises_on_every_fit(self):
        # the second fit reuses the held design, whose factor never formed
        spec = RegressorSpec(feature_count=16, ridge_lambda=0.0, seed=0)
        raw = RowMap(spec, np.ones((5, 1)))
        for _ in range(2):
            with pytest.raises(ValueError, match="regularize or drop collinear features"):
                raw.fit(spec, np.arange(5.0))
        assert raw._design is not None

    def test_foreign_specs_and_models_rejected(self):
        # a held design serves only its map's specs and one target per row
        X = np.random.default_rng(12).normal(size=(40, 2))
        spec = RegressorSpec(feature_count=8)
        raw = RowMap(spec, X)
        raw.fit(spec, np.zeros(40))
        for rows in (None, np.arange(40)):
            with pytest.raises(ValueError, match="another row map"):
                raw.fit(RegressorSpec(feature_count=8, seed=1), np.zeros(40), rows=rows)
            with pytest.raises(ValueError, match="one value per row"):
                raw.fit(spec, np.zeros(39), rows=rows)



def params_equal(got, want):
    return got.params.keys() == want.params.keys() and all(
        np.array_equal(got.params[key], value) for key, value in want.params.items())


class TestCosineMap:
    """A :class:`RowMap` under ridge specs: the raw cosine map of its rows."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_fits_and_predictions_have_the_bits_of_mapping_again(self, weighted):
        # 9000 rows: predictions span three 4096-row blocks
        rng = np.random.default_rng(14)
        X = rng.normal(size=(9000, 4))
        rows = rng.uniform(size=9000) < 0.7
        y = rng.normal(size=9000)
        w = rng.uniform(0.5, 2.0, 9000) if weighted else None
        raw = RowMap(RegressorSpec(seed=4), X)
        before = raw.phi.copy()
        models = []
        for lam, subset in ((1e-2, rows), ("auto", None), (1e-4, np.flatnonzero(~rows))):
            spec = RegressorSpec(seed=4, ridge_lambda=lam)
            pick = slice(None) if subset is None else subset
            got = raw.fit(spec, y[pick], None if w is None else w[pick], rows=subset)
            assert params_equal(got, fit_regressor(spec, X[pick], y[pick],
                                                   None if w is None else w[pick]))
            models.append(got)
        for got, want in zip(raw.predict(models), predict_many(models, X)):
            assert np.array_equal(got, want)
        # predictions at gathered rows, in any order and with repeats
        at = rng.integers(0, 9000, size=5000)
        for got, want in zip(raw.predict(models, at), predict_many(models, X[at])):
            assert np.array_equal(got, want)
        assert np.array_equal(raw.phi, before)       # fits and predictions copy

    def test_design_is_held_per_row_set_and_dropped_by_a_fit(self, monkeypatch):
        # uniform fits of equal rows share one design; other rows, or a
        # weighted fit in between, build a new one
        built = design_inits(monkeypatch)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 3))
        raw = RowMap(RegressorSpec(feature_count=32), X)
        at = np.flatnonzero(rng.uniform(size=300) < 0.5)
        y = rng.normal(size=300)
        new = []
        for lam, rows in ((1e-2, at), ("auto", at.copy()), (1e-2, None), (1e-4, None),
                          (1e-2, at)):
            spec = RegressorSpec(feature_count=32, ridge_lambda=lam)
            pick = slice(None) if rows is None else rows
            want = fit_regressor(spec, X[pick], y[pick])
            before = built[0]
            assert params_equal(raw.fit(spec, y[pick], rows=rows), want)
            new.append(built[0] - before)
        assert new == [1, 0, 1, 0, 1]
        held, before = raw._design, built[0]
        spec = RegressorSpec(feature_count=32)
        raw.fit(spec, y[at], rng.uniform(0.5, 2.0, at.size), rows=at)
        assert raw._design is None                    # a weighted fit dropped it
        raw.fit(spec, y[at], rows=at)
        assert raw._design is not held and built[0] - before == 2

    def test_foreign_specs_and_models_rejected(self):
        X = np.random.default_rng(15).normal(size=(40, 2))
        raw = RowMap(RegressorSpec(feature_count=8), X)
        for spec in (RegressorSpec(feature_count=8, bandwidth=2.0), LOOKUP_TABLE):
            with pytest.raises(ValueError, match="another row map"):
                raw.fit(spec, np.zeros(40))
        cells = RowMap(LOOKUP_TABLE, X)
        with pytest.raises(ValueError, match="another row map"):
            cells.fit(RegressorSpec(feature_count=8), np.zeros(40))
        other = fit_regressor(RegressorSpec(feature_count=8, seed=1), X, np.zeros(40))
        lookup = fit_regressor(LOOKUP_TABLE, X, np.zeros(40))
        for held, model in ((raw, other), (raw, lookup), (cells, other),
                            (RowMap(LOOKUP_TABLE, X[:, :1]), lookup)):
            with pytest.raises(ValueError, match="another row map"):
                held.predict([model])

    def test_views_are_scaled_into_the_buffer_given(self):
        # a weighted gram of a read-only view writes B into the first rows of
        # a caller's buffer, with the bits of scaling into a new block
        rng = np.random.default_rng(29)
        phi = rng.normal(size=(300, 16))
        phi.flags.writeable = False
        w = rng.uniform(0.1, 3.0, 300)
        buf = np.zeros((310, 16))
        got = learners._gram(phi, w, buf)
        assert got.tobytes() == learners._gram(phi, w).tobytes()
        assert np.array_equal(buf[:300], np.sqrt(w)[:, None] * phi) and not buf[300:].any()

    def test_gram_is_one_symmetric_product_of_sqrt_w_phi(self):
        # B.T @ B for B = sqrt(w) phi (B = phi for unit weights), whether phi
        # is read-only (a view of a map) or a gathered block scaled in place;
        # exactly symmetric, and within 1e-12 of the general product
        # (phi * w).T @ phi, relative to its largest entry
        run_on_one_thread("""
            import numpy as np
            from tvcate.learners import _gram
            rng = np.random.default_rng(16)
            for rows in (3, 60, 701, 4097, 9001):
                for features in (8, 64, 128, 256, 300, 512):
                    phi = rng.normal(size=(rows, features))
                    phi.flags.writeable = False
                    ones = _gram(phi, None)
                    assert np.array_equal(ones, phi.T @ phi), (rows, features)
                    assert np.array_equal(_gram(phi, np.ones(rows)), ones)
                    assert np.array_equal(ones, ones.T)
                    for w in (np.full(rows, 1.0 / rows), rng.uniform(0.1, 3.0, rows)):
                        w = w / w.sum()
                        B = np.sqrt(w)[:, None] * phi
                        gram = _gram(phi, w)
                        assert np.array_equal(gram, B.T @ B), (rows, features)
                        assert np.array_equal(_gram(phi.copy(), w), gram)
                        assert np.array_equal(gram, gram.T)
                        old = (phi * w[:, None]).T @ phi
                        assert np.max(np.abs(gram - old)) <= 1e-12 * np.max(np.abs(old))
            """)


def design_inits(monkeypatch):
    """Designs built (``RidgeDesign.__init__`` calls), as a one-element list."""
    built, original = [0], RidgeDesign.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)
    monkeypatch.setattr(RidgeDesign, "__init__", counting)
    return built


def gathered_blocks(monkeypatch):
    """The blocks ``learners._row_blocks`` gathers, as a list with one list of
    (start, rows) per pass (per ``_row_blocks`` call), whatever thread
    gathered each block."""
    passes, lock, original = [], threading.Lock(), learners._row_blocks

    def counting(phi, rows=None):
        edges, take = original(phi, rows)
        if rows is None:
            return edges, take
        blocks = []
        with lock:
            passes.append(blocks)

        def recording(span, out):
            with lock:
                blocks.append((span.start, span.stop - span.start))
            return take(span, out)
        return edges, recording
    monkeypatch.setattr(learners, "_row_blocks", counting)
    return passes


def block_rows(passes) -> list:
    """Rows of each block :func:`gathered_blocks` saw, pass by pass and in a
    pass by block start."""
    return [rows for blocks in passes for _, rows in sorted(blocks)]


def gram_rows(monkeypatch):
    """Rows through ``learners._gram``, as a one-element list."""
    rows, lock, original = [0], threading.Lock(), learners._gram

    def counting(phi, *args):
        with lock:
            rows[0] += phi.shape[0]
        return original(phi, *args)
    monkeypatch.setattr(learners, "_gram", counting)
    return rows


class TestGroupedMap:
    @pytest.mark.parametrize("features", [64, 256])
    def test_grouped_gram_matches_the_two_pass_centered_gram(self, features):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(3000, 4))
        groups = rng.integers(0, 6, size=3000)
        rows = np.flatnonzero(np.isin(groups, (0, 2, 3)))
        for bandwidth in (1.0, 10.0, 100.0, 1000.0):
            spec = RegressorSpec(feature_count=features, bandwidth=bandwidth)
            raw = RowMap(spec, X, groups)
            raw.fit(spec, np.zeros(rows.size), rows=rows)
            design = raw._design
            phi = raw.phi[rows]
            centered = phi - phi.mean(axis=0)
            want = centered.T @ centered / rows.size
            assert np.max(np.abs(design.gram - want)) <= 1e-14, bandwidth
            np.testing.assert_allclose(design.phi_mean, phi.mean(axis=0), rtol=0, atol=1e-15)

    def test_unions_of_groups_take_the_sums_and_other_rows_gather(self, monkeypatch):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(2000, 3))
        groups = rng.integers(0, 5, size=2000)
        y = rng.normal(size=2000)
        spec = RegressorSpec(feature_count=64, ridge_lambda=1e-3)
        raw = RowMap(spec, X, groups)
        rows = gram_rows(monkeypatch)
        union = np.flatnonzero(groups != 1)[::-1]           # any order
        fitted = raw.fit(spec, y[union], rows=union)
        assert rows[0] == union.size                        # its groups' sums
        raw.fit(spec, y[union], rows=union)
        assert raw.fit(spec, y, rows=None) and rows[0] == 2000   # each group once
        want = fit_regressor(spec, X[union], y[union])
        assert fitted.params["ridge_lambda_used"] == want.params["ridge_lambda_used"]
        for key in ("beta", "phi_mean", "intercept"):
            np.testing.assert_allclose(fitted.params[key], want.params[key], rtol=1e-9)
        # one row of a group missing, or a row repeated in place of another:
        # the design gathers its rows, with the bits of fit_regressor on them
        short = union[1:]
        repeated = np.append(short, short[0])
        for subset in (short, repeated):
            before = rows[0]
            got = raw.fit(spec, y[subset], rows=subset)
            assert rows[0] - before == subset.size
            assert params_equal(got, fit_regressor(spec, X[subset], y[subset]))

    def test_designs_hold_no_copy_of_their_rows(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(900, 2))
        groups = rng.integers(0, 3, size=900)
        spec = RegressorSpec(feature_count=64)
        raw = RowMap(spec, X, groups)
        gathered = np.flatnonzero(rng.uniform(size=900) < 0.5)
        for design in (RidgeDesign(raw, None, np.flatnonzero(groups == 0)),
                       RidgeDesign(raw, None, gathered),
                       RidgeDesign(raw, np.full(900, 1 / 900)),
                       RidgeDesign(RowMap(spec, X))):
            big = [value for value in vars(design).values()
                   if isinstance(value, np.ndarray) and value.ndim == 2 and len(value) > 64]
            # only the map's own phi, which the right-hand sides read
            assert len(big) == 1 and big[0] is design._phi and big[0].shape == (900, 64)
        raw.fit(spec, np.zeros(gathered.size), rows=gathered)
        assert raw._design._phi is raw.phi

    def test_a_repeated_row_in_full_groups_falls_back_to_the_blocked_gram(self, monkeypatch):
        # every group's count matches, but one row stands in for another of
        # its group: no union of groups, so the design reads its rows in
        # blocks, with the bits of fit_regressor on them
        rng = np.random.default_rng(28)
        X = rng.normal(size=(2000, 3))
        groups = rng.integers(0, 5, size=2000)
        y = rng.normal(size=2000)
        spec = RegressorSpec(feature_count=64, ridge_lambda=1e-3)
        raw = RowMap(spec, X, groups)
        union = np.flatnonzero(groups != 1)
        repeated = union.copy()
        repeated[0] = union[groups[union] == groups[union[0]]][1]
        assert np.array_equal(np.bincount(groups[repeated]), np.bincount(groups[union]))
        assert raw._group_means(union) is not None and raw._group_means(repeated) is None
        rows = gram_rows(monkeypatch)
        got = raw.fit(spec, y[repeated], rows=repeated)
        assert rows[0] == repeated.size
        assert params_equal(got, fit_regressor(spec, X[repeated], y[repeated]))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_groups_are_dealt_by_rows_with_the_sums_of_one_share(self, cpus, monkeypatch):
        # labels time * 2 + arm with arm 1 rare, as on a panel: every other
        # group is small, so taking every P-th group would load one share
        rng = np.random.default_rng(47)
        X = rng.normal(size=(12_000, 3))
        groups = 2 * rng.integers(0, 5, 12_000) + (rng.uniform(size=12_000) < 0.03)
        spec = RegressorSpec(feature_count=32)
        set_blocks(monkeypatch, 1, blas=1)
        one = RowMap(spec, X, groups)
        one._group_means(None)
        set_blocks(monkeypatch, cpus)
        deals, original = [], _blocks._deal
        monkeypatch.setattr(_blocks, "_deal", lambda sizes, shares: deals.append(
            (sizes, original(sizes, shares))) or deals[-1][1])
        many = RowMap(spec, X, groups)
        many._group_means(None)
        (sizes, dealt), = deals
        loads = [sum(sizes[i] for i in share) for share in dealt]
        assert len(dealt) == cpus and sorted(sum(dealt, [])) == list(range(10))
        assert max(loads) - min(loads) <= max(sizes)
        for got, want in zip(many._sums[:2], one._sums[:2]):
            assert got.tobytes() == want.tobytes()

    def test_group_labels_are_one_per_row(self):
        with pytest.raises(ValueError, match="one label per mapped row"):
            RowMap(RegressorSpec(feature_count=8), np.zeros((5, 2)), np.zeros(4))


def serial_sums(phi, rows, w=None, v=None):
    """``learners._raw_sums`` as one loop over the row blocks in the calling
    thread, each block's sums added to zeros in block order."""
    n, F = phi.shape[0] if rows is None else rows.size, phi.shape[1]
    gram, total, rhs = np.zeros((F, F)), np.zeros(F), np.zeros(F)
    edges = _blocks._block_edges(n)
    for lo, hi in zip(edges, edges[1:]):
        block = phi[lo:hi] if rows is None else phi[rows[lo:hi]]
        total += block.sum(axis=0) if w is None else w[lo:hi] @ block
        if v is not None:
            rhs += block.T @ v[lo:hi]
        B = block if w is None else np.sqrt(w[lo:hi])[:, None] * block
        gram += B.T @ B
    return gram, total, rhs


def predict_mapped(models, phi, rows=None, copied=False):
    """``learners._predict_mapped`` at ``rows`` of ``phi`` (all when None), as
    ``RowMap.predict`` calls it; ``copied`` copies each block of views into
    the share's buffer first, as a block of ``predict_many`` is mapped into
    it, so that the last model centers it in place."""
    edges, take = learners._row_blocks(phi, rows)
    fills = copied or rows is not None
    if copied:
        view = take

        def take(span, out):
            np.copyto(out[:span.stop - span.start], view(span, None))
            return out[:span.stop - span.start]
    return learners._predict_mapped(models, edges, take, phi.shape[1], fills)


def serial_predictions(models, phi, rows=None):
    """``learners._predict_mapped`` as one loop over the row blocks in the
    calling thread."""
    n = phi.shape[0] if rows is None else rows.size
    outs = [np.empty(n) for _ in models]
    edges = _blocks._block_edges(n)
    for lo, hi in zip(edges, edges[1:]):
        block = phi[lo:hi] if rows is None else phi[rows[lo:hi]]
        for model, out in zip(models, outs):
            out[lo:hi] = (block - model.params["phi_mean"]) @ model.params["beta"]
    return [out + model.params["intercept"] for model, out in zip(models, outs)]


class RidgePasses:
    """Every ridge row pass on one 9,000 x 64 grouped map (12 groups), as
    bytes by name: group sums, ``_raw_sums`` weighted and uniform on views
    and gathered rows, ``RidgeDesign._rhs`` on both, and ``_predict_mapped``
    of one and two models on views, gathered rows and copied blocks, which
    the last model centers in place."""

    def __init__(self, seed=40, n=9000):
        rng = np.random.default_rng(seed)
        self.spec = RegressorSpec(feature_count=64, bandwidth=1.5, ridge_lambda=1e-3)
        self.X, self.groups = rng.normal(size=(n, 3)), rng.integers(0, 12, n)
        self.at = np.sort(rng.choice(n, size=7000, replace=False))
        self.y, self.w, self.v = rng.normal(size=n), rng.uniform(0.2, 2.0, n), rng.normal(size=n)
        self.w /= self.w.sum()
        raw = RowMap(self.spec, self.X)
        self.models = [raw.fit(self.spec, self.y), raw.fit(self.spec, -self.y, self.w)]

    def run(self) -> dict:
        raw = RowMap(self.spec, self.X, self.groups)
        raw._group_means(None)
        got = {"group grams": raw._sums[0], "group totals": raw._sums[1]}
        for where, rows in (("views", None), ("gathered", self.at)):
            n = raw.n_rows if rows is None else rows.size
            w, v = self.w[:n] / self.w[:n].sum(), self.v[:n]
            for weights in ("uniform", "weighted"):
                sums = learners._raw_sums(raw.phi, rows, None if weights == "uniform" else w, v)
                got.update({f"{weights} {where} {name}": value
                            for name, value in zip(("gram", "total", "rhs"), sums)})
            got[f"rhs {where}"] = RidgeDesign(raw, w, rows)._rhs(v)
            for count in (1, 2):
                for name, copied in (("", False), (" in place", True)):
                    if copied and rows is not None:
                        continue
                    outs = predict_mapped(self.models[:count], raw.phi, rows, copied)
                    got.update({f"{count} models {where}{name} {k}": o
                                for k, o in enumerate(outs)})
        return {name: value.tobytes() for name, value in got.items()}

    def serial(self) -> dict:
        """:meth:`run`'s values from :func:`serial_sums` and
        :func:`serial_predictions`."""
        phi = RowMap(self.spec, self.X).phi
        want = {}
        for g in range(12):
            gram, total, _ = serial_sums(phi, np.flatnonzero(self.groups == g))
            want.setdefault("group grams", []).append(gram)
            want.setdefault("group totals", []).append(total)
        want = {name: np.array(parts) for name, parts in want.items()}
        for where, rows in (("views", None), ("gathered", self.at)):
            n = phi.shape[0] if rows is None else rows.size
            w, v = self.w[:n] / self.w[:n].sum(), self.v[:n]
            for weights in ("uniform", "weighted"):
                sums = serial_sums(phi, rows, None if weights == "uniform" else w, v)
                want.update({f"{weights} {where} {name}": value
                             for name, value in zip(("gram", "total", "rhs"), sums)})
            want[f"rhs {where}"] = serial_sums(phi, rows, v=v)[2]
            for count in (1, 2):
                outs = serial_predictions(self.models[:count], phi, rows)
                for name in ("",) if rows is not None else ("", " in place"):
                    want.update({f"{count} models {where}{name} {k}": o
                                 for k, o in enumerate(outs)})
        return {name: value.tobytes() for name, value in want.items()}


class TestBlockPass:
    """Ridge grams, right-hand sides and mapped predictions run their row
    blocks on every CPU while the one-thread BLAS limit is in force
    (``tvcate._blocks``), with the bits of one share; in one share in the
    calling thread otherwise."""

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_shares_have_the_bits_of_one_share(self, cpus, small, monkeypatch):
        # 9,000 rows are three blocks (a group of about 750, one); under
        # 97-row blocks 93 (a group, eight), so every share runs many
        set_blocks(monkeypatch, blas=1, blas_rows=97 if small else None)
        passes = RidgePasses()
        set_blocks(monkeypatch, 1)
        want = passes.run()
        set_blocks(monkeypatch, cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [passes.run() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert _blocks._shares(93 if small else 3) == min(cpus, 93 if small else 3)
        for run in got:
            assert run.keys() == want.keys()
            assert [name for name in want if run[name] != want[name]] == []

    @pytest.mark.parametrize("blas,cpus", [(0, 3), (1, 1), (None, 3)])
    def test_one_share_keeps_the_serial_bits(self, blas, cpus, monkeypatch):
        # 0: the limit is not in force (a BLAS whose count cannot be set);
        # None: this process's own, outside a package call.  Without the
        # limit every pass is one share in the calling thread, whatever the
        # CPUs
        set_blocks(monkeypatch, cpus, blas=blas)
        threads, original = set(), learners._gram

        def recording(phi, *args):
            threads.add(threading.current_thread().name)
            return original(phi, *args)
        monkeypatch.setattr(learners, "_gram", recording)
        passes = RidgePasses()
        threads.clear()
        got, want = passes.run(), passes.serial()
        assert _blocks._shares(3) == (cpus if _blocks._limit_in_force() else 1)
        if not _blocks._limit_in_force():
            assert threads == {threading.current_thread().name}
        assert got.keys() == want.keys()
        assert [name for name in want if got[name] != want[name]] == []

    @pytest.mark.parametrize("which", ["group sums", "sums", "predictions"])
    def test_share_error_is_raised_in_the_caller_and_no_thread_outlives_a_pass(
            self, which, monkeypatch):
        # the block at row 4096 (the second, one block per CPU) or, of the
        # group sums, the second group fails, on a started thread
        set_blocks(monkeypatch, 3, blas=1)
        names, original = set(), learners._row_blocks
        passes = RidgePasses()
        raw = RowMap(passes.spec, passes.X, passes.groups)
        second = np.flatnonzero(passes.groups == 1)

        def row_blocks(phi, rows=None):
            edges, take = original(phi, rows)

            def failing(span, out):
                names.add(threading.current_thread().name)
                if span.start == 4096 or (rows is not None and rows.size == second.size
                                          and np.array_equal(rows, second)):
                    raise ArithmeticError("in a share's block")
                return take(span, out)
            return edges, failing
        monkeypatch.setattr(learners, "_row_blocks", row_blocks)
        threads = threading.active_count()
        run = {"group sums": lambda: raw._group_means(None),
               "sums": lambda: learners._raw_sums(raw.phi, passes.at, None, passes.v[:7000]),
               "predictions": lambda: predict_mapped(passes.models, raw.phi)}[which]
        with pytest.raises(ArithmeticError, match="in a share's block"):
            run()
        assert "tvcate-block" in names
        assert threading.active_count() == threads

    @pytest.mark.parametrize("gathered", [False, True])
    def test_two_share_peak_memory_is_a_block_and_a_slot_per_share(self, gathered,
                                                                   monkeypatch):
        # weighted sums over 20,000 x 256 (the map is 41 MB) on two shares:
        # a block buffer and a gram slot per share and the gram; predictions
        # of two models, their outputs and a block per share; never N x F
        set_blocks(monkeypatch, 2, blas=1)
        rng = np.random.default_rng(41)
        raw = RowMap(RegressorSpec(), rng.normal(size=(20_000, 3)))
        rows = np.sort(rng.choice(20_000, size=15_000, replace=False)) if gathered else None
        n = 20_000 if rows is None else rows.size
        w, v = rng.uniform(0.1, 3.0, n), rng.normal(size=n)
        models = [raw.fit(RegressorSpec(), rng.normal(size=20_000)) for _ in range(2)]
        blocks, grams = 2 * 4097 * 256 * 8, 3 * 256 * 256 * 8
        for run, bound in ((lambda: learners._raw_sums(raw.phi, rows, w / w.sum(), v),
                            blocks + grams),
                           (lambda: predict_mapped(models, raw.phi, rows),
                            blocks + 2 * n * 8)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound + 2 ** 20


class TestSpecCounts:
    @pytest.mark.parametrize("make,field", [
        (lambda v: RegressorSpec(feature_count=v), "feature_count"),
        (lambda v: ClassifierSpec(feature_count=v), "feature_count"),
        (lambda v: ClassifierSpec(max_iter=v), "max_iter"),
    ])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "8"])
    def test_non_integer_counts_rejected_naming_the_field(self, make, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make(value)

    def test_numpy_integers_accepted(self):
        assert RegressorSpec(feature_count=np.int64(16)).feature_count == 16
        assert ClassifierSpec(feature_count=np.int32(8), max_iter=np.int64(5)).max_iter == 5


class TestLookupTable:
    def test_row_map_holds_the_rows_themselves(self):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 3, size=(500, 2)).astype(float)
        y, w = rng.normal(size=500), rng.uniform(0.5, 2.0, 500)
        cells = RowMap(LOOKUP_TABLE, X)
        assert cells.phi is not None and np.array_equal(cells.phi, X)
        at = np.flatnonzero(rng.uniform(size=500) < 0.6)
        for weight, rows in ((None, None), (w, None), (None, at), (w[at], at)):
            pick = slice(None) if rows is None else rows
            got = cells.fit(LOOKUP_TABLE, y[pick], weight, rows)
            want = fit_regressor(LOOKUP_TABLE, X[pick], y[pick], weight)
            assert got.params == want.params and got.n_rows == want.n_rows
            assert np.array_equal(cells.predict([got], at)[0], want.predict(X[at]))
        assert cells._design is None

    def test_weighted_mean_of_matching_rows(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([2.0, 4.0, 9.0])
        w = np.array([1.0, 3.0, 1.0])
        model = fit_regressor(RegressorSpec(kind="lookup-table"), X, y, w)
        # cell (0,1): weighted mean (1*2 + 3*4)/4 = 3.5
        assert model.predict(np.array([0.0, 1.0])) == pytest.approx(3.5)
        assert model.predict(np.array([1.0, 0.0])) == pytest.approx(9.0)

    def test_unseen_key_falls_back_to_global_mean(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([2.0, 6.0])
        model = fit_regressor(RegressorSpec(kind="lookup-table"), X, y)
        assert model.predict(np.array([7.0])) == pytest.approx(4.0)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["ridge-random-features", "lookup-table"])
    def test_regressor_round_trip(self, kind):
        rng = np.random.default_rng(6)
        X = rng.integers(0, 3, size=(40, 2)).astype(float)
        y = rng.normal(size=40)
        model = fit_regressor(RegressorSpec(kind=kind, feature_count=8, seed=1), X, y)
        clone = FittedRegressor.from_dict(model.to_dict())
        grid = rng.integers(0, 3, size=(15, 2)).astype(float)
        np.testing.assert_allclose(clone.predict(grid), model.predict(grid), atol=1e-15)

    def test_classifier_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 2))
        labels = (X[:, 0] + rng.normal(0, 0.5, 200) > 0).astype(int)
        model = fit_classifier(ClassifierSpec(feature_count=16, seed=2), X, labels)
        clone = FittedClassifier.from_dict(model.to_dict())
        grid = rng.normal(size=(20, 2))
        np.testing.assert_allclose(clone.predict_proba(grid), model.predict_proba(grid),
                                   atol=1e-15)


    @staticmethod
    def bundled(kind):
        """A small fitted model of ``kind``'s state and its loader."""
        rng = np.random.default_rng(8)
        X = rng.integers(0, 3, size=(60, 2)).astype(float)
        if kind == "classifier":
            model = fit_classifier(ClassifierSpec(feature_count=8, l2=1e-2), X, X[:, 0] > 0)
            return model.to_dict(), FittedClassifier.from_dict
        spec = LOOKUP_TABLE if kind == "lookup" else RegressorSpec(feature_count=8, seed=1)
        return fit_regressor(spec, X, rng.normal(size=60)).to_dict(), FittedRegressor.from_dict

    @pytest.mark.parametrize("kind,path,value", [
        ("ridge", "in_dim", [1, 2]), ("ridge", "in_dim", 2.5), ("ridge", "n_rows", -1),
        ("ridge", "spec", 3), ("ridge", "spec", [1, 2]), ("ridge", "spec.bandwidth", "x"),
        ("ridge", "spec.feature_count", 2.5), ("ridge", "params.intercept", None),
        ("ridge", "params.intercept", float("nan")), ("ridge", "params.ridge_lambda_used", -1),
        ("ridge", "params.ridge_lambda_used", "x"), ("lookup", "params.default", None),
        ("lookup", "params.default", float("inf")), ("classifier", "in_dim", [1, 2]),
        ("classifier", "in_dim", True), ("classifier", "n_classes", 1),
        ("classifier", "n_rows", -1), ("classifier", "n_rows", 2.5), ("classifier", "spec", 3),
        ("classifier", "spec", [1, 2]), ("classifier", "spec.bandwidth", "x"),
        ("classifier", "params.l2_used", None), ("classifier", "params.l2_used", float("nan")),
        ("classifier", "params.l2_used", -1e-3)])
    def test_a_bad_scalar_raises_value_error_naming_its_field(self, kind, path, value):
        state, load = self.bundled(kind)
        load(json.loads(json.dumps(state)), "model")
        *parents, key = path.split(".")
        node = state
        for parent in parents:
            node = node[parent]
        node[key] = value
        field = "spec" if path.startswith("spec") else path
        with pytest.raises(ValueError, match=f"^model: {re.escape(field)}"):
            load(state, "model")

    @pytest.mark.parametrize("kind", ["ridge", "classifier"])
    @pytest.mark.parametrize("key,value", [
        ("seed", None), ("seed", 2.5), ("seed", float("nan")), ("seed", "x"), ("seed", -1),
        ("seed", True), ("bandwidth", float("nan")), ("bandwidth", float("inf")),
        ("bandwidth", 0), ("bandwidth", "x")])
    def test_a_bad_seed_or_bandwidth_is_refused_naming_the_field(self, kind, key, value):
        # refused when the spec is built, not when a fit draws an unseeded map
        # or a loaded digest fails to match the map drawn from the spec
        cls = ClassifierSpec if kind == "classifier" else RegressorSpec
        with pytest.raises(ValueError, match=f"^{key} must be"):
            cls(**{key: value})
        state, load = self.bundled(kind)
        state["spec"][key] = value
        with pytest.raises(ValueError, match=f"^model: spec: {key} must be"):
            load(state, "model")


class TestClassifier:
    def test_balanced_label_independent_data_predicts_half(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10000, 2))
        labels = np.tile([0, 1], 5000)
        linear = fit_classifier(ClassifierSpec(use_random_features=False, seed=3), X, labels)
        assert np.abs(linear.predict_proba(X[:2000]) - 0.5).max() <= 0.02
        # the random-feature variant wiggles a little more pointwise but the
        # fitted surface stays centered on 1/2
        rff = fit_classifier(ClassifierSpec(seed=3), X, labels)
        proba = rff.predict_proba(X[:2000])
        assert np.abs(proba - 0.5).mean() <= 0.02
        assert np.abs(proba - 0.5).max() <= 0.05

    def test_separated_data_monotone_probabilities(self):
        x = np.linspace(-2, 2, 400)[:, None]
        labels = (x[:, 0] > 0).astype(int)
        model = fit_classifier(ClassifierSpec(use_random_features=False, l2=1e-2, seed=0),
                               x, labels)
        grid = np.linspace(-3, 3, 60)[:, None]
        p1 = model.predict_proba(grid)[:, 1]
        assert np.all(np.diff(p1) > 0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(500, 2))
        labels = rng.integers(0, 3, 500)
        model = fit_classifier(ClassifierSpec(feature_count=16, seed=4), X, labels,
                               n_classes=3)
        proba = model.predict_proba(rng.normal(size=(100, 2)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba > 0) and np.all(proba < 1)

    def test_single_class_data_errors(self):
        X = np.zeros((10, 1))
        with pytest.raises(ValueError, match="single-class"):
            fit_classifier(ClassifierSpec(), X, np.zeros(10, dtype=int))

    def test_analytic_gradient_matches_finite_differences(self):
        from tvcate.learners import _nll_and_grad

        rng = np.random.default_rng(10)
        n, p, K = 30, 4, 3
        phi = rng.normal(size=(n, p))
        labels = rng.integers(0, K, n)
        w = rng.uniform(0.2, 1.0, n)
        w /= w.sum()
        theta = rng.normal(scale=0.5, size=p * K)
        _, grad = _nll_and_grad(theta, phi, labels, w, 1e-3, K)
        eps = 1e-6
        fd = np.empty_like(theta)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            fd[j] = (_nll_and_grad(up, phi, labels, w, 1e-3, K)[0]
                     - _nll_and_grad(dn, phi, labels, w, 1e-3, K)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_weighted_fit_recovers_logit_slope_sign(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5000, 1))
        p = sigmoid(1.5 * x[:, 0])
        labels = (rng.uniform(size=5000) < p).astype(int)
        model = fit_classifier(ClassifierSpec(use_random_features=False, l2=1e-4, seed=0),
                               x, labels)
        lo = model.predict_proba(np.array([-2.0]))
        hi = model.predict_proba(np.array([2.0]))
        assert lo[1] < 0.2 and hi[1] > 0.8

    @staticmethod
    def signal(n, seed):
        """``n`` rows of 2 inputs and labels drawn with P(1) = expit(1.5 x0 - x1)."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        return X, (rng.uniform(size=n) < sigmoid(1.5 * X[:, 0] - X[:, 1])).astype(int)

    @pytest.mark.parametrize("spec", [ClassifierSpec(feature_count=16, l2=1e-3, seed=1),
                                      ClassifierSpec(feature_count=16, seed=1),
                                      ClassifierSpec(use_random_features=False, l2=0.0)])
    def test_two_class_fit_is_the_softmax_optimum(self, spec):
        # the Newton solve on one vector lands on the optimum of the
        # two-column softmax objective, with rows of theta summing to zero
        from tvcate.learners import _design, _nll_and_grad

        X, labels = self.signal(3000, 12)
        w = np.random.default_rng(13).uniform(0.5, 2.0, 3000)
        model = fit_classifier(spec, X, labels, w)
        theta = model.params["theta"]
        assert np.all(theta.sum(axis=1) == 0.0)
        phi = _design(X, model.params.get("W"), model.params.get("b"))
        _, grad = _nll_and_grad(theta.ravel(), phi, labels, w / w.sum(),
                                model.params["l2_used"], 2)
        assert np.abs(grad).max() <= 1e-6

    def test_two_class_loss_and_hessian_match_the_softmax_and_finite_differences(self):
        from tvcate.learners import _BinaryLoss, _nll_and_grad

        rng = np.random.default_rng(14)
        n, p = 40, 5
        phi = np.hstack([rng.normal(size=(n, p - 1)), np.ones((n, 1))])
        labels = rng.integers(0, 2, n)
        y = labels.astype(float)
        w = rng.uniform(0.2, 1.0, n)
        w /= w.sum()
        beta = rng.normal(size=p)
        loss = _BinaryLoss(phi, y, w, 1e-2)
        nll, grad = loss.loss_and_grad(beta)
        soft_nll, soft_grad = _nll_and_grad(np.column_stack([-beta / 2, beta / 2]).ravel(),
                                            phi, labels, w, 1e-2, 2)
        np.testing.assert_allclose(nll, soft_nll, rtol=1e-12)
        np.testing.assert_allclose(grad, soft_grad.reshape(p, 2)[:, 1], rtol=1e-10, atol=1e-15)
        hess = loss.hessian(beta)
        eps = 1e-6
        fd = np.empty((p, p))
        for j in range(p):
            up, dn = beta.copy(), beta.copy()
            up[j] += eps
            dn[j] -= eps
            fd[:, j] = (loss.loss_and_grad(up)[1] - loss.loss_and_grad(dn)[1]) / (2 * eps)
        np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_solver_that_stops_short_raises(self, n_classes):
        X, labels = self.signal(2000, 15)
        if n_classes == 3:
            labels = labels + (X[:, 1] > 1.0)
        with pytest.raises(ValueError, match="failed to converge within 1 iterations; "
                                             "final gradient max-norm"):
            fit_classifier(ClassifierSpec(use_random_features=False, l2=1e-3, max_iter=1),
                           X, labels, n_classes=n_classes)

    @pytest.mark.parametrize("spec", [ClassifierSpec(use_random_features=False, l2=0.0),
                                      ClassifierSpec(feature_count=16, l2=0.0)])
    def test_separated_data_without_penalty_raises_no_warning(self, spec):
        # the logits grow without bound; the loss and its derivatives must
        # neither overflow nor warn (a warning would reach a run's advisories)
        x = np.linspace(-2, 2, 400)[:, None]
        labels = (x[:, 0] > 0).astype(int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_classifier(spec, x, labels)
            p1 = model.predict_proba(x)[:, 1]
        assert np.all(p1[labels == 1] > 0.5) and np.all(p1[labels == 0] < 0.5)

    def test_training_rows_have_the_bits_of_a_bundled_copy(self):
        # a fit holds its parameters alone: at its training rows it maps them
        # again, with the bits of the blocks of the fit's design and of a
        # copy loaded from its bundle
        X, labels = self.signal(9000, 16)
        model = fit_classifier(ClassifierSpec(l2=1e-2, seed=2), X, labels)
        clone = FittedClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
        proba = model.predict_proba(X)
        assert same_bits(proba, clone.predict_proba(X.copy()))
        design = learners._design(X, model.params["W"], model.params["b"])
        assert same_bits(proba, serial_proba(model, design))

    def test_peak_memory_does_not_grow_with_the_rows(self, monkeypatch):
        # per share, a block of the 64-feature map and the block of design
        # rows it is copied into at most, whatever the row count
        set_blocks(monkeypatch, 2, blas=1)
        X, labels = self.signal(500, 17)
        model = fit_classifier(ClassifierSpec(l2=1e-2), X, labels)
        peaks = []
        for rows in (10_000, 40_000):
            grid = np.random.default_rng(rows).normal(size=(rows, 2))
            tracemalloc.start()
            try:
                proba = model.predict_proba(grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - proba.nbytes)
        two_blocks = 2 * 4097 * (64 + 65) * 8        # about 8.5 MB: two shares
        assert max(peaks) <= two_blocks + 2 ** 20
        assert abs(peaks[1] - peaks[0]) <= 2 ** 20


def serial_proba(model, design=None, X=None):
    """``predict_proba`` as one loop over the row blocks in the calling
    thread: each block's design rows, mapped afresh from ``X`` (or taken
    from ``design``), times ``theta``, then clipped and renormalized."""
    W, b, theta = model.params.get("W"), model.params.get("b"), model.params["theta"]
    n = (design if X is None else X).shape[0]
    P = np.empty((n, theta.shape[1]))
    edges = _blocks._block_edges(n)
    for lo, hi in zip(edges, edges[1:]):
        if X is not None:
            rows = X[lo:hi] if W is None else learners._cosine_features(X[lo:hi], W, b)
            block = np.hstack([rows, np.ones((hi - lo, 1))])
        else:
            block = design[lo:hi]
        P[lo:hi] = learners._softmax(block @ theta)
    np.clip(P, learners._PROB_EPS, 1.0 - learners._PROB_EPS, out=P)
    return P / P.sum(axis=1, keepdims=True)


class TestClassifierShares:
    """The classifier's design and predictions run their 4096-row blocks on
    the shares, with the bits of one share."""

    @staticmethod
    def model(kind):
        X, labels = TestClassifier.signal(3000, 40)
        if kind == "three classes":
            labels = labels + (X[:, 1] > 1.0)
        spec = (ClassifierSpec(use_random_features=False, l2=1e-2) if kind == "plain"
                else ClassifierSpec(l2=1e-2, seed=5))
        return fit_classifier(spec, X, labels)

    @pytest.mark.parametrize("kind", ["cosine", "plain", "three classes"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_predictions_have_the_bits_of_one_share(self, cpus, kind, monkeypatch):
        set_blocks(monkeypatch, cpus, blas=1)
        model = self.model(kind)
        grid = np.random.default_rng(41).normal(size=(12_000, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = {n: model.predict_proba(grid[:n]) for n in (1, 2, 4097, 4098, 8193, 12_000)}
        finally:
            sys.setswitchinterval(interval)
        assert _blocks._shares(3) == cpus
        assert [n for n, P in got.items()
                if not same_bits(P, serial_proba(model, X=grid[:n]))] == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_designs_have_the_bits_of_one_cpu(self, cpus, monkeypatch):
        X = np.random.default_rng(42).normal(size=(12_000, 3))
        W, b = learners.random_cosine_map(3, 64, 2.0, 6)
        set_blocks(monkeypatch, 1, blas=1)
        want = [learners._design(X, W, b), learners._design(X, None, None)]
        set_blocks(monkeypatch, cpus)
        got = [learners._design(X, W, b), learners._design(X, None, None)]
        assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_without_the_limit_fits_and_predictions_have_the_one_cpu_bits(self, monkeypatch):
        # a BLAS whose count cannot be set runs the one-CPU layout: the same
        # blocks and sub-blocks on one share, whatever the CPUs
        X, labels = TestClassifier.signal(9000, 43)
        grid = np.random.default_rng(44).normal(size=(9000, 2))
        rng = np.random.default_rng(45)
        models, rows = TestPredictMany.share_models(rng), rng.normal(size=(9000, 19))
        y, w = rng.normal(size=9000), rng.uniform(0.5, 2.0, 9000)

        def run():
            classifier = fit_classifier(ClassifierSpec(seed=3), X, labels)
            raw = RowMap(models[0].spec, rows)
            ridge = raw.fit(models[0].spec, y, w)
            outs = [classifier.params["theta"], classifier.predict_proba(grid),
                    ridge.params["beta"]]
            return [out.tobytes() for out in outs + predict_many(models + [ridge], rows)
                    + raw.predict([ridge, models[0]], np.arange(0, 9000, 2))]
        set_blocks(monkeypatch, 1, blas=1)
        want = run()
        set_blocks(monkeypatch, 3, blas=0)
        assert _blocks._shares(3) == 1
        got = run()
        assert [k for k, (a, b) in enumerate(zip(got, want)) if a != b] == []


def whole_row_loss(beta, phi, y, w, l2):
    """The two-class loss, gradient and Hessian as whole-row products: the
    formulas of the separate loss-and-gradient and Hessian functions the
    fused pass replaced, each making its own ``phi @ beta``."""
    z = phi @ beta
    nll = float(w @ (np.logaddexp(0.0, z) - y * z))
    grad = phi.T @ (w * (special.expit(z) - y))
    nll += 0.25 * l2 * float(beta[:-1] @ beta[:-1])
    grad[:-1] += 0.5 * l2 * beta[:-1]
    z = phi @ beta
    A = phi * np.sqrt(w * special.expit(z) * special.expit(-z))[:, None]
    hess = A.T @ A
    off = np.arange(beta.size - 1)
    hess[off, off] += 0.5 * l2
    return nll, grad, hess


def binary_problem(n, seed, features=64):
    """``n`` design rows (``features`` columns and the intercept's), 0/1
    labels, normalized weights and a point beta."""
    rng = np.random.default_rng(seed)
    phi = np.hstack([rng.normal(size=(n, features)), np.ones((n, 1))])
    y = (rng.uniform(size=n) < 0.4).astype(float)
    w = rng.uniform(0.2, 1.0, n)
    return phi, y, w / w.sum(), rng.normal(scale=0.3, size=features + 1)


def loss_bytes(values):
    nll, grad, hess = values
    return np.float64(nll).tobytes(), grad.tobytes(), hess.tobytes()


def signal_fit(spec, n, seed):
    X, labels = TestClassifier.signal(n, seed)
    return fit_classifier(spec, X, labels)


class TestNewtonPass:
    """The two-class solve's fused pass: loss, gradient and Hessian at a
    point in one pass of fixed row blocks on every CPU while the one-thread
    BLAS limit is in force, in one block otherwise."""

    @pytest.mark.parametrize("blas,rows", [(0, 4097), (1, 40), (1, 4097)])
    def test_one_block_has_the_bits_of_the_whole_row_formulas(self, blas, rows, monkeypatch):
        # 0: the limit is not in force (a BLAS whose count cannot be set);
        # with it or without, a table of up to 4097 rows is one block
        set_blocks(monkeypatch, blas=blas)
        phi, y, w, beta = binary_problem(rows, rows)
        loss = learners._BinaryLoss(phi, y, w, 1e-3)
        assert loss.edges == [0, rows] and len(loss.scratch) == 1
        assert loss_bytes(loss._at(beta)) == loss_bytes(whole_row_loss(beta, phi, y, w, 1e-3))

    def test_blocks_are_the_whole_row_values_to_rounding(self, monkeypatch):
        set_blocks(monkeypatch, blas=1)
        phi, y, w, beta = binary_problem(20_003, 30)
        loss = learners._BinaryLoss(phi, y, w, 1e-3)
        assert loss.edges == [0, 4096, 8192, 12288, 16384, 20_003]
        got, want = loss._at(beta), whole_row_loss(beta, phi, y, w, 1e-3)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-13)
        for value, whole in zip(got[1:], want[1:]):
            assert np.abs(value - whole).max() <= 1e-13 * np.abs(whole).max()

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_blocks_have_the_bits_of_one_cpu(self, cpus, small, monkeypatch):
        # 20,003 rows are five blocks; in 97-row BLAS blocks (and table
        # blocks) 207, so every share runs many, switching threads often
        set_blocks(monkeypatch, blas=1, blas_rows=97 if small else None)
        phi, y, w, beta = binary_problem(20_003, 31)
        set_blocks(monkeypatch, 1, table_rows=97)
        want = loss_bytes(learners._BinaryLoss(phi, y, w, 1e-3)._at(beta))
        set_blocks(monkeypatch, cpus, table_rows=97)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            losses = [learners._BinaryLoss(phi, y, w, 1e-3) for _ in range(3)]
            got = [loss_bytes(loss._at(beta)) for loss in losses]
        finally:
            sys.setswitchinterval(interval)
        assert len(losses[0].scratch) == min(cpus, len(losses[0].edges) - 1)
        assert got == [want] * 3

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_fits_have_the_bits_of_one_cpu(self, cpus, monkeypatch):
        # the penalty grid's solves and the last, and the probabilities at
        # the training rows
        set_blocks(monkeypatch, blas=1)
        spec = ClassifierSpec(seed=3)
        X = TestClassifier.signal(12_000, 32)[0]
        set_blocks(monkeypatch, 1)
        want = signal_fit(spec, 12_000, 32)
        want_proba = want.predict_proba(X)
        set_blocks(monkeypatch, cpus)
        got = signal_fit(spec, 12_000, 32)
        assert got.params["l2_used"] == want.params["l2_used"]
        assert got.params["theta"].tobytes() == want.params["theta"].tobytes()
        assert same_bits(got.predict_proba(X), want_proba)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_process_fits_with_the_bits_of_every_cpu(self):
        script = """
            import hashlib, os
            import numpy as np
            from tvcate import _blocks
            from tvcate.learners import ClassifierSpec, fit_classifier
            if PIN:
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            rng = np.random.default_rng(33)
            X = rng.normal(size=(12000, 2))
            p = 1.0 / (1.0 + np.exp(X[:, 1] - 1.5 * X[:, 0]))
            model = fit_classifier(ClassifierSpec(seed=3), X, (rng.uniform(size=12000) < p))
            digest = hashlib.sha256(model.params["theta"].tobytes())
            digest.update(model.predict_proba(X).tobytes())
            print(_blocks._usable_cpus(), model.params["l2_used"], digest.hexdigest())
            """
        pinned, free = (run_on_one_thread(script.replace("PIN", repr(pin))).split()
                        for pin in (True, False))
        assert pinned[0] == "1" and free[0] == str(len(os.sched_getaffinity(0)))
        assert pinned[1:] == free[1:]

    def test_grid_warm_starts_are_evaluated_under_their_own_penalty(self, monkeypatch):
        # each grid solve starts where the last one stopped: the same beta
        # under a new l2, whose values must be evaluated afresh
        calls, original = [], learners._BinaryLoss._at

        def recording(self, beta):
            values = original(self, beta)
            calls.append((self, beta.copy(), loss_bytes(values)))
            return values
        monkeypatch.setattr(learners._BinaryLoss, "_at", recording)
        signal_fit(ClassifierSpec(feature_count=16, seed=4), 3000, 34)
        monkeypatch.setattr(learners._BinaryLoss, "_at", original)
        penalties = collections.defaultdict(set)
        for loss, beta, got in calls:
            fresh = learners._BinaryLoss(loss.phi, loss.y, loss.w, loss.l2)
            assert loss_bytes(fresh._at(beta)) == got
            penalties[loss.phi.shape[0], beta.tobytes()].add(loss.l2)
        grid = learners.CLASSIFIER_L2_GRID
        warm = sorted(sorted(l2s) for (rows, beta), l2s in penalties.items()
                      if len(l2s) > 1 and np.frombuffer(beta).any())
        assert warm == [[lo, hi] for lo, hi in zip(grid, grid[1:])]

    def test_block_error_is_raised_in_the_caller_and_no_thread_outlives_a_solve(
            self, monkeypatch):
        # 9,000 rows are three blocks, one per CPU: the second runs on a
        # started thread
        set_blocks(monkeypatch, 3, blas=1)
        names, fail, original = set(), [False], learners._BinaryLoss._block

        def block(self, beta, span, j):
            names.add(threading.current_thread().name)
            if fail[0] and span.start == 4096:
                raise ArithmeticError("in the second block")
            return original(self, beta, span, j)
        monkeypatch.setattr(learners._BinaryLoss, "_block", block)
        threads = threading.active_count()
        spec = ClassifierSpec(l2=1e-2, seed=2)
        signal_fit(spec, 9000, 35)
        assert names == {threading.current_thread().name, "tvcate-block"}
        assert threading.active_count() == threads
        fail[0] = True
        with pytest.raises(ArithmeticError, match="in the second block"):
            signal_fit(spec, 9000, 35)
        assert threading.active_count() == threads

    def test_pass_peak_memory_is_a_few_blocks(self, monkeypatch):
        # 40,000 x 65 design rows (20.8 MB): per CPU one 4097-row block and
        # four 4097-long vectors, and the blocks' slots, never N x 65
        set_blocks(monkeypatch, 2, blas=1)
        phi, y, w, beta = binary_problem(40_000, 36)
        tracemalloc.start()
        try:
            learners._BinaryLoss(phi, y, w, 1e-3)._at(beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = 2 * 4097 * (65 + 4) * 8                   # 4.5 MB
        slots = 9 * (1 + 65 + 65 * 65) * 8                  # 0.3 MB
        assert peak <= scratch + slots + 2 ** 20

    def test_without_an_openblas_count_the_pass_takes_one_share(self, monkeypatch):
        # a BLAS whose count cannot be set: the limit is never in force, and
        # the pass runs its blocks on one share, whatever the CPUs
        monkeypatch.setattr(_blocks, "_openblas", lambda: ())
        set_blocks(monkeypatch, 3)
        X, labels = TestClassifier.signal(9000, 37)
        layouts, original = [], learners._BinaryLoss.__init__

        def init(self, *args):
            original(self, *args)
            layouts.append((self.edges, len(self.scratch)))
        monkeypatch.setattr(learners._BinaryLoss, "__init__", init)
        fit_classifier(ClassifierSpec(l2=1e-2, seed=2), X, labels)
        assert layouts == [([0, 4096, 8192, 9000], 1)]
