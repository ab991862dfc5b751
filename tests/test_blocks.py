"""The block runners of ``tvcate._blocks``: which share runs which span,
where errors go, and the order block sums are added in; and the limit that
holds every loaded OpenBLAS at one thread while a package call runs."""

import sys
import threading
import types

import numpy as np
import pytest
import scipy

from tvcate import _blocks, learners
from tvcate.learners import ClassifierSpec, RegressorSpec, RowMap, fit_classifier, predict_many

from helpers import set_blocks


class TestRunSpans:
    @pytest.mark.parametrize("shares", [1, 2, 3, 8])
    def test_share_j_runs_every_pth_span_from_the_jth(self, shares):
        edges = [0, 3, 4, 9, 10, 12]
        ran = []
        got = _blocks._run_spans(edges, shares,
                                 lambda span, j: ran.append((span.start, j)) or span.stop)
        assert got == edges[1:]
        p = min(shares, 5)
        assert sorted(ran) == [(lo, k % p) for k, lo in enumerate(edges[:-1])]

    def test_error_is_raised_in_the_caller_and_no_thread_outlives_a_call(self):
        threads = threading.active_count()

        def work(span, j):
            if j == 1:
                raise ArithmeticError(f"in share {j}")
        with pytest.raises(ArithmeticError, match="in share 1"):
            _blocks._run_spans([0, 1, 2, 3], 3, work)
        assert threading.active_count() == threads


class TestDeal:
    @pytest.mark.parametrize("shares", [1, 2, 3, 8])
    def test_loads_differ_by_at_most_the_largest_size(self, shares):
        rng = np.random.default_rng(shares)
        for sizes in ([24_212 // 5, 788 // 5] * 5, rng.integers(1, 5000, 17).tolist(), [7]):
            dealt = _blocks._deal(sizes, shares)
            loads = [sum(sizes[i] for i in share) for share in dealt]
            assert len(dealt) == shares
            assert sorted(sum(dealt, [])) == list(range(len(sizes)))
            assert max(loads) - min(loads) <= max(sizes)

    def test_largest_first_to_the_least_loaded_share(self):
        assert _blocks._deal([5, 1, 5, 1, 5, 1], 2) == [[0, 4], [2, 1, 3, 5]]


class TestTableBlocks:
    def test_blocks_start_at_the_minimum_row_count(self):
        spans = []
        for n in (_blocks._TABLE_MIN_ROWS - 1, _blocks._TABLE_MIN_ROWS):
            spans.append(_blocks._table_blocks(n, lambda rows: (rows.start, rows.stop)))
        assert spans[0] == [(0, _blocks._TABLE_MIN_ROWS - 1)]
        assert spans[1] == [(0, 1 << 16), (1 << 16, _blocks._TABLE_MIN_ROWS)]


class TestBlockPassOrder:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_parts_are_added_in_block_order(self, cpus, monkeypatch):
        # parts whose sum depends on the order of the additions
        set_blocks(monkeypatch, cpus, blas=1)
        parts = np.array([[1.0], [1e16], [-1e16], [3.0], [1e16], [-1e16], [2.0]])
        want, backward = np.zeros(1), np.zeros(1)
        for part, trap in zip(parts, parts[::-1]):
            want += part
            backward += trap
        assert want != backward
        shares = _blocks._shares(len(parts))
        slots, total = np.empty((shares, 1)), np.zeros(1)

        def work(span, j):
            slots[j] = parts[span.start]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _blocks._block_pass(list(range(len(parts) + 1)), shares, work, [(total, slots)])
        finally:
            sys.setswitchinterval(interval)
        assert shares == min(cpus, len(parts))
        assert total.tobytes() == want.tobytes()


def blas_counts() -> list:
    """The thread count of each loaded OpenBLAS, as the limit reads it."""
    return [get() for get, _ in _blocks._openblas()]


@pytest.fixture
def at_two():
    """Every loaded OpenBLAS at two threads, through the limit's own calls,
    for one test; each library's count is put back after it."""
    if not _blocks._openblas():
        pytest.skip("no OpenBLAS thread count to set")
    before = blas_counts()
    for _, put in _blocks._openblas():
        put(2)
    yield [2] * len(before)
    for (_, put), count in zip(_blocks._openblas(), before):
        put(count)


@pytest.fixture(scope="module")
def fitted():
    """A ridge map of 9,000 rows (three blocks) of ``X`` under ``spec``, a
    model on it, and a classifier fitted on ``X``."""
    rng = np.random.default_rng(50)
    X, spec = rng.normal(size=(9000, 3)), RegressorSpec(feature_count=32)
    raw = RowMap(spec, X)
    labels = (rng.uniform(size=9000) < 0.3).astype(int)
    return types.SimpleNamespace(
        X=X, spec=spec, raw=raw, model=raw.fit(spec, rng.normal(size=9000)),
        clf=fit_classifier(ClassifierSpec(feature_count=16, l2=1e-2), X, labels))


#: each public entry point of ``tvcate.learners``: a call on ``fitted`` that
#: returns and one that raises ValueError
ENTRIES = {
    "RowMap": (lambda f: RowMap(f.spec, f.X), lambda f: RowMap(f.spec, f.X, np.zeros(3))),
    "RowMap.fit": (lambda f: f.raw.fit(f.spec, f.X[:, 0], f.X[:, 1] ** 2),
                   lambda f: f.raw.fit(f.spec, f.X[:5, 0])),
    "RowMap.predict": (lambda f: f.raw.predict([f.model], np.arange(5000)),
                       lambda f: f.raw.predict([learners.fit_regressor(
                           learners.LOOKUP_TABLE, f.X[:5], f.X[:5, 0])])),
    "predict_many": (lambda f: predict_many([f.model], f.X),
                     lambda f: predict_many([f.model], f.X[:, :2])),
    "fit_classifier": (lambda f: fit_classifier(f.clf.spec, f.X, f.X[:, 0] > 0),
                       lambda f: fit_classifier(f.clf.spec, f.X, np.zeros(len(f.X)))),
    "predict_proba": (lambda f: f.clf.predict_proba(f.X[:5000]),
                      lambda f: f.clf.predict_proba(f.X[:, :2])),
}


class TestBlasLimit:
    def test_lookup_finds_numpys_and_scipys_openblas(self):
        # on Linux each lists itself in the process's maps; the wheels bundle
        # one OpenBLAS each, NumPy's with 64-bit integers
        blas = [module.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
                for module in (np, scipy)]
        if not (sys.platform.startswith("linux") and all("openblas" in b for b in blas)):
            pytest.skip("NumPy and SciPy on OpenBLAS, on Linux")
        names = {get.__name__ for get, _ in _blocks._openblas()}
        if blas == ["scipy-openblas"] * 2:
            assert names == {"scipy_openblas_get_num_threads64_",
                             "scipy_openblas_get_num_threads"}
        assert names

    @pytest.mark.parametrize("raises", [False, True])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_each_entry_restores_every_librarys_count(self, entry, raises, fitted, at_two,
                                                       monkeypatch):
        inside, original = [], _blocks._limit_in_force

        def in_force():
            inside.append(blas_counts())
            return original()
        monkeypatch.setattr(_blocks, "_limit_in_force", in_force)
        if raises:
            with pytest.raises(ValueError):
                ENTRIES[entry][1](fitted)
        else:
            ENTRIES[entry][0](fitted)
        assert blas_counts() == at_two
        assert all(counts == [1] * len(at_two) for counts in inside)

    def test_a_share_thread_inside_a_pass_reads_one(self, fitted, at_two, monkeypatch):
        # a weighted fit of three blocks sums them on every CPU
        monkeypatch.setattr(_blocks, "_usable_cpus", lambda: 3)
        reads, original = {}, learners._gram

        def gram(*args):
            reads.setdefault(threading.current_thread().name, []).append(blas_counts())
            return original(*args)
        monkeypatch.setattr(learners, "_gram", gram)
        fitted.raw.fit(fitted.spec, fitted.X[:, 0], fitted.X[:, 1] ** 2)
        assert "tvcate-block" in reads
        assert all(counts == [1] * len(at_two) for read in reads.values() for counts in read)
        assert blas_counts() == at_two

    def test_a_nested_entry_leaves_the_limit_to_the_outer(self, fitted, at_two):
        @_blocks._one_blas_thread()
        def outer():
            predict_many([fitted.model], fitted.X)
            return blas_counts(), _blocks._limit_in_force()
        assert outer() == ([1] * len(at_two), True)
        assert blas_counts() == at_two and not _blocks._limit_in_force()

    def test_two_user_threads_leave_the_original_count(self, fitted, at_two):
        # the first holds the limit while the second enters and leaves
        X, model = fitted.X, fitted.model
        inside, release = threading.Event(), threading.Event()
        hold = threading.Thread(target=_blocks._one_blas_thread()(
            lambda: inside.set() or release.wait(60)))
        hold.start()
        assert inside.wait(60)
        want = predict_many([model], X[:5000])[0]
        try:
            assert blas_counts() == [1] * len(at_two)
        finally:
            release.set()
            hold.join(60)
        assert not hold.is_alive()
        assert blas_counts() == at_two and _blocks._limit_depth == 0
        # more user threads than CPUs enter and leave at once, switching
        # often: none may find a count restored while it is inside, and
        # their predictions keep the bits of one thread
        seen, got = [], []

        def enter(k):
            for _ in range(50):
                with _blocks._one_blas_thread():
                    seen.append(blas_counts())
            got.append(predict_many([model], X[:5000])[0])
        threads = [threading.Thread(target=enter, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 200 and all(counts == [1] * len(at_two) for counts in seen)
        assert [out.tobytes() for out in got] == [want.tobytes()] * 4
        assert blas_counts() == at_two and _blocks._limit_depth == 0
