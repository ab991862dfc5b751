"""Outside-in span tracer for the tvcate benchmark.

:func:`install` replaces public functions and methods of the ``tvcate``
modules with timing wrappers.  A function is replaced in every ``tvcate``
module namespace that binds it, so calls from one module into another are
caught too; nothing inside ``src/tvcate`` is edited.  Each wrapped call
records a span (name, start, end, parent) in memory; :meth:`Tracer.metrics`
turns the spans and the counters kept by the call hooks into the per-layer
metrics listed in ``LAYER_METRICS``, and :meth:`Tracer.write` saves the
spans when the run ends.

Self time is a span's duration minus the durations of its child spans and
minus the time the tracer spent in hooks while the span was open; total
time is the duration minus all hook time inside it (content fingerprints
are the tracer's work, not the program's).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
import weakref

import numpy as np

#: Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "panel.build_s": "s",
    "panel.trajectories": "count",
    "panel.csv_read_s": "s",
    "panel.csv_write_s": "s",
    "panel.csv_rows": "count",
    "panel.encode_history_s": "s",
    "panel.encode_history_calls": "count",
    "dgp.simulate_s": "s",
    "dgp.trajectories": "count",
    "nuisance.row_table_s": "s",
    "nuisance.row_tables": "count",
    "nuisance.row_tables_distinct": "count",
    "nuisance.row_table_rows": "count",
    "nuisance.encode_s": "s",
    "nuisance.encode_rows": "count",
    "nuisance.response_fit_s": "s",
    "nuisance.propensity_fit_s": "s",
    "nuisance.history_fit_s": "s",
    "nuisance.mu_queries": "count",
    "nuisance.mu_queries_distinct": "count",
    "nuisance.mu_s": "s",
    "nuisance.propensity_queries": "count",
    "nuisance.propensity_queries_distinct": "count",
    "nuisance.propensity_s": "s",
    "nuisance.bundle_write_s": "s",
    "nuisance.bundle_read_s": "s",
    "nuisance.bundle_bytes": "bytes",
    "learners.regressor_fits": "count",
    "learners.regressor_fit_rows": "count",
    "learners.regressor_fit_s": "s",
    "learners.regressor_predict_rows": "count",
    "learners.regressor_predict_s": "s",
    "learners.classifier_fits": "count",
    "learners.classifier_fit_s": "s",
    "learners.classifier_solver_evals": "count",
    "learners.classifier_predict_rows": "count",
    "learners.classifier_predict_s": "s",
    "learners.feature_map_rows": "count",
    "learners.feature_map_rows_distinct": "count",
    "meta.pseudo_outcome_s": "s",
    "meta.pseudo_rows": "count",
    "meta.fit_s": "s",
    "meta.v_model_s": "s",
    "meta.predict_s": "s",
    "meta.predict_rows": "count",
    "meta.bundle_write_s": "s",
    "meta.bundle_read_s": "s",
    "meta.bundle_bytes": "bytes",
    "harness.self_s": "s",
    "verify.self_s": "s",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.train_s": "s",
    "cli.evaluate_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# metric -> (span name, "total" or "self"); every other metric is a counter
_TIMES = {
    "panel.build_s": ("panel.build", "total"),
    "panel.csv_read_s": ("panel.csv_read", "total"),
    "panel.csv_write_s": ("panel.csv_write", "total"),
    "panel.encode_history_s": ("panel.encode_history", "total"),
    "dgp.simulate_s": ("dgp.simulate", "self"),
    "nuisance.row_table_s": ("nuisance.row_table", "total"),
    "nuisance.encode_s": ("nuisance.encode", "total"),
    "nuisance.response_fit_s": ("nuisance.response_fit", "self"),
    "nuisance.propensity_fit_s": ("nuisance.propensity_fit", "self"),
    "nuisance.history_fit_s": ("nuisance.history_fit", "self"),
    "nuisance.mu_s": ("nuisance.mu", "self"),
    "nuisance.propensity_s": ("nuisance.propensity", "self"),
    "nuisance.bundle_write_s": ("nuisance.bundle_write", "total"),
    "nuisance.bundle_read_s": ("nuisance.bundle_read", "total"),
    "learners.regressor_fit_s": ("learners.regressor_fit", "total"),
    "learners.regressor_predict_s": ("learners.regressor_predict", "total"),
    "learners.classifier_fit_s": ("learners.classifier_fit", "total"),
    "learners.classifier_predict_s": ("learners.classifier_predict", "total"),
    "meta.pseudo_outcome_s": ("meta.pseudo", "self"),
    "meta.fit_s": ("meta.fit", "total"),
    "meta.v_model_s": ("meta.v_model", "total"),
    "meta.predict_s": ("meta.predict", "total"),
    "meta.bundle_write_s": ("meta.bundle_write", "total"),
    "meta.bundle_read_s": ("meta.bundle_read", "total"),
    "harness.self_s": ("harness", "self"),
    "verify.self_s": ("verify", "self"),
    "cli.simulate_s": ("cli.simulate", "total"),
    "cli.fit_s": ("cli.fit", "total"),
    "cli.train_s": ("cli.train", "total"),
    "cli.evaluate_s": ("cli.evaluate", "total"),
}

_NAME, _START, _END, _PARENT, _EXCL = range(5)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


class Tracer:
    """Span recorder plus the counters the call hooks fill in."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, hook time]
        self._stack = []
        self.counts = collections.Counter()
        self._distinct = collections.defaultdict(set)
        self._fp_cache = weakref.WeakValueDictionary()   # id -> object
        self._fp_values = {}                              # id -> digest
        self._seen_arrays = weakref.WeakValueDictionary()

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        """Record one span around benchmark code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[_START] = time.perf_counter()
        return span

    def _close(self, span):
        span[_END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(args, kwargs, result)``
        runs after the span closes and its time is kept out of self times."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                start = time.perf_counter()
                hook(args, kwargs, result)
                if span[_PARENT] >= 0:
                    tracer.spans[span[_PARENT]][_EXCL] += (time.perf_counter()
                                                           - start)
            return result

        return wrapper

    # -- content fingerprints ----------------------------------------------
    def fingerprint(self, obj, make):
        """Digest of ``obj``'s content via ``make(obj)``, cached per live object."""
        key = id(obj)
        if self._fp_cache.get(key) is not obj:
            self._fp_cache[key] = obj
            self._fp_values[key] = make(obj)
        return self._fp_values[key]

    def first_time(self, metric, key) -> bool:
        seen = self._distinct[metric]
        if key in seen:
            return False
        seen.add(key)
        return True

    def new_array(self, arr) -> bool:
        """True the first time this array object is returned to a caller."""
        if self._seen_arrays.get(id(arr)) is arr:
            return False
        self._seen_arrays[id(arr)] = arr
        return True

    # -- reporting -----------------------------------------------------------
    def times(self):
        """Per span name: (calls, total seconds, self seconds).

        Both leave out the tracer's hook work inside the span."""
        n = len(self.spans)
        child = [0.0] * n
        hooks = [span[_EXCL] for span in self.spans]   # whole subtree
        for i in range(n - 1, -1, -1):      # children come after parents
            parent = self.spans[i][_PARENT]
            if parent >= 0:
                child[parent] += self.spans[i][_END] - self.spans[i][_START]
                hooks[parent] += hooks[i]
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, span in enumerate(self.spans):
            dur = span[_END] - span[_START]
            row = out[span[_NAME]]
            row[0] += 1
            row[1] += dur - hooks[i]
            row[2] += dur - child[i] - span[_EXCL]
        return out

    def metrics(self):
        times = self.times()
        values = {}
        for name in LAYER_METRICS:
            if name in _TIMES:
                span_name, kind = _TIMES[name]
                row = times.get(span_name, (0, 0.0, 0.0))
                values[name] = row[1] if kind == "total" else row[2]
            else:
                values[name] = self.counts.get(name, 0)
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path, meta):
        names = sorted({s[_NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][_START] if self.spans else 0.0
        payload = dict(meta, span_names=names, span_fields=[
            "name", "start_s", "end_s", "parent"],
            spans=[[index[s[_NAME]], round(s[_START] - t0, 7),
                    round(s[_END] - t0, 7), s[_PARENT]] for s in self.spans])
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)


# --------------------------------------------------------------------------
# what gets wrapped

def _rows(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


def _table_fp(table):
    return _digest(table.tau, table.traj_id, table.t, table.x_tail,
                   table.aprev_tail, table.yprev_tail, table.a_obs,
                   table.y_term)


def _params_fp(model):
    parts = []
    for key, value in sorted(model.params.items()):
        if isinstance(value, (np.ndarray, float, int)):
            parts += [key, value]
    return _digest(*parts)


def _hooks(tr: Tracer):
    """Call hooks, keyed by span name."""
    c = tr.counts

    def file_bytes(metric):
        def hook(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            c[metric] += os.path.getsize(path)
        return hook

    def panel_rows(panel):
        return int(sum(t.length for t in panel.trajectories))

    def feature_map(spec, in_dim, X):
        rows = _rows(X)
        c["learners.feature_map_rows"] += rows
        key = _digest(in_dim, spec.feature_count, spec.bandwidth, spec.seed,
                      np.asarray(X, dtype=float))
        if tr.first_time("feature_map", key):
            c["learners.feature_map_rows_distinct"] += rows

    def build(args, kwargs, panel):
        c["panel.trajectories"] += panel.n

    def csv_read(args, kwargs, panel):
        c["panel.csv_rows"] += panel_rows(panel)

    def csv_write(args, kwargs, result):
        c["panel.csv_rows"] += panel_rows(args[0])

    def encode_history(args, kwargs, result):
        c["panel.encode_history_calls"] += 1

    def simulate(args, kwargs, panel):
        c["dgp.trajectories"] += panel.n

    def row_table(args, kwargs, result):
        table = args[0]
        c["nuisance.row_tables"] += 1
        c["nuisance.row_table_rows"] += table.n_rows
        if tr.first_time("row_table", tr.fingerprint(table, _table_fp)):
            c["nuisance.row_tables_distinct"] += 1

    def encode(args, kwargs, result):
        if tr.new_array(result):
            c["nuisance.encode_rows"] += int(result.shape[0])

    def nuisance_token(ns, which, arm=None, j=None):
        if which == "pi" and ns.override_propensity is not None:
            return ("override", ns.override_propensity)
        if which == "mu" and ns.override_response is not None:
            return ("override", repr(ns.override_response), arm, j)
        if ns.oracle_mode:
            return ("oracle", ns.dgp.name, ns.tau, which, arm, j)
        if which == "pi":
            return tr.fingerprint(ns.propensity_model, _params_fp)
        return tr.fingerprint(ns.response_models[arm][j], _params_fp)

    def mu(args, kwargs, result):
        ns, arm, j, table = args[:4]
        c["nuisance.mu_queries"] += 1
        key = (nuisance_token(ns, "mu", arm, j), j,
               tr.fingerprint(table, _table_fp))
        if tr.first_time("mu", key):
            c["nuisance.mu_queries_distinct"] += 1

    def propensity(args, kwargs, result):
        ns, j, _a_value, table = args[:4]
        c["nuisance.propensity_queries"] += 1
        key = (nuisance_token(ns, "pi"), j, tr.fingerprint(table, _table_fp))
        if tr.first_time("propensity", key):
            c["nuisance.propensity_queries_distinct"] += 1

    def regressor_fit(args, kwargs, model):
        X = args[1] if len(args) > 1 else kwargs["features"]
        c["learners.regressor_fits"] += 1
        c["learners.regressor_fit_rows"] += model.n_rows
        if model.spec.kind == "ridge-random-features":
            feature_map(model.spec, model.in_dim, X)

    def regressor_predict(args, kwargs, result):
        model, X = args[0], args[1] if len(args) > 1 else kwargs["features"]
        c["learners.regressor_predict_rows"] += _rows(X)
        if model.spec.kind == "ridge-random-features":
            feature_map(model.spec, model.in_dim, X)

    def classifier_fit(args, kwargs, model):
        X = args[1] if len(args) > 1 else kwargs["features"]
        c["learners.classifier_fits"] += 1
        if model.spec.use_random_features:
            feature_map(model.spec, model.in_dim, X)

    def classifier_predict(args, kwargs, result):
        model, X = args[0], args[1] if len(args) > 1 else kwargs["features"]
        c["learners.classifier_predict_rows"] += _rows(X)
        if model.spec.use_random_features:
            feature_map(model.spec, model.in_dim, X)

    def solver(args, kwargs, res):
        c["learners.classifier_solver_evals"] += int(res.nfev)

    def pseudo(args, kwargs, result):
        # count rows once per outermost pseudo-outcome call
        parent = tr._stack[-1] if tr._stack else -1
        if parent < 0 or tr.spans[parent][_NAME] != "meta.pseudo":
            c["meta.pseudo_rows"] += args[0].n_rows

    def predict(args, kwargs, result):
        c["meta.predict_rows"] += int(np.asarray(result).size)

    return {
        "panel.build": build, "panel.csv_read": csv_read,
        "panel.csv_write": csv_write, "panel.encode_history": encode_history,
        "dgp.simulate": simulate, "nuisance.row_table": row_table,
        "nuisance.encode": encode, "nuisance.mu": mu,
        "nuisance.propensity": propensity,
        "nuisance.bundle_write": file_bytes("nuisance.bundle_bytes"),
        "learners.regressor_fit": regressor_fit,
        "learners.regressor_predict": regressor_predict,
        "learners.classifier_fit": classifier_fit,
        "learners.classifier_predict": classifier_predict,
        "learners.solver": solver, "meta.pseudo": pseudo,
        "meta.predict": predict,
        "meta.bundle_write": file_bytes("meta.bundle_bytes"),
    }


# (module, attribute, span name); "Class.method" names a method
TARGETS = [
    ("panel", "panel_from_arrays", "panel.build"),
    ("panel", "panel_from_csv", "panel.csv_read"),
    ("panel", "panel_to_csv", "panel.csv_write"),
    ("panel", "encode_history", "panel.encode_history"),
    ("dgp", "simulate_panel", "dgp.simulate"),
    ("nuisance", "RowTable.__init__", "nuisance.row_table"),
    ("nuisance", "RowTable.features", "nuisance.encode"),
    ("nuisance", "fit_response_iterative", "nuisance.response_fit"),
    ("nuisance", "fit_propensities", "nuisance.propensity_fit"),
    ("nuisance", "fit_history_adjustment", "nuisance.history_fit"),
    ("nuisance", "NuisanceSet.mu", "nuisance.mu"),
    ("nuisance", "NuisanceSet.propensity", "nuisance.propensity"),
    ("nuisance", "save_nuisances", "nuisance.bundle_write"),
    ("nuisance", "load_nuisances", "nuisance.bundle_read"),
    ("learners", "fit_regressor", "learners.regressor_fit"),
    ("learners", "FittedRegressor.predict", "learners.regressor_predict"),
    ("learners", "fit_classifier", "learners.classifier_fit"),
    ("learners", "FittedClassifier.predict_proba", "learners.classifier_predict"),
    ("meta", "pseudo_ipw", "meta.pseudo"),
    ("meta", "pseudo_dr", "meta.pseudo"),
    ("meta", "pseudo_ra", "meta.pseudo"),
    ("meta", "ivw_realized", "meta.pseudo"),
    ("meta", "build_pseudo_rows", "meta.pseudo"),
    ("meta", "fit_meta", "meta.fit"),
    ("meta", "fit_v_model", "meta.v_model"),
    ("meta", "CateModel.predict", "meta.predict"),
    ("meta", "save_cate_model", "meta.bundle_write"),
    ("meta", "load_cate_model", "meta.bundle_read"),
    ("harness", "run_experiment", "harness"),
    ("harness", "overlap_sweep", "harness"),
    ("harness", "emit_results", "harness"),
    ("harness", "emit_sweep", "harness"),
    ("verify", "run_suite", "verify"),
    ("verify", "format_report", "verify"),
]


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``tvcate.learners`` only."""

    def __init__(self, real, minimize):
        self._real = real
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    import tvcate.cli  # noqa: F401  (imports every tvcate module)

    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "tvcate" or n.startswith("tvcate.")) and m is not None]
    hooks = _hooks(tracer)
    undo = []
    for mod_name, attr, span_name in TARGETS:
        module = sys.modules[f"tvcate.{mod_name}"]
        hook = hooks.get(span_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span_name, orig, hook))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(span_name, orig, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    learners = sys.modules["tvcate.learners"]
    real = learners.optimize
    learners.optimize = _OptimizeProxy(real, tracer.wrap(
        "learners.solver", real.minimize, hooks["learners.solver"]))
    undo.append((learners, "optimize", real))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return restore
