"""Weighted base learners: regression and probabilistic classification.

All downstream estimators consume these two interfaces only, so any model
with the same contract could be swapped in.  The built-in regressors are

* ``ridge-random-features`` — closed-form weighted ridge on a random cosine
  feature map phi(x) = sqrt(2/F) * cos(W x + b), W ~ Normal(0, 1/bandwidth^2),
  b ~ Uniform[0, 2*pi).  W x + b is float64 and its ``cos`` is taken in
  float32 (NumPy's SIMD loop; the map only approximates a kernel, Rahimi &
  Recht 2007), then scaled into the float64 map.  An unpenalized intercept
  is fitted via weighted centering, so the solved objective is

      sum_i w_i (y_i - alpha - beta . (phi(x_i) - mean_w phi))^2
          + ridge_lambda * ||beta||^2,

  with weights normalized to unit mass (making the fit invariant to weight
  rescaling and ridge_lambda comparable across sample sizes).  Heavy
  regularization therefore shrinks predictions toward the weighted target
  mean rather than toward zero.  One row set's system, its weighted mean
  map, gram matrix and factors, is a :class:`RidgeDesign`: several targets
  on one row set cost a solve each, with the bits of separate fits.  A
  gram is sum w phi phi^T - m m^T, from a map's per-group sums or from
  the rows read in blocks, never from a copy; each block's sum w phi phi^T
  is one symmetric product B^T B of B = sqrt(w) phi (BLAS ``syrk``).
* ``lookup-table`` — exact-match cell means for discrete feature vectors.

Every fit and prediction of either kind reads a :class:`RowMap`: a matrix
of rows mapped once as the spec reads them (in the package, a panel's
encoded positions), from which fits and predictions take rows by index.
:func:`fit_regressor` maps its rows and fits them all.  Only this module
tells the kinds apart.

The elementwise part of a cosine map, the classifier's design, Newton
pass and predictions, and the ridge grams, right-hand sides and mapped
predictions run in row blocks over the CPUs through :mod:`tvcate._blocks`,
which states the split rules and why no result depends on the CPU count
or on the BLAS thread setting: each public fit and prediction holds every
loaded OpenBLAS at one thread.  A prediction reads a model's parameters alone.

The classifier is multinomial logistic regression (optional random cosine
features) fitted on the weighted cross-entropy: with two classes by Newton's
method on one parameter vector (``trust-exact``, exact Hessian), with more
by L-BFGS on one column per class.

A fitted model's ``to_dict`` is its part of a bundle.  Format 3 stores a
cosine map as its ``map_sha256``, the SHA-256 of ``W.tobytes() +
b.tobytes()`` (float64, C order): W and b are a function of (in_dim,
feature_count, bandwidth, seed), and NumPy does not promise one
``Generator.normal`` stream across versions, so ``from_dict`` draws them
again and checks the digest.  Format 2 did the same and format 1 stored W
and b; a model loaded from either maps with float64 ``cos``, so it predicts
its old bits, and is written into format 3 marked ``"cos": "float64"``.
Every bundle loader reads through one :class:`_Fields` reader: a field
missing, mistyped, non-finite or mis-shaped, or a digest that differs,
raises ``ValueError`` naming its path (``response_models.a[1]:
params.beta``).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg, optimize, special

from . import _blocks
from ._blocks import _block_edges, _block_pass, _in_order, _run_spans, _share_blocks, _shares
from .panel import _validate_count, _validate_real

__all__ = [
    "RegressorSpec",
    "FittedRegressor",
    "ClassifierSpec",
    "FittedClassifier",
    "fit_regressor",
    "fit_classifier",
    "predict_many",
    "random_cosine_map",
]

REGRESSOR_KINDS = ("ridge-random-features", "lookup-table")

# grids used when a regularization strength is set to "auto"
RIDGE_LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
CLASSIFIER_L2_GRID = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)

#: layout version written into nuisance and model bundles
BUNDLE_FORMAT_VERSION = 3


@dataclass(frozen=True)
class RegressorSpec:
    """Configuration of a weighted regressor.

    feature_count, bandwidth, and seed control the random cosine map (ridge
    kind only).  ridge_lambda may be the string "auto", selecting the
    penalty from a fixed grid by generalized cross-validation at fit time.
    """

    kind: str = "ridge-random-features"
    feature_count: int = 256
    bandwidth: float = 1.0
    ridge_lambda: float | str = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in REGRESSOR_KINDS:
            raise ValueError(f"unknown regressor kind {self.kind!r}")
        _validate_count(self.feature_count, "feature_count")
        _validate_count(self.seed, "seed", 0)
        _validate_real(self.bandwidth, "bandwidth", 0, strict=True)
        _validate_real(0 if self.ridge_lambda == "auto" else self.ridge_lambda, "ridge_lambda", 0)


#: the exact-match cell-mean regressor for discrete features
LOOKUP_TABLE = RegressorSpec(kind="lookup-table")


def random_cosine_map(in_dim: int, feature_count: int, bandwidth: float, seed):
    """Draw the (W, b) parameters of the random cosine feature map."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / bandwidth, size=(in_dim, feature_count))
    b = rng.uniform(0.0, 2.0 * np.pi, size=feature_count)
    return W, b


def map_digest(W: np.ndarray, b: np.ndarray) -> str:
    """SHA-256 (hex) of a cosine map's W then b, float64 in C order."""
    return hashlib.sha256(np.ascontiguousarray(W, dtype=float).tobytes()
                          + np.ascontiguousarray(b, dtype=float).tobytes()).hexdigest()


class _Fields:
    """A JSON object of a bundle, read one checked field at a time: ``where``
    names the model or bundle and ``inner`` the object's path in it, and a
    bad field raises ValueError naming ``where: inner.key``.  A missing key's
    error ends with ``layout``, the fields that decide which keys it holds."""

    def __init__(self, state, where: str, inner: str = "", layout: str = ""):
        self.name, self.inner = (f"{where}: {inner}", inner + ".") if inner else (where, "")
        if not isinstance(state, dict):
            raise ValueError(f"{self.name} must be a JSON object")
        self.state, self.where, self.layout = state, where, layout

    def path(self, key) -> str:
        return f"{self.where}: {self.inner}{key}"

    def __getitem__(self, key):
        if key not in self.state:
            raise ValueError(f"{self.name} lacks the required key {key!r}{self.layout}")
        return self.state[key]

    def obj(self, key, layout: str = "") -> "_Fields":
        return _Fields(self[key], self.where, f"{self.inner}{key}", layout)

    def seq(self, key) -> list:
        if not isinstance(self[key], list):
            raise ValueError(f"{self.path(key)} must be a list, got {self[key]!r}")
        return self[key]

    def count(self, key, least: int = 1) -> int:
        return _validate_count(self[key], self.path(key), least)

    def flag(self, key) -> bool:
        if not isinstance(self[key], bool):
            raise ValueError(f"{self.path(key)} must be true or false, got {self[key]!r}")
        return self[key]

    def real(self, key, least=None) -> float:
        return _validate_real(self[key], self.path(key), least)

    def array(self, key, shape: tuple, dims: str = "") -> np.ndarray:
        """The finite float array at ``key`` of ``shape`` (None: any length),
        whose ``dims`` name the fields that fix the shape."""
        raw = self[key]
        try:
            value = np.array(raw, dtype=float)
        except (TypeError, ValueError, OverflowError):
            value = np.array(np.nan)            # neither of a requested shape nor finite
        if len(value.shape) != len(shape) or not np.isfinite(value).all() or any(
                want not in (None, got) for want, got in zip(shape, value.shape)):
            raise ValueError(f"{self.path(key)} is not an array of shape {shape}{dims} "
                             "of finite reals")
        return value

    def build(self, cls, drop: tuple = ()):
        """``cls`` from every field of the dataclass (the keys of ``drop`` are
        ignored); a value ``cls`` refuses raises ValueError naming this object."""
        for f in dataclasses.fields(cls):
            self[f.name]
        try:
            return cls(**{key: v for key, v in self.state.items() if key not in drop})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{self.name}: {exc}") from None


def _bundled_map(fields: _Fields, in_dim: int, spec, version: int) -> dict:
    """The map params of a bundled model on ``spec`` from its ``params``
    reader: (W, b), stored in format 1, else drawn from the spec and checked,
    and ``cos64`` (float64 ``cos``) for a model of format 1 or 2 or marked
    ``"cos": "float64"``."""
    F = spec.feature_count
    legacy = {"cos64": True} if version < 3 or "cos" in fields.state else {}
    if version == 3 and legacy and fields["cos"] != "float64":
        raise ValueError(f"{fields.path('cos')} must be 'float64' when present, "
                         f"got {fields['cos']!r}")
    if version == 1:
        return {"W": fields.array("W", (in_dim, F), " = (in_dim, spec.feature_count)"),
                "b": fields.array("b", (F,), " = (spec.feature_count,)"), **legacy}
    W, b = random_cosine_map(in_dim, F, spec.bandwidth, spec.seed)
    if map_digest(W, b) != fields["map_sha256"]:
        raise ValueError(f"{fields.where}: the cosine map drawn from in_dim and spec "
                         "(feature_count, bandwidth, seed) does not match params.map_sha256 "
                         "(was the bundle written under another NumPy random stream?)")
    return {"W": W, "b": b, **legacy}


def _map_state(params: dict) -> dict:
    """A mapped model's map in its bundle: the digest of (W, b), and the
    marker of a model that maps with float64 ``cos``."""
    return {"map_sha256": map_digest(params["W"], params["b"]),
            **({"cos": "float64"} if params.get("cos64") else {})}


def map_key(spec: RegressorSpec, in_dim: int) -> tuple:
    """What fixes the row map of ``spec`` on ``in_dim``-wide rows: a ridge
    spec's (in_dim, features, bandwidth, seed), which draw its (W, b), or
    ("lookup-table", in_dim) for a lookup table, which reads the rows."""
    if spec.kind == "lookup-table":
        return spec.kind, in_dim
    return in_dim, spec.feature_count, spec.bandwidth, spec.seed


#: cosine maps of fewer elements than this run their elementwise part inline:
#: with float32 ``cos``, two CPUs chunking maps of up to 2^18 elements were
#: no faster than one (3-23 % slower at 2^18 on two runs), from 2^19 faster
_PARALLEL_MIN_ELEMENTS = 1 << 19
#: rows of a float32 ``cos`` sub-block: one buffer of this many map rows per chunk
_COS_ROWS = 256


def _map_chunks(rows: int, features: int) -> int:
    """Row chunks of a ``rows`` x ``features`` map's elementwise part: one
    per CPU this process may use, or one below ``_PARALLEL_MIN_ELEMENTS``
    elements."""
    return 1 if rows * features < _PARALLEL_MIN_ELEMENTS else min(_blocks._usable_cpus(), rows)


def _shift_cos_scale(Z: np.ndarray, b: np.ndarray, scale, cos64: bool = False) -> None:
    """``Z = scale * cos(Z + b)`` in place: the shift in float64, then ``cos``
    of its float32 cast in ``_COS_ROWS``-row sub-blocks through one float32
    buffer, widened by the float64 product with ``scale``; with ``cos64``
    (a model of format 1 or 2) ``cos`` in float64."""
    Z += b
    if cos64:
        np.cos(Z, out=Z)
        Z *= scale
        return
    buf = np.empty((min(_COS_ROWS, Z.shape[0]), Z.shape[1]), dtype=np.float32)
    for lo in range(0, Z.shape[0], _COS_ROWS):
        part = Z[lo:lo + _COS_ROWS]
        cos = buf[:part.shape[0]]
        np.copyto(cos, part, casting="same_kind")
        np.cos(cos, out=cos)
        np.multiply(cos, scale, out=part)


def _cosine_features(X: np.ndarray, W: np.ndarray, b: np.ndarray, out=None,
                     chunks: int = 0, cos64: bool = False) -> np.ndarray:
    """The raw map sqrt(2/F) * cos(X W + b), built in place in one N x F
    array (``out`` when given): ``X @ W`` in the calling thread, then the
    elementwise rest (:func:`_shift_cos_scale`, ``cos`` in float32 unless
    ``cos64``) in ``chunks`` row chunks over the CPUs (when 0,
    :func:`_map_chunks`; :func:`_run_spans`)."""
    Z = np.matmul(X, W, out=out)
    scale = np.sqrt(2.0 / W.shape[1])
    chunks = chunks or _map_chunks(*Z.shape)
    _run_spans([Z.shape[0] * k // chunks for k in range(chunks + 1)], chunks,
               lambda rows, j: _shift_cos_scale(Z[rows], b, scale, cos64))
    return Z


def _normalized_weights(weight, n) -> np.ndarray:
    if weight is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weight, dtype=float)
    if w.shape != (n,):
        raise ValueError("weight must be one value per row")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and >= 0")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    return w / total


@dataclass(frozen=True)
class FittedRegressor:
    """Immutable fitted regressor; ``predict`` is deterministic and total."""

    spec: RegressorSpec
    in_dim: int
    n_rows: int
    params: dict

    def predict(self, features) -> np.ndarray:
        return predict_many([self], features)[0]

    def _predict_lookup(self, features):
        table = self.params["table"]
        default = self.params["default"]
        out = np.empty(features.shape[0])
        for i, row in enumerate(features):
            cell = table.get(row.tobytes())
            out[i] = cell if cell is not None else default
        return out

    def to_dict(self) -> dict:
        state = {"spec": dict(self.spec.__dict__), "in_dim": self.in_dim, "n_rows": self.n_rows}
        if self.spec.kind == "ridge-random-features":
            state["params"] = {**_map_state(self.params),
                               "beta": self.params["beta"].tolist(),
                               "phi_mean": self.params["phi_mean"].tolist(),
                               "intercept": self.params["intercept"],
                               "ridge_lambda_used": self.params["ridge_lambda_used"]}
        else:
            state["params"] = {"keys": [list(map(float, np.frombuffer(kb)))
                                        for kb in self.params["table"]],
                               "values": list(self.params["table"].values()),
                               "default": self.params["default"]}
        return state

    @staticmethod
    def from_dict(state: dict, where: str = "regressor", version: int = BUNDLE_FORMAT_VERSION,
                  codec=None) -> "FittedRegressor":
        """Load ``to_dict``'s state, of bundle format ``version``; a field
        missing or of another kind, a digest mismatch or an ``in_dim`` other
        than ``codec``'s width raises ValueError naming ``where`` and the field."""
        fields = _Fields(state, where)
        # bundles written while a kNN kind existed carry its neighbor count "k"
        spec = fields.obj("spec").build(RegressorSpec, drop=("k",))
        in_dim, n_rows = fields.count("in_dim"), fields.count("n_rows")
        if codec is not None:
            codec.check_width(in_dim, where)
        raw = fields.obj("params", f" (format_version {version})")
        if spec.kind == "ridge-random-features":
            F, dims = spec.feature_count, " = (spec.feature_count,)"
            params = {**_bundled_map(raw, in_dim, spec, version),
                      "beta": raw.array("beta", (F,), dims),
                      "phi_mean": raw.array("phi_mean", (F,), dims),
                      "intercept": raw.real("intercept"),
                      "ridge_lambda_used": raw.real("ridge_lambda_used", 0)}
        else:
            keys = raw.array("keys", (None, in_dim), " = (cells, in_dim)")
            table = dict(zip([row.tobytes() for row in keys], raw.array(
                "values", (len(keys),), " = (rows of params.keys,)").tolist()))
            if len(table) < len(keys):
                raise ValueError(f"{raw.path('keys')} repeats a cell")
            params = {"table": table, "default": raw.real("default")}
        return FittedRegressor(spec, in_dim, n_rows, params)


def _row_blocks(phi, rows=None):
    """The row blocks of ``rows`` (indices, all when None) of the map ``phi``:
    their edges (:func:`_block_edges`) and ``take(span, out)``, the rows of
    block ``span``, a view of ``phi`` or gathered into the first rows of
    ``out``."""
    if rows is None:
        return _block_edges(phi.shape[0]), lambda span, out: phi[span]
    return _block_edges(rows.size), lambda span, out: np.take(
        phi, rows[span], axis=0, out=out[:span.stop - span.start], mode="clip")


def _draws(model: FittedRegressor, W, b, cos64: bool) -> bool:
    """Whether ``model`` is a ridge model on the cosine map (W, b) whose
    ``cos`` is float64 when ``cos64`` and float32 when not."""
    return (model.spec.kind == "ridge-random-features" and np.array_equal(model.params["W"], W)
            and np.array_equal(model.params["b"], b)
            and model.params.get("cos64", False) == cos64)


def _predict_mapped(models, edges, take, width: int, fills: bool) -> list:
    """Predictions of ridge models at the rows of the raw-map blocks between
    ``edges``, in one pass of the blocks over the shares (:func:`_run_spans`).
    ``take(span, out)`` is block ``span``: written into ``out``, a share's
    buffer made here, when ``fills`` (gathered or mapped rows), else a view
    of a map.  Each block is taken once; each model centers it by its
    ``phi_mean`` and multiplies by its ``beta`` into its rows of its output,
    the last model of a filled block in place and every other through its
    share's scratch, in ``_SUB_BLOCK_ROWS`` sub-blocks (the block's bits on
    one BLAS thread)."""
    shares, n = _shares(len(edges) - 1), edges[-1]
    outs = [np.empty(n) for _ in models]
    buf = _share_blocks(shares, n, width) if fills else None
    sub = _blocks._SUB_BLOCK_ROWS, _blocks._SUB_BLOCK_LEAST
    scratch = None if fills and len(models) == 1 else _share_blocks(shares, n, width, *sub)

    def work(span, j):
        block = take(span, None if buf is None else buf[j])
        parts = _block_edges(len(block), *sub)
        for k, (model, out) in enumerate(zip(models, outs)):
            mean, beta, out = model.params["phi_mean"], model.params["beta"], out[span]
            if fills and k == len(models) - 1:
                np.matmul(np.subtract(block, mean, out=block), beta, out=out)
                continue
            for lo, hi in zip(parts, parts[1:]):
                centered = np.subtract(block[lo:hi], mean, out=scratch[j][:hi - lo])
                np.matmul(centered, beta, out=out[lo:hi])
    _run_spans(edges, shares, work)
    for model, out in zip(models, outs):
        out += model.params["intercept"]
    return outs


@_blocks._one_blas_thread()
def predict_many(models, features) -> list:
    """Predict each fitted regressor at the same rows.

    Ridge models whose cosine maps have equal (W, b) and ``cos`` arithmetic
    share one evaluation of the map.  It is made (``X @ W``, shift, ``cos``,
    scale), centered and multiplied one row block at a time (:func:`_block_edges`), each block
    on one share of the CPUs (:func:`_predict_mapped`), so the peak memory
    of a prediction is about a block of the map per CPU whatever the row
    count.  When one share maps every block, it chunks its ``cos`` over the
    CPUs.  On one OpenBLAS 0.3 thread every prediction has the bits of the
    one whole-map product
    ``(_cosine_features(X, W, b) - phi_mean) @ beta + intercept``: row
    blocks of ``X @ W`` keep them when the feature count is a multiple of 8,
    and at other counts, where they need not, the map is made whole.
    """
    features = np.asarray(features, dtype=float)
    squeeze = features.ndim == 1
    if squeeze:
        features = features[None, :]
    for model in models:
        if features.shape[1] != model.in_dim:
            raise ValueError(f"feature width {features.shape[1]} does not match "
                             f"training width {model.in_dim}")
    n = features.shape[0]
    outs = [None] * len(models)
    for k, model in enumerate(models):
        if outs[k] is not None:
            continue
        if model.spec.kind != "ridge-random-features":
            outs[k] = model._predict_lookup(features)
            continue
        W, b, cos64 = model.params["W"], model.params["b"], model.params.get("cos64", False)
        group = [j for j in range(k, len(models))
                 if outs[j] is None and _draws(models[j], W, b, cos64)]
        F, edges = W.shape[1], _block_edges(n)
        fills = F % 8 == 0 and len(edges) > 2       # else one whole map
        # one share maps each block with its cos over the CPUs, several a block each
        chunks = 0 if _shares(len(edges) - 1) == 1 else 1
        take = ((lambda span, out: _cosine_features(features[span], W, b,
                                                    out[:span.stop - span.start], chunks, cos64))
                if fills else _row_blocks(_cosine_features(features, W, b, None, 0, cos64))[1])
        for j, out in zip(group, _predict_mapped([models[j] for j in group], edges, take, F,
                                                 fills)):
            outs[j] = out
    return [out[0] if squeeze else out for out in outs]


def fit_regressor(spec: RegressorSpec, features, target, weight=None) -> FittedRegressor:
    """Fit a weighted regressor on rows (features, target, weight): the fit
    of a :class:`RowMap` of the rows.

    Weights are normalized to unit mass internally, so only their relative
    sizes matter.  For the ridge kind the returned model is the exact
    minimizer of the weighted-centered objective documented in the module
    docstring; a singular system with ridge_lambda = 0 raises.
    """
    return RowMap(spec, features).fit(spec, target, weight)


def _gram(phi: np.ndarray, w, scaled=None, out=None) -> np.ndarray:
    """The raw gram ``sum_i w_i phi_i phi_i^T`` (``w`` None: weights of one) as
    one product ``B.T @ B`` of ``B = sqrt(w)[:, None] * phi``, which NumPy hands
    to BLAS ``syrk`` (one triangle, mirrored), into ``out`` when given.  B is
    written into the first rows of ``scaled``, else over a writeable ``phi``
    (a block :func:`_row_blocks` gathered), else into a new block."""
    if w is not None:
        scaled = phi if scaled is None else scaled[:phi.shape[0]]
        phi = np.multiply(phi, np.sqrt(w)[:, None],
                          out=scaled if scaled.flags.writeable else None)
    return np.matmul(phi.T, phi, out=out)


def _summing(take, views, w, v, buf, grams, totals, rhss):
    """``work(span, j)`` of a :func:`_block_pass` that writes block ``span``'s
    ``sum w phi phi^T``, ``sum w phi`` and ``phi^T v`` into ``grams[j]``,
    ``totals[j]`` and ``rhss[j]`` (each None: not summed).  Gathered rows go
    into ``buf[j]``, where :func:`_gram` scales them in place; a weighted
    gram scales ``views`` into ``buf[j]``.  The column sums and ``phi^T v``
    are taken before the block is scaled."""
    def work(span, j):
        block = take(span, None if buf is None else buf[j])
        if rhss is not None:
            np.matmul(block.T, v[span], out=rhss[j])
        if grams is not None:
            if w is None:
                np.sum(block, axis=0, out=totals[j])
            else:
                np.matmul(w[span], block, out=totals[j])
            _gram(block, None if w is None else w[span],
                  buf[j] if views and w is not None else None, grams[j])
    return work


def _raw_sums(phi: np.ndarray, rows, w=None, v=None, gram: bool = True):
    """``(sum w phi phi^T, sum w phi, phi^T v)`` over ``rows`` of ``phi`` (all when
    None; ``w`` None: weights of one; ``v`` None: no ``phi^T v``; ``gram``
    False: ``phi^T v`` alone, the others None) in one :func:`_block_pass` of
    row blocks on every CPU: per share one block buffer (gathered rows, or
    the views of ``phi`` a weighted gram scales) and a slot per sum, all
    made here."""
    edges, take = _row_blocks(phi, rows)
    shares, F = _shares(len(edges) - 1), phi.shape[1]
    slots = [np.empty((shares, F, F)), np.empty((shares, F))] if gram else [None, None]
    slots.append(None if v is None else np.empty((shares, F)))
    sums = [None if part is None else np.zeros(part.shape[1:]) for part in slots]
    buf = (_share_blocks(shares, edges[-1], F) if rows is not None or (gram and w is not None)
           else None)
    _block_pass(edges, shares, _summing(take, rows is None, w, v, buf, *slots),
                [pair for pair in zip(sums, slots) if pair[1] is not None])
    return tuple(sums)


class RowMap:
    """A matrix of rows as a regressor spec reads them: under a ridge spec
    ``phi`` is the raw cosine map of the rows under its (W, b), under a
    lookup-table spec the rows themselves.

    Fits and predictions take ``rows``, indices into the mapped rows (all
    when None), with the bits of mapping those rows again (on one OpenBLAS
    0.3 thread, at multiples of 8 features; other counts can change the last
    bits of ``X @ W`` with its row count, from 9 features on 19-wide rows).
    ``groups`` labels each row with an integer >= 0 (on a panel, its time
    and arm); a ridge map sums each group's raw gram and column sums once.
    A ridge map holds the design of its last uniform-weight :meth:`fit`,
    which later uniform fits of the same rows reuse; a weighted fit drops
    it first, so at most one is held.  Its sums and predictions run in row
    blocks over the CPUs (:mod:`tvcate._blocks`), its solves in the caller.
    """

    @_blocks._one_blas_thread()
    def __init__(self, spec: RegressorSpec, X, groups=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        self.n_rows, self.in_dim = X.shape
        self.key = map_key(spec, self.in_dim)
        if spec.kind == "lookup-table":
            self.W = self.b = None
            self.phi = X
        else:
            self.W, self.b = random_cosine_map(*self.key)
            self.phi = _cosine_features(X, self.W, self.b)
            for shared in (self.W, self.b, self.phi):   # _gram scales no view of phi
                shared.flags.writeable = False
        self.groups = None if groups is None else np.asarray(groups, dtype=np.intp)
        if self.groups is not None and self.groups.shape != (self.n_rows,):
            raise ValueError("groups must be one label per mapped row")
        # per group: raw gram, column sums, rows, summed; the rows by group
        self._sums = None
        self._design = None                   # the design of the last uniform fit

    def _index(self, rows) -> np.ndarray:
        return np.arange(self.n_rows)[slice(None) if rows is None else rows]

    def _take(self, rows) -> np.ndarray:
        return self.phi if rows is None else self.phi[rows]

    def _group_means(self, rows):
        """(mean phi phi^T, mean phi) over ``rows`` (all when None) from group
        sums (each made at its first use), or None when ``rows`` is no union
        of the map's groups."""
        if self.groups is None:
            return None
        rows = self._index(rows)
        if self._sums is None:
            counts, F = np.bincount(self.groups), self.phi.shape[1]
            # the rows of group g, ascending: order[starts[g]:starts[g + 1]]
            starts = np.concatenate(([0], np.cumsum(counts)))
            self._sums = (np.zeros((counts.size, F, F)), np.zeros((counts.size, F)),
                          counts, np.zeros(counts.size, dtype=bool),
                          np.argsort(self.groups, kind="stable"), starts)
        grams, totals, counts, summed, order, starts = self._sums
        taken = np.bincount(self.groups[rows], minlength=counts.size)
        hit = taken > 0
        if np.any(taken[hit] != counts[hit]):
            return None
        seen = np.zeros(self.n_rows, dtype=bool)     # a repeated row: no union of groups
        seen[rows] = True
        if np.count_nonzero(seen) != rows.size:
            return None
        todo = np.flatnonzero(hit & ~summed)
        if todo.size:
            self._sum_groups(todo)
            summed[todo] = True
        return grams[hit].sum(axis=0) / rows.size, totals[hit].sum(axis=0) / rows.size

    def _sum_groups(self, todo) -> None:
        """Each group of ``todo``'s raw gram and column sums, added block by
        block into its zeros in ``_sums``: the groups are dealt whole to the
        shares of one :func:`_run_spans` by rows (:func:`_blocks._deal`), and a
        share sums each of its groups' blocks in order with its own gather
        buffer and slots, all made here."""
        grams, totals, counts, _, order, starts = self._sums
        shares, F = _shares(todo.size), self.phi.shape[1]
        buf = _share_blocks(shares, int(counts[todo].max()), F)
        slots = np.empty((shares, F, F)), np.empty((shares, F))
        dealt = _blocks._deal(counts[todo].tolist(), shares)

        def share(span, j):
            gram, total = slots[0][j:j + 1], slots[1][j:j + 1]
            for g in todo[dealt[j]]:
                edges, take = _row_blocks(self.phi, order[starts[g]:starts[g + 1]])
                work = _summing(take, False, None, None, buf[j:j + 1], gram, total, None)
                _block_pass(edges, 1, work, ((grams[g], gram), (totals[g], total)))
        _run_spans(list(range(shares + 1)), shares, share)

    @_blocks._one_blas_thread()
    def fit(self, spec: RegressorSpec, target, weight=None, rows=None) -> FittedRegressor:
        """``fit_regressor(spec, X[rows], target, weight)`` from the map (its bits
        unless the gram is from group sums); one target and weight per row."""
        if map_key(spec, self.in_dim) != self.key:
            raise ValueError("spec reads another row map than the map's")
        rows = None if rows is None else self._index(rows)
        n = self.n_rows if rows is None else rows.size
        if n < 1:
            raise ValueError("need at least one training row")
        y = np.asarray(target, dtype=float)
        if y.shape != (n,):
            raise ValueError("target must be one value per row")
        if self.W is None:
            return FittedRegressor(spec, self.in_dim, n, _fit_lookup(
                self._take(rows), y, _normalized_weights(weight, n)))
        if weight is not None:
            self._design = None               # never two designs
            return RidgeDesign(self, _normalized_weights(weight, n), rows, y).fit(spec, y)
        # rows of None (all) equal only None
        if self._design is None or not np.array_equal(self._design.rows, rows):
            self._design = None
            self._design = RidgeDesign(self, None, rows, y)
        return self._design.fit(spec, y)

    @_blocks._one_blas_thread()
    def predict(self, models, rows=None) -> list:
        """``predict_many(models, X[rows])`` for models that read this map (a
        map's ``cos`` is float32, so never a model loaded from format 1 or 2)."""
        reads = ((lambda m: map_key(m.spec, m.in_dim) == self.key) if self.W is None
                 else (lambda m: _draws(m, self.W, self.b, False)))
        if not all(reads(model) for model in models):
            raise ValueError("model reads another row map than the map's")
        rows = None if rows is None else self._index(rows)
        if self.W is None:
            X = self._take(rows)
            return [model._predict_lookup(X) for model in models]
        return _predict_mapped(models, *_row_blocks(self.phi, rows), self.phi.shape[1],
                               rows is not None)


class RidgeDesign:
    """The weighted ridge system of one row set of a ridge :class:`RowMap`.

    It holds the weighted mean map m of the rows, the gram sum w phi phi^T -
    m m^T, and on demand a Cholesky factor per penalty and the
    eigendecomposition "auto" penalties search, so each :meth:`fit` costs a
    right-hand side and a solve.  ``rows`` are the map's rows the design
    reads (all when None, as views of the map), ``w`` their normalized
    weights, None meaning uniform.  Uniform rows that are a union of the
    map's groups take the gram from group sums; other rows are read in
    row blocks on every CPU (:func:`_raw_sums`), with ``fit_regressor``'s
    bits, and never copied; that pass also makes the right-hand side of
    ``y``, the target of the first fit.
    """

    def __init__(self, source: RowMap, w=None, rows=None, y=None):
        n = source.n_rows if rows is None else rows.size
        means = source._group_means(rows) if w is None else None
        self.w = np.full(n, 1.0 / n) if w is None else w
        self.in_dim, self.W, self.b = source.in_dim, source.W, source.b
        self._phi, self.rows, self._from_sums = source.phi, rows, means is not None
        self._first = None, None              # the first fit's y, its right-hand side
        if means is None:
            v = None if y is None else self.w * (y - float(self.w @ y))
            *means, rhs = _raw_sums(self._phi, rows, self.w, v)
            self._first = y, rhs
        # weights of unit mass: the weighted sums are the means
        self.gram, self.phi_mean = means
        self.gram -= np.outer(self.phi_mean, self.phi_mean)
        self.phi_mean.flags.writeable = False   # every fit's model holds it
        self._factors = {}
        self._eigh = None

    def _rhs(self, v: np.ndarray) -> np.ndarray:
        """``phi[rows]^T v``: one product over the whole map when the gram
        came from group sums (faster than gathering 15,000 of 25,000 rows),
        else summed over the row blocks, as the gram was."""
        if self._from_sums:
            full = np.zeros(self._phi.shape[0])
            full[slice(None) if self.rows is None else self.rows] = v
            return self._phi.T @ full
        return _raw_sums(self._phi, self.rows, v=v, gram=False)[2]

    def fit(self, spec: RegressorSpec, y: np.ndarray) -> FittedRegressor:
        """Fit ``spec``'s penalty to the target ``y`` (one value per row)."""
        w, n = self.w, self.w.size
        y_mean = float(w @ y)
        first, self._first = self._first, (None, None)
        # centering phi adds nothing: sum w(y - ȳ) = 0
        rhs = first[1] if first[0] is y else self._rhs(w * (y - y_mean))
        lam = spec.ridge_lambda
        if lam == "auto":
            if self._eigh is None:
                d, V = linalg.eigh(self.gram)
                self._eigh = np.maximum(d, 0.0), V
            lam = _gcv_lambda(*self._eigh, rhs, float(w @ (y - y_mean) ** 2), n)
        if lam not in self._factors:
            self._factors[lam] = _cholesky(self.gram, lam)
        beta = linalg.cho_solve(self._factors[lam], rhs)
        return FittedRegressor(spec, self.in_dim, n, {
            "W": self.W, "b": self.b, "beta": beta, "phi_mean": self.phi_mean,
            "intercept": y_mean, "ridge_lambda_used": float(lam)})


def _cholesky(gram, lam):
    if lam > 0:
        gram = gram.copy()
        gram[np.diag_indices_from(gram)] += lam
        return linalg.cho_factor(gram)
    try:
        return linalg.cho_factor(gram)
    except linalg.LinAlgError as exc:
        raise ValueError("singular system with ridge_lambda=0; regularize or "
                         "drop collinear features") from exc


def _gcv_lambda(d, V, rhs, weighted_yy, n_rows):
    """Pick the ridge penalty minimizing generalized cross-validation.

    Works in the eigenbasis (d, V) of the (weighted, centered) gram matrix,
    eigenvalues floored at 0, so the whole grid costs one eigendecomposition.
    """
    c = V.T @ rhs
    best_lam, best_gcv = RIDGE_LAMBDA_GRID[0], np.inf
    for lam in RIDGE_LAMBDA_GRID:
        bt = c / (d + lam)
        ssr = weighted_yy - 2.0 * float(c @ bt) + float((bt * bt) @ d)
        df = float(np.sum(d / (d + lam))) + 1.0
        if df >= n_rows:
            continue
        gcv = ssr / (1.0 - df / n_rows) ** 2
        if gcv < best_gcv:
            best_lam, best_gcv = lam, gcv
    return best_lam


def _fit_lookup(X, y, w):
    sums: dict[bytes, list] = {}
    for row, yi, wi in zip(X, y, w):
        key = row.tobytes()
        cell = sums.setdefault(key, [0.0, 0.0, 0.0, 0])
        cell[0] += wi * yi
        cell[1] += wi
        cell[2] += yi
        cell[3] += 1
    table = {}
    for key, (wy, ws, ys, cnt) in sums.items():
        table[key] = wy / ws if ws > 0 else ys / cnt
    default = float(np.dot(w, y) / w.sum())
    return {"table": table, "default": default}


@dataclass(frozen=True)
class ClassifierSpec:
    """Multinomial logistic classifier configuration.

    With use_random_features the inputs pass through the same random cosine
    map as the ridge regressor, which lets the linear-in-parameters model
    capture oscillatory treatment-assignment rules.  l2 defaults to "auto":
    the penalty is chosen from a fixed grid by held-out log-loss at fit
    time, which adapts between strongly driven and near-random assignment
    mechanisms.

    ``tol`` and ``max_iter`` bound each solve.  With two classes Newton's
    method stops when the Euclidean norm of its gradient falls below
    ``tol`` and takes at most ``max_iter`` trust-region steps; with more,
    L-BFGS stops when the largest entry of its projected gradient is at most
    ``tol`` and runs at most ``max_iter`` iterations.  A two-class fit gives
    the same bits on any CPU count and any BLAS thread setting (see
    :func:`_solve_logistic`).
    """

    use_random_features: bool = True
    feature_count: int = 64
    bandwidth: float = 2.0
    l2: float | str = "auto"
    tol: float = 1e-9
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        _validate_count(self.feature_count, "feature_count")
        _validate_count(self.max_iter, "max_iter")
        _validate_count(self.seed, "seed", 0)
        _validate_real(self.bandwidth, "bandwidth", 0, strict=True)
        _validate_real(self.tol, "tol", 0, strict=True)
        _validate_real(0 if self.l2 == "auto" else self.l2, "l2", 0)
        if not isinstance(flag := self.use_random_features, bool):
            raise ValueError(f"use_random_features must be a bool, got {flag!r}")


_PROB_EPS = 1e-12


def _softmax(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _nll_and_grad(theta_flat, phi, labels, w, l2, n_classes):
    theta = theta_flat.reshape(phi.shape[1], n_classes)
    P = _softmax(phi @ theta)
    like = P[np.arange(labels.size), labels]
    nll = -np.dot(w, np.log(np.maximum(like, 1e-300)))
    G = P.copy()
    G[np.arange(labels.size), labels] -= 1.0
    grad = phi.T @ (G * w[:, None])
    if l2 > 0:     # intercept column (last feature) is unpenalized
        nll += 0.5 * l2 * np.sum(theta[:-1] ** 2)
        grad[:-1] += l2 * theta[:-1]
    return nll, grad.ravel()


class _BinaryLoss:
    """The two-class objective :func:`_solve_logistic` minimizes, as a
    function of beta: :func:`_nll_and_grad` of two classes at theta =
    [-beta / 2, beta / 2] (the weighted cross-entropy of P(class 1) =
    expit(phi beta) for the 0/1 labels ``y``, plus (l2 / 4) ||beta||^2 off
    the intercept), its gradient, and its exact Hessian A^T A for A = phi
    sqrt(w p (1 - p)), plus l2 / 2 on the diagonal off the intercept.

    One pass makes all three at a point: per row block, ``z = block @
    beta``, the loss and gradient sums, then A and A^T A (BLAS ``syrk``),
    each into the block's slot; the slots are added in block order
    (:func:`_in_order`), the penalty last.  The blocks (:func:`_block_edges`)
    and the scratch of every share are fixed when the instance is made.
    The values at the last point are kept, because the solver asks for the
    loss and the Hessian at each point it proposes; an instance serves one
    solve, so one ``l2``.
    """

    def __init__(self, phi, y, w, l2):
        n, width = phi.shape
        self.phi, self.y, self.w, self.l2 = phi, y, w, l2
        self.edges = _block_edges(n)
        blocks, rows = len(self.edges) - 1, min(n, _blocks._PREDICT_BLOCK_ROWS + 1)
        self.scratch = [(np.empty((rows, width)), np.empty((4, rows)))
                        for _ in range(_shares(blocks))]
        self.parts = np.empty(blocks), np.empty((blocks, width)), np.empty((blocks, width, width))
        self.key, self.values = None, None

    def _block(self, beta, span, j):
        """Block ``span``'s loss, gradient and Hessian sums into its slots,
        with share j's scratch."""
        k = self.edges.index(span.start)
        block, w, y = self.phi[span], self.w[span], self.y[span]
        A, (z, p, u, q) = self.scratch[j][0][:len(w)], self.scratch[j][1][:, :len(w)]
        nll, grad, hess = self.parts
        np.matmul(block, beta, out=z)
        np.logaddexp(0.0, z, out=q)
        q -= np.multiply(y, z, out=u)
        nll[k] = w @ q
        special.expit(z, out=p)
        np.subtract(p, y, out=u)
        u *= w
        np.matmul(block.T, u, out=grad[k])
        np.multiply(w, p, out=u)
        u *= special.expit(np.negative(z, out=q), out=q)
        np.sqrt(u, out=u)
        np.multiply(block, u[:, None], out=A)
        np.matmul(A.T, A, out=hess[k])

    def _at(self, beta) -> tuple:
        """(loss, gradient, Hessian) at ``beta``."""
        key = beta.tobytes()
        if key != self.key:
            _run_spans(self.edges, len(self.scratch), lambda span, j: self._block(beta, span, j))
            nll, grad, hess = (_in_order(part[0].copy(), part[1:]) for part in self.parts)
            nll = float(nll) + 0.25 * self.l2 * float(beta[:-1] @ beta[:-1])
            grad[:-1] += 0.5 * self.l2 * beta[:-1]
            off = np.arange(beta.size - 1)
            hess[off, off] += 0.5 * self.l2
            self.key, self.values = key, (nll, grad, hess)
        return self.values

    def loss_and_grad(self, beta):
        return self._at(beta)[:2]

    def hessian(self, beta):
        return self._at(beta)[2]


def _design(X, W, b, chunks: int = 0, cos64: bool = False) -> np.ndarray:
    """The classifier's rows [phi(X), 1]: the cosine map of ``X`` under
    (W, b) (``cos`` in float64 when ``cos64``), or ``X`` itself when W is
    None, and the intercept's column of ones.  Each :func:`_block_edges`
    block is mapped on one share into its buffer, its ``cos`` in ``chunks``
    chunks (when 0, over the CPUs if one share maps every block, else one),
    and copied in."""
    n = X.shape[0]
    F = X.shape[1] if W is None else W.shape[1]
    out = np.empty((n, F + 1))
    out[:, F] = 1.0
    edges = _block_edges(n)
    shares = _shares(len(edges) - 1)
    buf = None if W is None else _share_blocks(shares, n, F)
    chunks = chunks or (0 if shares == 1 else 1)

    def work(span, j):
        out[span, :F] = X[span] if W is None else _cosine_features(
            X[span], W, b, buf[j][:span.stop - span.start], chunks, cos64)
    _run_spans(edges, shares, work)
    return out


@dataclass(frozen=True)
class FittedClassifier:
    """Immutable fitted classifier; probabilities are clipped only at evaluation."""

    spec: ClassifierSpec
    in_dim: int
    n_classes: int
    n_rows: int
    params: dict

    @_blocks._one_blas_thread()
    def predict_proba(self, features) -> np.ndarray:
        """Class probabilities at ``features``, in one pass of
        :func:`_block_edges` blocks over the shares: each share makes its
        block's design (:func:`_design`, so the training rows get the bits
        of the fit's) and writes its softmax of the product with ``theta``.
        A prediction holds about two blocks of the map per share."""
        features = np.asarray(features, dtype=float)
        squeeze = features.ndim == 1
        if squeeze:
            features = features[None, :]
        if features.shape[1] != self.in_dim:
            raise ValueError(f"feature width {features.shape[1]} does not match "
                             f"training width {self.in_dim}")
        W, b, theta = self.params.get("W"), self.params.get("b"), self.params["theta"]
        cos64, edges = self.params.get("cos64", False), _block_edges(features.shape[0])
        shares = _shares(len(edges) - 1)
        P = np.empty((features.shape[0], self.n_classes))
        _run_spans(edges, shares, lambda span, j: np.copyto(P[span], _softmax(
            _design(features[span], W, b, 0 if shares == 1 else 1, cos64) @ theta)))
        np.clip(P, _PROB_EPS, 1.0 - _PROB_EPS, out=P)
        P /= P.sum(axis=1, keepdims=True)
        return P[0] if squeeze else P

    def to_dict(self) -> dict:
        params = {"theta": self.params["theta"].tolist(),
                  "l2_used": self.params["l2_used"]}
        if self.spec.use_random_features:
            params.update(_map_state(self.params))
        return {"spec": dict(self.spec.__dict__), "in_dim": self.in_dim,
                "n_classes": self.n_classes, "n_rows": self.n_rows, "params": params}

    @staticmethod
    def from_dict(state: dict, where: str = "classifier", version: int = BUNDLE_FORMAT_VERSION,
                  codec=None) -> "FittedClassifier":
        """Load ``to_dict``'s state (see :meth:`FittedRegressor.from_dict`)."""
        fields = _Fields(state, where)
        spec = fields.obj("spec").build(ClassifierSpec)
        in_dim, n_rows = fields.count("in_dim"), fields.count("n_rows")
        if codec is not None:
            codec.check_width(in_dim, where)
        n_classes = fields.count("n_classes", 2)
        raw, params = fields.obj("params", f" (format_version {version})"), {}
        width, dims = in_dim, " = (in_dim + 1, n_classes)"
        if spec.use_random_features:
            params.update(_bundled_map(raw, in_dim, spec, version))
            width, dims = spec.feature_count, " = (spec.feature_count + 1, n_classes)"
        params["theta"] = raw.array("theta", (width + 1, n_classes), dims)
        params["l2_used"] = raw.real("l2_used", 0)
        return FittedClassifier(spec, in_dim, n_classes, n_rows, params)


@_blocks._one_blas_thread()
def fit_classifier(spec: ClassifierSpec, features, labels, weight=None,
                   n_classes: Optional[int] = None) -> FittedClassifier:
    """Fit multinomial logistic regression by weighted cross-entropy.

    Two classes are solved by Newton's method with the exact Hessian, more
    by L-BFGS (see :func:`_solve_logistic`).  Raises if fewer than two
    classes are present or if the solver stops short of ``spec.tol`` within
    ``spec.max_iter`` steps with a gradient max-norm above 1e-5 (the error
    reports it).
    """
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    labels = np.asarray(labels, dtype=int)
    n = X.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must be one class index per row")
    present = np.unique(labels)
    if present.size < 2:
        raise ValueError("single-class data: need >= 2 classes to fit a classifier")
    K = int(n_classes) if n_classes is not None else int(labels.max()) + 1
    if labels.max() >= K:
        raise ValueError("label exceeds n_classes")
    w = _normalized_weights(weight, n)

    params, W, b = {}, None, None
    if spec.use_random_features:
        W, b = random_cosine_map(X.shape[1], spec.feature_count, spec.bandwidth, spec.seed)
        params["W"], params["b"] = W, b
    phi = _design(X, W, b)

    l2 = spec.l2
    if l2 == "auto":
        l2 = _holdout_l2(spec, phi, labels, w, K)
    params["theta"] = _solve_logistic(spec, phi, labels, w, l2, K)
    params["l2_used"] = float(l2)
    return FittedClassifier(spec, X.shape[1], K, n, params)


def _solve_logistic(spec, phi, labels, w, l2, n_classes, theta0=None):
    """The (F + 1) x K parameters minimizing :func:`_nll_and_grad`, from
    ``theta0`` (zeros when None).

    Two classes take Newton's method (scipy's ``trust-exact``) on beta =
    theta[:, 1] - theta[:, 0] and return [-beta / 2, beta / 2].  The
    two-class softmax objective sees theta through beta and the penalty,
    which is least when each row of theta sums to zero (the unpenalized
    intercept row is set so too), so that is its optimum.  One
    :class:`_BinaryLoss` per solve makes the loss, gradient and Hessian at
    each point the solver proposes in one fused pass over 4096-row blocks
    (:mod:`tvcate._blocks`).  More classes take L-BFGS.
    """
    width = phi.shape[1]
    if theta0 is None:
        theta0 = np.zeros((width, n_classes))
    if n_classes == 2:
        loss = _BinaryLoss(phi, (labels == 1).astype(float), w, l2)
        res = optimize.minimize(
            loss.loss_and_grad, theta0[:, 1] - theta0[:, 0],
            method="trust-exact", jac=True, hess=loss.hessian,
            options={"maxiter": spec.max_iter, "gtol": spec.tol},
        )
        theta = np.column_stack([-0.5 * res.x, 0.5 * res.x])
    else:
        res = optimize.minimize(
            _nll_and_grad, theta0.ravel(), args=(phi, labels, w, l2, n_classes),
            method="L-BFGS-B", jac=True,
            options={"maxiter": spec.max_iter, "gtol": spec.tol, "ftol": 0.0},
        )
        theta = res.x.reshape(width, n_classes)
    gnorm = float(np.max(np.abs(res.jac)))
    if not res.success and gnorm > 1e-5:
        raise ValueError(f"classifier failed to converge within {spec.max_iter} "
                         f"iterations; final gradient max-norm {gnorm:.3e}")
    return theta


def _holdout_l2(spec, phi, labels, w, n_classes):
    """Pick the l2 penalty by held-out log-loss with a paired one-SE rule.

    Among the grid, the strongest penalty whose mean held-out loss is within
    one paired standard error of the minimizer wins; on label-independent
    data every penalty ties statistically and the strongest is chosen, while
    a real signal keeps the looser fits.  Deterministic given ``spec.seed``.
    Falls back to the middle of the grid when the sample is too small to
    split or either part loses a class.
    """
    n = phi.shape[0]
    fallback = CLASSIFIER_L2_GRID[len(CLASSIFIER_L2_GRID) // 2]
    if n < 50:
        return fallback
    rng = np.random.default_rng([spec.seed, 0x5E1EC7])
    perm = rng.permutation(n)
    cut = int(0.8 * n)
    tr, va = perm[:cut], perm[cut:]
    if np.unique(labels[tr]).size < 2 or np.unique(labels[va]).size < 2:
        return fallback
    w_tr = w[tr] / w[tr].sum()
    w_va = w[va] / w[va].sum()
    # gathered once; phi[va] is gathered per grid point, not held through the solves
    phi_tr, labels_tr, labels_va = phi[tr], labels[tr], labels[va]
    row_losses, theta = [], None
    for l2 in CLASSIFIER_L2_GRID:       # warm-start along the grid
        theta = _solve_logistic(spec, phi_tr, labels_tr, w_tr, l2, n_classes, theta)
        P = _softmax(phi[va] @ theta)
        row_losses.append(-np.log(np.maximum(P[np.arange(va.size), labels_va], _PROB_EPS)))
    means = [float(w_va @ rl) for rl in row_losses]
    best = int(np.argmin(means))
    for i in range(len(CLASSIFIER_L2_GRID) - 1, best, -1):
        diff = row_losses[i] - row_losses[best]
        mean_d = float(w_va @ diff)
        se_d = float(np.sqrt(np.sum(w_va ** 2 * (diff - mean_d) ** 2)))
        if mean_d <= se_d:
            return CLASSIFIER_L2_GRID[i]
    return CLASSIFIER_L2_GRID[best]
