"""Nuisance estimation: response surfaces, propensities, history adjustments.

Everything downstream consumes nuisances through :class:`NuisanceSet`, which
answers vectorized queries either from fitted models or, in oracle mode,
straight from a DGP's ground-truth functions (closed-form response surfaces
and exact propensities), so estimator identities can be tested in isolation
from fit quality.

Row bookkeeping lives in :class:`RowTable`: one row per (trajectory i,
time t) with 1 <= t <= T_i - tau.  It holds the row index and the observed
treatments A_{t..t+tau}; everything else, the terminal outcome Y_{t+tau}
too, is gathered from the panel one level offset j in {0..tau} at a time.
Row (i, t) at level j is the panel position (i, t + j), so the encoded
history H_{t+j} is a gather of the panel's encoded positions, and the raw
frontier values oracle queries read (X_{t+j}, A_{t+j-1}, Y_{t+j-1}) are
gathers of the panel's flat rows.  Every regressor fit and prediction
reads one row map of those positions (:class:`~tvcate.learners.RowMap`).

A table fills its row index and arms, and an oracle, injected or held-value
query (one call per level, arm and table, or per row block given its
``rows``) fills its rows, in row blocks over the usable CPUs, with the bits
of one whole evaluation (:mod:`tvcate._blocks`); predictions are not.

A nuisance bundle (format 3) stores each fitted model with its cosine map
as a digest (:mod:`tvcate.learners`), and a disabled split plan as its
trajectory count; an enabled plan keeps its folds.  Loading reads each field
once through the reader of :mod:`tvcate.learners` (flags, counts, reals such
as ``clip_eps``, finite arrays of their shapes, model containers, tau + 1
levels in the pair and each arm's response models) and raises ``ValueError``
naming the field's path.  Format-1 and format-2 bundles still load, and
their models map with float64 ``cos``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from ._blocks import _table_array, _table_blocks
from .learners import (
    BUNDLE_FORMAT_VERSION,
    ClassifierSpec,
    FittedClassifier,
    FittedRegressor,
    RegressorSpec,
    RowMap,
    _Fields,
    fit_classifier,
    predict_many,
)
from .panel import FeatureCodec, InterventionPair, Panel, _validate_count

__all__ = [
    "RowTable",
    "SplitPlan",
    "NuisanceSet",
    "build_row_table",
    "make_split",
    "fit_history_adjustment",
    "fit_response_iterative",
    "fit_propensities",
    "fit_nuisances",
    "oracle_nuisances",
    "default_codec",
    "save_nuisances",
    "load_nuisances",
    "SMALL_RESTRICTION_ROWS",
]

SMALL_RESTRICTION_ROWS = 30


def default_codec(panel: Panel) -> FeatureCodec:
    return FeatureCodec(max_len=int(panel.lengths().max()), cov_dim=panel.covariate_dim,
                        treatment_arity=panel.treatment_arity)


class RowTable:
    """Pooled (trajectory, t) rows with per-level-offset views (see module docs).

    Encoded features are gathers of the panel's encoded positions
    (:meth:`~tvcate.panel.Panel.encoded`) at :meth:`positions`, and raw
    frontier values (x, previous a/y) gathers of its flat rows
    (:meth:`frontier`), one level per call.  ``x_tail``, ``aprev_tail`` and
    ``yprev_tail`` stack every level into an (N, tau + 1) array on each
    access; no query reads them, they remain for callers that compare whole
    tables.  Rows are ordered by (trajectory position, t).
    ``traj_id`` is int32, ``t`` the narrowest signed integer type that holds
    the longest trajectory's length and ``a_obs`` the narrowest that holds
    the arms.  ``y_term``, the terminal outcome Y_{t+tau}, is not held: each
    access gathers it from the panel, so callers that loop should hoist it.
    """

    def __init__(self, panel: Panel, tau: int, codec: FeatureCodec):
        if tau < 0:
            raise ValueError("tau must be >= 0")
        lengths = panel.lengths()
        if tau >= lengths.min():
            raise ValueError("horizon too long: tau >= shortest trajectory length")
        self.panel = panel
        self.tau = tau
        self.codec = codec

        # rows ordered by (trajectory position, t); row(i, t) = first[i] + t - 1
        n_t = lengths - tau
        self.traj_id = np.repeat(np.arange(panel.n, dtype=np.int32), n_t)
        self.n_rows = self.traj_id.size
        first = np.cumsum(n_t) - n_t
        self.t = np.empty(self.n_rows, dtype=np.min_scalar_type(-1 - int(lengths.max())))
        self.a_obs = np.empty((self.n_rows, tau + 1), dtype=panel.A.dtype)

        def fill(rows):
            self.t[rows] = np.arange(rows.start, rows.stop) - first[self.traj_id[rows]] + 1
            at = self.positions(0, rows)
            for j in range(tau + 1):
                self.a_obs[rows, j] = panel.A[at + j]
        _table_blocks(self.n_rows, fill)

    def positions(self, j: int, rows=slice(None)) -> np.ndarray:
        """The panel row of position (i, t + j) for every row (i, t) in ``rows``."""
        return self.panel.offsets[self.traj_id[rows]] + self.t[rows] + (j - 1)

    def frontier(self, j: int, names=("x", "a_prev", "y_prev"), rows=slice(None)) -> tuple:
        """Raw frontier values of H_{t+j} for every row (or ``rows``), one
        array per name: ``"x"`` the first covariate X_{t+j}, ``"a_prev"`` (as
        float) and ``"y_prev"`` the treatment and outcome at t + j - 1, both 0
        at absolute time 1."""
        if not 0 <= j <= self.tau:
            raise ValueError(f"offset {j} outside 0..{self.tau}")
        at = self.positions(j, rows)
        first = self.t[rows] == 1 - j      # absolute time t + j is 1
        out = []
        for name in names:
            if name == "x":
                out.append(self.panel.X[at, 0])
            else:
                prev = {"a_prev": self.panel.A, "y_prev": self.panel.Y}[name][at - 1]
                out.append(np.where(first, 0, prev).astype(float, copy=False))
        return tuple(out)

    def _stacked(self, name: str) -> np.ndarray:
        return np.stack([self.frontier(j, (name,))[0] for j in range(self.tau + 1)], axis=1)

    x_tail = property(lambda self: self._stacked("x"))
    aprev_tail = property(lambda self: self._stacked("a_prev"))
    yprev_tail = property(lambda self: self._stacked("y_prev"))
    y_term = property(lambda self: self.panel.Y[self.positions(self.tau)])

    def features(self, j: int, rows=slice(None)) -> np.ndarray:
        """Encoded H_{t+j} for every row (or ``rows``): a gather of the encoded positions."""
        if not 0 <= j <= self.tau:
            raise ValueError(f"offset {j} outside 0..{self.tau}")
        if self.panel.lengths().max() - self.tau + j > self.codec.max_len:
            raise ValueError("history exceeds codec capacity")
        return self.panel.encoded(self.codec)[self.positions(j, rows)]

    def traj_mask(self, fold_ids: np.ndarray) -> np.ndarray:
        return np.isin(self.traj_id, fold_ids)


def build_row_table(panel: Panel, tau: int,
                    codec: Optional[FeatureCodec] = None) -> RowTable:
    if codec is None:
        codec = default_codec(panel)
    return RowTable(panel, tau, codec)


def position_groups(panel: Panel) -> np.ndarray:
    """Each panel row's label ``time_index * arity + A``: a response level's
    rows and a second stage's rows are unions of these (time, arm) groups."""
    time_index = np.arange(panel.A.size) - np.repeat(panel.offsets[:-1], panel.lengths())
    return time_index * panel.treatment_arity + panel.A


def position_map(spec: RegressorSpec, panel: Panel, codec: FeatureCodec) -> RowMap:
    """The row map of every encoded panel position under ``spec``, grouped
    by :func:`position_groups`."""
    return RowMap(spec, panel.encoded(codec), position_groups(panel))


def _classifier_positions(panel: Panel, ids=None) -> np.ndarray:
    """Panel rows of the trajectories ``ids`` (all when None), in the order the
    propensity classifier trains on them: by trajectory length, then time."""
    lengths = panel.lengths()
    ids = np.arange(panel.n) if ids is None else np.asarray(ids)
    blocks = []
    for T in np.unique(lengths[ids]):
        starts = panel.offsets[ids[lengths[ids] == T]]
        blocks.append((np.arange(T)[:, None] + starts[None, :]).ravel())
    return np.concatenate(blocks)


def _fold_names(tau: int) -> list[str]:
    return [f"mu_{j}" for j in range(tau + 1)] + ["pi", "po"]


@dataclass(frozen=True)
class SplitPlan:
    """Assignment of trajectory ids to nuisance folds.

    Folds: one per response level offset ("mu_0".."mu_<tau>"), one for the
    propensity model ("pi"), one for the pseudo-outcome second stage ("po").
    Disabled plans map every fold to the full id set.
    """

    enabled: bool
    tau: int
    folds: dict

    def fold(self, name: str) -> np.ndarray:
        return self.folds[name]


def make_split(panel: Panel, tau: int, enabled: bool, seed=0) -> SplitPlan:
    """Random disjoint partition into tau+3 folds (or the trivial full-set plan)."""
    n = panel.n
    names = _fold_names(tau)
    if not enabled:
        full = np.arange(n)
        return SplitPlan(False, tau, {name: full for name in names})
    if n < tau + 3:
        raise ValueError(f"need >= {tau + 3} trajectories to split into {tau + 3} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    parts = np.array_split(perm, len(names))
    return SplitPlan(True, tau, {name: np.sort(part) for name, part in zip(names, parts)})


def _restrict(mask: np.ndarray, what: str):
    k = int(mask.sum())
    if k == 0:
        raise ValueError(what)
    if k < SMALL_RESTRICTION_ROWS:
        warnings.warn(f"{what.split('->')[0].strip()}: only {k} training rows "
                      f"(low-overlap regime)", RuntimeWarning, stacklevel=3)
    return mask


def fit_response_iterative(panel: Panel, a_seq, tau: int, spec: RegressorSpec,
                           split: Optional[SplitPlan] = None,
                           table: Optional[RowTable] = None) -> list[FittedRegressor]:
    """Backward iterative G-computation for one intervention sequence.

    Level tau regresses the terminal outcome Y_{t+tau} on H_{t+tau} over rows
    with A_{t+tau} = a_tau; every earlier level j regresses the level-(j+1)
    model's predictions at H_{t+j+1} on H_{t+j} over rows with A_{t+j} = a_j.
    With a split plan, level j trains only on trajectories in fold mu_j.
    ``table`` may hand in the panel's row table for ``tau``.  Returns the
    tau+1 fitted models ordered by level offset 0..tau.
    """
    a_seq = tuple(int(v) for v in a_seq)
    if len(a_seq) != tau + 1:
        raise ValueError("a_seq must have length tau+1")
    if table is None:
        table = build_row_table(panel, tau)
    if split is None:
        split = make_split(panel, tau, enabled=False)
    models, _ = _fit_responses(table, (a_seq,), spec, split,
                               position_map(spec, table.panel, table.codec))
    return models[0]


def _fit_responses(table: RowTable, seqs, spec: RegressorSpec, split: SplitPlan,
                   raw: RowMap, level0: bool = False):
    """:func:`fit_response_iterative` for several sequences, level by level.

    Every fit and prediction reads ``raw``, the row map of the table's
    panel positions.  Returns the models per sequence by level, and their
    predictions at H_{t+j} (the next level's targets and the mu-hat of
    ``table``) as ``{j: array}``, level 0 only with ``level0``.
    """
    tau = table.tau
    models = [[None] * (tau + 1) for _ in seqs]
    preds = [{} for _ in seqs]
    targets = [table.y_term] * len(seqs)
    for j in range(tau, -1, -1):
        fold = table.traj_mask(split.fold(f"mu_{j}"))
        for s, seq in enumerate(seqs):
            mask = fold & (table.a_obs[:, j] == seq[j])
            _restrict(mask, f"response level {j} (arm {seq[j]}) -> no rows with "
                            f"A_(t+{j}) = {seq[j]} in its fold")
            models[s][j] = raw.fit(spec, targets[s][mask], rows=table.positions(j)[mask])
        if j > 0 or level0:
            targets = raw.predict([m[j] for m in models], table.positions(j))
            for s, target in enumerate(targets):
                preds[s][j] = target
    return models, preds


def fit_history_adjustment(panel: Panel, pair: InterventionPair, tau: int,
                           spec: RegressorSpec, split: Optional[SplitPlan] = None) -> dict:
    """Direct regressions E[Y_{t+tau} | H_t, observed arms = sequence].

    One regressor per intervention sequence, fitted on rows whose observed
    treatment path A_{t:t+tau} equals that sequence (trained on fold mu_0
    when splitting).  Raises when a path is never observed.
    """
    if pair.tau != tau:
        raise ValueError("pair horizon does not match tau")
    table = build_row_table(panel, tau)
    if split is None:
        split = make_split(panel, tau, enabled=False)
    return _fit_history(table, pair, spec, split, position_map(spec, panel, table.codec))


def _fit_history(table: RowTable, pair: InterventionPair, spec: RegressorSpec,
                 split: SplitPlan, raw: RowMap, responses: Optional[dict] = None) -> dict:
    """:func:`fit_history_adjustment` on a table.

    The fits read their rows from ``raw``, the row map of the table's panel
    positions.  ``responses`` hands in the level-0 response models of a tau
    = 0 table fitted with the same spec and split: they were fitted on the
    same rows, targets and weights, so they are returned in place of
    refitting.
    """
    fold_mask, y_term = table.traj_mask(split.fold("mu_0")), table.y_term
    out = {}
    for key, seq in (("a", pair.a_seq), ("b", pair.b_seq)):
        mask = fold_mask & np.all(table.a_obs == np.asarray(seq), axis=1)
        if not mask.any():
            raise ValueError(f"intervention path unobserved: no rows with observed "
                             f"arms {seq} (low overlap)")
        _restrict(mask, f"history adjustment (arms {seq}) -> unreachable")
        out[key] = (responses[key][0] if responses is not None
                    else raw.fit(spec, y_term[mask], rows=table.positions(0)[mask]))
        if key == "a" and pair.a_seq == pair.b_seq:
            out["b"] = out["a"]
            break
    return out


def fit_propensities(panel: Panel, spec: ClassifierSpec,
                     split: Optional[SplitPlan] = None) -> FittedClassifier:
    """Single time-pooled treatment classifier over encoded histories.

    Histories are encoded under :func:`default_codec`, which includes the
    time index, so one model covers every time step.  With an enabled split
    plan it trains on the "pi" fold, otherwise on every trajectory.
    """
    ids = split.fold("pi") if split is not None and split.enabled else None
    rows = _classifier_positions(panel, ids)
    return fit_classifier(spec, panel.encoded(default_codec(panel))[rows], panel.A[rows],
                          n_classes=panel.treatment_arity)


def propensities_at_positions(model: FittedClassifier, panel: Panel,
                              codec: FeatureCodec) -> np.ndarray:
    """Class probabilities at every panel row, from one ``predict_proba`` in
    the classifier's training order.  Without a split these are its training
    rows, mapped again in the blocks of the fit's design, so they have the
    bits of the fit's own map."""
    rows = _classifier_positions(panel)
    proba = np.empty((rows.size, model.n_classes))
    proba[rows] = model.predict_proba(panel.encoded(codec)[rows])
    proba.flags.writeable = False
    return proba


@dataclass(frozen=True)
class FittedValues:
    """Values of ``models`` on ``panel`` under ``codec`` (see :class:`NuisanceSet`)."""

    panel: Panel
    codec: FeatureCodec
    models: object
    values: object


def _serves(held: Optional[FittedValues], table: RowTable, models) -> bool:
    return (held is not None and table.panel is held.panel and table.codec == held.codec
            and models is held.models)


@dataclass(frozen=True)
class NuisanceSet:
    """All nuisances behind one query interface (fitted or oracle).

    In oracle mode, response-surface queries evaluate the DGP's closed-form
    surfaces and propensity queries the exact structural logits (then the
    same clipping is applied on top).  ``override_propensity`` and
    ``override_response`` are deliberate-corruption hooks for double-
    robustness experiments and identity checks: an overridden propensity is
    used verbatim (no clipping), and the response override may be a scalar
    or a nested mapping ``{arm: {level_offset: value}}``.

    A fitted set keeps its models' values on one panel (:meth:`at`; the
    training panel from :func:`fit_nuisances`): ``mu_values``, mu-hat per
    (arm, level) at that tau table's rows, and ``pi_values``, the class
    probabilities at every position.  Queries on tables of that panel gather
    from them; any other query, or one after ``replace()`` swapped the
    models they came from, evaluates the models afresh.
    """

    pair: InterventionPair
    tau: int
    codec: FeatureCodec
    clip_eps: float
    split: SplitPlan
    oracle_mode: bool = False
    response_models: Optional[dict] = None       # {"a"|"b": [models by offset]}
    propensity_model: Optional[FittedClassifier] = None
    history_models: Optional[dict] = None        # {"a"|"b": model}
    dgp: object = None
    override_propensity: Optional[float] = None
    override_response: object = None
    mu_values: Optional[FittedValues] = field(default=None, compare=False, repr=False)
    pi_values: Optional[FittedValues] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 0.5:
            raise ValueError("clip_eps must lie in (0, 0.5)")
        if self.oracle_mode:
            if self.dgp is None:
                raise ValueError("oracle mode needs a dgp")
            if getattr(self.dgp, "response_form", None) is None:
                raise ValueError("oracle mode needs a DGP with closed-form response "
                                 "surfaces (response_form)")
        if self.oracle_mode or self.override_propensity is not None:
            for name, k, arm in [(name, k, arm) for name in ("a_seq", "b_seq")
                                 for k, arm in enumerate(getattr(self.pair, name)) if arm > 1][:1]:
                raise ValueError(f"{name}[{k}] is arm {arm}: oracle and injected propensities "
                                 "answer arms 0 and 1 only")

    def _seq(self, arm: str):
        return {"a": self.pair.a_seq, "b": self.pair.b_seq}[arm]

    def _response_override(self, arm: str, j: int) -> float:
        v = self.override_response
        if isinstance(v, dict):
            v = v[arm]
            if isinstance(v, dict):
                v = v[j]
        return float(v)

    # -- response surfaces ------------------------------------------------
    def mu(self, arm: str, j: int, table: RowTable, rows: Optional[slice] = None) -> np.ndarray:
        """mu-hat for arm at level offset j, for every row of the table (or ``rows``)."""
        if not 0 <= j <= self.tau:
            raise ValueError(f"level offset {j} outside 0..{self.tau}")
        if self.override_response is None and not self.oracle_mode:
            self._need_response(arm)
            if table.tau == self.tau and _serves(self.mu_values, table, self.response_models):
                values = self.mu_values.values[arm, j]
                return values if rows is None else values[rows]
            return self.response_models[arm][j].predict(
                table.features(j, slice(None) if rows is None else rows))
        value = None if self.override_response is None else self._response_override(arm, j)

        def block(rows):
            if value is not None:
                return np.full(table.t[rows].shape, value)
            x, = table.frontier(j, ("x",), rows)
            return np.asarray(self.dgp.response_form.capo(x, self.tau - j, self._seq(arm)[-1],
                                                          self.dgp.x_noise_std))
        return _table_array(table.n_rows, block) if rows is None else block(rows)

    def _need_response(self, arm: str):
        if self.response_models is None or arm not in self.response_models:
            raise ValueError(f"missing response models for arm {arm!r}")
        if any(m is None for m in self.response_models[arm]):
            raise ValueError(f"missing nuisance level for arm {arm!r}")

    # -- propensities ------------------------------------------------------
    def propensity(self, j: int, a_value: int, table: RowTable, rows: Optional[slice] = None):
        """(clipped, raw) estimated P(A_{t+j} = a_value | H_{t+j}) per row (or per
        row of ``rows``)."""
        p, lo, hi = self.override_propensity, self.clip_eps, 1.0 - self.clip_eps
        if p is None and not self.oracle_mode:
            if self.propensity_model is None:
                raise ValueError("missing propensity model")
            if not _serves(self.pi_values, table, self.propensity_model):
                raw = self.propensity_model.predict_proba(
                    table.features(j, slice(None) if rows is None else rows))[:, int(a_value)]
                return np.clip(raw, lo, hi), raw
        if p is not None:               # injected values are used verbatim
            p, lo, hi = p if a_value == 1 else 1.0 - p, None, None

        def block(rows):
            if p is not None:
                return np.full(table.t[rows].shape, p)
            if self.oracle_mode:
                x, a_prev, y_prev = table.frontier(j, rows=rows)
                a_prev[table.t[rows] == 1 - j] = float(self.dgp.a0)    # absolute time 1
                p1 = expit(self.dgp.f_a(x, a_prev, y_prev))
                return p1 if a_value == 1 else 1.0 - p1
            return self.pi_values.values[table.positions(j, rows), int(a_value)]
        if rows is not None:
            raw = block(rows)
            return np.clip(raw, lo, hi), raw
        raw = _table_array(table.n_rows, block)
        return _table_array(table.n_rows, lambda rows: np.clip(raw[rows], lo, hi)), raw

    def at(self, table: RowTable) -> "NuisanceSet":
        """The set, or a copy that also holds its fitted models' values on the
        table's panel: pi-hat from one ``predict_proba`` that maps every
        position, mu-hat from one map per level shared by both arms."""
        changes, model, models = {}, self.propensity_model, self.response_models
        if model is not None and not _serves(self.pi_values, table, model):
            changes["pi_values"] = FittedValues(table.panel, table.codec, model,
                                                propensities_at_positions(
                                                    model, table.panel, table.codec))
        if (models is not None and table.tau == self.tau and None not in sum(models.values(), [])
                and not _serves(self.mu_values, table, models)):
            mu = {}
            for j in range(self.tau + 1):
                level = predict_many([models[arm][j] for arm in models], table.features(j))
                for arm, values in zip(models, level):
                    values.flags.writeable = False
                    mu[arm, j] = values
            changes["mu_values"] = FittedValues(table.panel, table.codec, models, mu)
        return replace(self, **changes) if changes else self

    # -- corruption hooks ---------------------------------------------------
    def corrupted(self, propensity: Optional[float] = None,
                  response: Optional[float] = None) -> "NuisanceSet":
        """Copy with constant-propensity and/or constant-response overrides."""
        return replace(self, override_propensity=propensity, override_response=response)


def fit_nuisances(panel: Panel, pair: InterventionPair, *,
                  regressor_spec: RegressorSpec = RegressorSpec(),
                  classifier_spec: ClassifierSpec = ClassifierSpec(),
                  split: Optional[SplitPlan] = None, clip_eps: float = 0.01,
                  need: Sequence[str] = ("response", "propensity", "history"),
                  propensity_model: Optional[FittedClassifier] = None,
                  propensities: Optional[np.ndarray] = None,
                  response_map: Optional[RowMap] = None) -> NuisanceSet:
    """Fit the full nuisance collection for one intervention pair.

    ``propensity_model`` hands in a classifier fitted elsewhere (without a
    split, one fit serves every horizon) and ``propensities`` its
    :func:`propensities_at_positions` on the panel; ``response_map`` the row
    map of the panel's positions under the regressor spec, from which every
    response fit, mu-hat and history fit reads (mapped here when None,
    grouped by :func:`position_groups`).
    Histories are encoded under :func:`default_codec`.  At tau = 0 the
    history adjustments are the level-0 response models.
    """
    tau = pair.tau
    codec = default_codec(panel)
    if split is None:
        split = make_split(panel, tau, enabled=False)
    table = build_row_table(panel, tau, codec)

    if response_map is None and ("response" in need or "history" in need):
        response_map = position_map(regressor_spec, panel, codec)
    response_models = mu_values = None
    if "response" in need:
        seqs = (pair.a_seq,) if pair.b_seq == pair.a_seq else (pair.a_seq, pair.b_seq)
        models, preds = _fit_responses(table, seqs, regressor_spec, split,
                                       response_map, level0=True)
        response_models = {"a": models[0], "b": models[-1]}
        mu = {(arm, j): values for arm, s in (("a", 0), ("b", len(seqs) - 1))
              for j, values in preds[s].items()}
        for values in mu.values():
            values.flags.writeable = False
        mu_values = FittedValues(table.panel, table.codec, response_models, mu)
    history_models = None
    if "history" in need:
        history_models = _fit_history(table, pair, regressor_spec, split, response_map,
                                      response_models if tau == 0 else None)
    response_map = None               # free a map made here before the classifier
    if propensity_model is None and "propensity" in need:
        propensity_model, propensities = fit_propensities(panel, classifier_spec, split), None
    pi_values = (None if propensities is None
                 else FittedValues(panel, codec, propensity_model, propensities))
    return NuisanceSet(pair=pair, tau=tau, codec=codec, clip_eps=clip_eps, split=split,
                       response_models=response_models, propensity_model=propensity_model,
                       history_models=history_models, mu_values=mu_values,
                       pi_values=pi_values).at(table)


def oracle_nuisances(dgp, pair: InterventionPair, clip_eps: float = 0.01,
                     codec: Optional[FeatureCodec] = None) -> NuisanceSet:
    """NuisanceSet that answers every query from the DGP's ground truth."""
    if codec is None:
        codec = FeatureCodec(max_len=dgp.horizon, cov_dim=1,
                             treatment_arity=dgp.treatment_arity)
    split = SplitPlan(False, pair.tau, {name: np.arange(0)
                                        for name in _fold_names(pair.tau)})
    return NuisanceSet(pair=pair, tau=pair.tau, codec=codec, clip_eps=clip_eps,
                       split=split, oracle_mode=True, dgp=dgp)


# -- bundle serialization ----------------------------------------------------

#: bundle format versions that load (format 1 stored every cosine map's W and b;
#: the models of formats 1 and 2 map with float64 ``cos``)
READABLE_FORMAT_VERSIONS = (1, 2, BUNDLE_FORMAT_VERSION)


def check_bundle(fields: _Fields) -> int:
    """The format version of the bundle ``fields`` reads; ValueError for an
    unknown one.  Bundles written before the version key existed load as
    version 1."""
    version = fields.state.get("format_version", 1)
    if isinstance(version, bool) or version not in READABLE_FORMAT_VERSIONS:
        raise ValueError(f"{fields.name} has unknown format_version {version!r}; "
                         f"this version reads {READABLE_FORMAT_VERSIONS}")
    return version


def bundle_pair(fields: _Fields, arity: int):
    """A bundle's intervention pair and horizon; ValueError naming ``tau``,
    ``pair``, ``pair.a_seq`` or ``pair.b_seq`` unless tau is an integer >= 0
    and the pair two lists of tau + 1 arms in [0, ``arity``)."""
    tau, pair, seqs = fields.count("tau", 0), fields.obj("pair"), []
    for key in ("a_seq", "b_seq"):
        seqs.append(tuple(_validate_count(arm, f"{pair.path(key)} arm", 0)
                          for arm in pair.seq(key)))
        if len(seqs[-1]) != tau + 1:
            raise ValueError(f"{pair.name} has {len(seqs[-1])} levels per arm, tau {tau} "
                             f"needs {tau + 1} ({key})")
        if max(seqs[-1]) >= arity:
            raise ValueError(f"{pair.path(key)}: arm {max(seqs[-1])} >= treatment_arity {arity}")
    return InterventionPair(*seqs), tau


def response_levels(models: _Fields, arm: str, tau: int) -> list:
    """The states of ``arm``'s tau + 1 levels in a ``response_models`` object."""
    levels = models.seq(arm)
    if len(levels) != tau + 1:
        raise ValueError(f"{models.path(arm)}: {len(levels)} levels, tau {tau} needs {tau + 1}")
    return levels


def _split_to_dict(split: SplitPlan) -> dict:
    if not split.enabled:              # every fold is the full id set
        return {"enabled": False, "tau": split.tau,
                "trajectories": int(split.fold("po").size)}
    return {"enabled": True, "tau": split.tau,
            "folds": {k: v.tolist() for k, v in split.folds.items()}}


def _split_from_dict(split: _Fields, version: int, tau: int) -> SplitPlan:
    enabled = split.flag("enabled")
    if split.count("tau", 0) != tau:
        raise ValueError(f"{split.path('tau')} {split['tau']} differs from the bundle's tau {tau}")
    split.layout = f" (enabled {str(enabled).lower()}, format_version {version})"
    if enabled or version == 1:
        folds, plan = split.obj("folds"), {}
        for name in _fold_names(tau):
            ids = folds.array(name, (None,))
            if np.any((ids < 0) | (ids % 1 != 0)):
                raise ValueError(f"{folds.path(name)} must hold trajectory ids >= 0")
            plan[name] = ids.astype(int)
        return SplitPlan(enabled, tau, plan)
    full = np.arange(split.count("trajectories", 0))
    return SplitPlan(False, tau, {name: full for name in _fold_names(tau)})


def nuisances_to_dict(ns: NuisanceSet) -> dict:
    """JSON-compatible bundle (model parameters + specs + split plan)."""
    if ns.oracle_mode:
        name = getattr(ns.dgp, "name", None)
        state = {"oracle_mode": True, "dgp": name}
    else:
        state = {
            "oracle_mode": False,
            "response_models": None if ns.response_models is None else
                {arm: [m.to_dict() for m in models]
                 for arm, models in ns.response_models.items()},
            "propensity_model": None if ns.propensity_model is None
                else ns.propensity_model.to_dict(),
            "history_models": None if ns.history_models is None else
                {arm: m.to_dict() for arm, m in ns.history_models.items()},
        }
    state.update({
        "pair": {"a_seq": list(ns.pair.a_seq), "b_seq": list(ns.pair.b_seq)},
        "tau": ns.tau,
        "clip_eps": ns.clip_eps,
        "codec": dict(ns.codec.__dict__),
        "split": _split_to_dict(ns.split),
        "format_version": BUNDLE_FORMAT_VERSION,
    })
    return state


def nuisances_from_dict(state: dict) -> NuisanceSet:
    fields = _Fields(state, "nuisance bundle")
    oracle = fields.flag("oracle_mode")
    version = check_bundle(fields)
    fields.layout = f" (oracle_mode {str(oracle).lower()})"
    codec = fields.obj("codec").build(FeatureCodec)
    pair, tau = bundle_pair(fields, codec.treatment_arity)
    common = dict(pair=pair, tau=tau, codec=codec, clip_eps=fields.real("clip_eps"),
                  split=_split_from_dict(fields.obj("split"), version, tau))
    if oracle:
        from .dgp import get_dgp
        name = fields["dgp"]
        try:
            dgp = get_dgp(name)
        except ValueError as exc:
            raise ValueError(f"{fields.path('dgp')}: {exc}") from None
        return NuisanceSet(oracle_mode=True, dgp=dgp, **common)
    rm, hm = (None if fields[key] is None else fields.obj(key)
              for key in ("response_models", "history_models"))
    pm = fields["propensity_model"]
    return NuisanceSet(
        response_models=None if rm is None else
            {arm: [FittedRegressor.from_dict(d, f"response_models.{arm}[{j}]", version, codec)
                   for j, d in enumerate(response_levels(rm, arm, tau))]
             for arm in rm.state},
        propensity_model=None if pm is None
            else FittedClassifier.from_dict(pm, "propensity_model", version, codec),
        history_models=None if hm is None else
            {arm: FittedRegressor.from_dict(hm[arm], f"history_models.{arm}", version, codec)
             for arm in hm.state},
        **common)


def save_nuisances(ns: NuisanceSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(nuisances_to_dict(ns), fh)


def load_nuisances(path) -> NuisanceSet:
    with open(path) as fh:
        return nuisances_from_dict(json.load(fh))
