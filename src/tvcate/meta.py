"""Meta-learners for treatment-effect estimation over pooled history rows.

Six learner kinds share one interface:

* ``PI-HA`` — plug-in difference of history-adjustment regressions.
* ``PI-RA`` — plug-in difference of iterative regression-adjustment surfaces.
* ``RA`` — second-stage regression on regression-adjustment pseudo-outcomes
  (contrast-only: it has no single-arm form).
* ``IPW`` — second-stage regression on inverse-propensity-weighted
  pseudo-outcomes.
* ``DR`` — second-stage regression on doubly robust pseudo-outcomes that
  combine both nuisance families.
* ``IVW-DR`` — the DR second stage reweighted by stabilized inverse-variance
  weights 1/V-hat, where V-hat estimates the conditional scale factor
  E[V | H_t] of the pseudo-outcome variance.

Pseudo-outcome construction is vectorized over a :class:`~tvcate.nuisance.
RowTable`; every propensity enters through the nuisance set's clipping, and
the fraction of clipped queries is reported per learner.  Every learner
predicts from encoded histories H_t, the rows of ``RowTable.features(0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .learners import FittedRegressor, RegressorSpec, fit_regressor, predict_many
from .nuisance import (
    BUNDLE_FORMAT_VERSION,
    NuisanceSet,
    RowTable,
    build_row_table,
    check_bundle,
    nuisances_from_dict,
    nuisances_to_dict,
)
from .panel import FeatureCodec, InterventionPair, Panel

__all__ = [
    "LEARNER_KINDS",
    "PseudoRows",
    "VModel",
    "CateModel",
    "pseudo_ipw",
    "pseudo_dr",
    "pseudo_ra",
    "ivw_realized",
    "build_pseudo_rows",
    "fit_v_model",
    "fit_meta",
    "cate_model_to_dict",
    "cate_model_from_dict",
    "save_cate_model",
    "load_cate_model",
    "DEFAULT_SECOND_STAGE",
]

LEARNER_KINDS = ("PI-HA", "PI-RA", "RA", "IPW", "DR", "IVW-DR")

# second-stage fits see noisy pseudo-outcomes, so their default penalty is
# heavier than the nuisance-stage default
DEFAULT_SECOND_STAGE = RegressorSpec(ridge_lambda=1e-2)
DEFAULT_V_SPEC = RegressorSpec(ridge_lambda="auto")


def _arm_terms(nuisances: NuisanceSet, table: RowTable, seq):
    """Per-level indicators and clipped inverse-propensity machinery for one arm.

    Returns (indicator (N,K), clipped pi (N,K), ratio (N,K), prefix products
    (N,K) with the empty product 1, full product (N,), clip count, query count).
    """
    K = nuisances.tau + 1
    n = table.n_rows
    ind = np.empty((n, K))
    pi = np.empty((n, K))
    clipped_queries = 0
    for k in range(K):
        cl, raw = nuisances.propensity(k, seq[k], table)
        pi[:, k] = cl
        ind[:, k] = table.a_obs[:, k] == seq[k]
        clipped_queries += int(np.count_nonzero(cl != raw))
    ratio = ind / pi
    cum = np.cumprod(ratio, axis=1)
    prefix = np.concatenate([np.ones((n, 1)), cum[:, :-1]], axis=1)
    return ind, pi, ratio, prefix, cum[:, -1], clipped_queries, n * K


def _ipw_arm(nuisances, table, seq):
    *_, full, nclip, nquery = _arm_terms(nuisances, table, seq)
    return full * table.y_term, nclip, nquery


def pseudo_ipw(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Inverse-propensity-weighted pseudo-outcomes (arm a, arm b, difference).

    Each value is the product over levels of 1{A = a}/pi-hat times the
    terminal outcome; clipping upstream bounds every factor.
    """
    a_vals, _, _ = _ipw_arm(nuisances, table, pair.a_seq)
    b_vals, _, _ = _ipw_arm(nuisances, table, pair.b_seq)
    return a_vals, b_vals, a_vals - b_vals


def _dr_arm(nuisances, table, seq, arm):
    ind, pi, ratio, prefix, full, nclip, nquery = _arm_terms(nuisances, table, seq)
    value = full * table.y_term
    for k in range(nuisances.tau + 1):
        mu_k = nuisances.mu(arm, k, table)
        value = value + mu_k * (1.0 - ratio[:, k]) * prefix[:, k]
    return value, nclip, nquery


def pseudo_dr(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Doubly robust pseudo-outcomes (arm a, arm b, difference).

    The IPW term plus, per level k, mu-hat_k * (1 - 1{A_k=a_k}/pi-hat_k)
    times the inverse-propensity product of the strictly earlier levels
    (empty product = 1).
    """
    a_vals, _, _ = _dr_arm(nuisances, table, pair.a_seq, "a")
    b_vals, _, _ = _dr_arm(nuisances, table, pair.b_seq, "b")
    return a_vals, b_vals, a_vals - b_vals


def pseudo_ra(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Regression-adjustment pseudo-outcomes (contrast form only).

    Rows whose first-period treatment matches arm a use that arm's realized
    continuation (the level-1 surface at H_{t+1}, or the realized outcome
    itself when the horizon is 0) against the model value of arm b, and
    symmetrically; rows matching neither arm use model values for both.
    """
    a0, b0 = pair.a_seq[0], pair.b_seq[0]
    if a0 == b0 and pair.tau >= 1:
        raise ValueError("first-period arms coincide; the regression-adjustment "
                         "pseudo-outcome is ill-posed for this pair")
    mu_a0 = nuisances.mu("a", 0, table)
    mu_b0 = nuisances.mu("b", 0, table)
    if pair.tau == 0:
        cont_a = cont_b = table.y_term    # realized outcome stands in at tau=0
    else:
        cont_a = nuisances.mu("a", 1, table)
        cont_b = nuisances.mu("b", 1, table)
    ind_a = table.a_obs[:, 0] == a0
    ind_b = table.a_obs[:, 0] == b0
    neither = ~(ind_a | ind_b)
    value = np.where(ind_a, cont_a - mu_b0, 0.0)
    value = value + np.where(ind_b & ~ind_a, mu_a0 - cont_b, 0.0)
    value = value + np.where(neither, mu_a0 - mu_b0, 0.0)
    return value


def ivw_realized(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Realized inverse-variance statistics (V for arm a, V for the pair).

    V per arm is the sum over levels k of the product over earlier-or-equal
    levels of 1{A = a}/pi-hat^2; the pair statistic is the sum of both arms.
    """
    out = []
    for seq in (pair.a_seq, pair.b_seq):
        ind, pi, *_ = _arm_terms(nuisances, table, seq)
        out.append(np.cumprod(ind / pi ** 2, axis=1).sum(axis=1))
    v_a, v_b = out
    return v_a, v_a + v_b


@dataclass(frozen=True)
class PseudoRows:
    """Columnar pseudo-outcome rows: one per pooled (trajectory, t) position."""

    features: np.ndarray
    value: np.ndarray
    v_realized: np.ndarray
    traj_id: np.ndarray
    t: np.ndarray
    clip_fraction: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ValueError("non-finite pseudo-outcome")
        if np.any(self.v_realized < 0):
            raise ValueError("negative realized variance statistic")


def build_pseudo_rows(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair,
                      kind: str, target: str = "cate",
                      row_mask: Optional[np.ndarray] = None) -> PseudoRows:
    """Construct the pseudo-outcome rows a second-stage learner trains on."""
    if kind not in ("RA", "IPW", "DR", "IVW-DR"):
        raise ValueError(f"no pseudo-outcomes for learner kind {kind!r}")
    nclip = nquery = 0
    if kind == "RA":
        if target != "cate":
            raise ValueError("the regression-adjustment learner is contrast-only")
        value = pseudo_ra(table, nuisances, pair)
    else:
        if kind == "IPW":
            va, ca, qa = _ipw_arm(nuisances, table, pair.a_seq)
            vb, cb, qb = _ipw_arm(nuisances, table, pair.b_seq)
        else:
            va, ca, qa = _dr_arm(nuisances, table, pair.a_seq, "a")
            vb, cb, qb = _dr_arm(nuisances, table, pair.b_seq, "b")
        nclip, nquery = ca + cb, qa + qb
        value = va - vb if target == "cate" else va
    v_a, v_ab = ivw_realized(table, nuisances, pair)
    v = v_ab if target == "cate" else v_a
    if row_mask is None:
        row_mask = np.ones(table.n_rows, dtype=bool)
    return PseudoRows(
        features=table.features(0)[row_mask],
        value=np.asarray(value)[row_mask],
        v_realized=np.asarray(v)[row_mask],
        traj_id=table.traj_id[row_mask],
        t=table.t[row_mask],
        clip_fraction=0.0 if nquery == 0 else nclip / nquery,
    )


@dataclass(frozen=True)
class VModel:
    """Regression estimate of E[V | H_t] with a positivity floor on predictions."""

    model: FittedRegressor
    v_floor: float = 1.0

    def __post_init__(self):
        if self.v_floor <= 0:
            raise ValueError("v_floor must be > 0")

    def predict(self, features) -> np.ndarray:
        return np.maximum(self.model.predict(features), self.v_floor)

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "v_floor": self.v_floor}

    @staticmethod
    def from_dict(state: dict) -> "VModel":
        return VModel(FittedRegressor.from_dict(state["model"]),
                      float(state["v_floor"]))


def fit_v_model(rows: PseudoRows, spec: RegressorSpec = DEFAULT_V_SPEC,
                v_floor: float = 1.0) -> VModel:
    """Regress the realized variance statistic V on history features."""
    model = fit_regressor(spec, rows.features, rows.v_realized)
    return VModel(model, v_floor)


@dataclass
class CateModel:
    """A fitted treatment-effect estimator with a uniform predict interface.

    Plug-in kinds close over the fitted nuisance models; second-stage kinds
    carry a fitted regressor.  Both predict from encoded histories H_t.
    ``target`` selects between the contrast of the two arms ("cate") and the
    single-arm response ("capo").
    """

    kind: str
    target: str
    pair: InterventionPair
    tau: int
    codec: FeatureCodec
    nuisances: Optional[NuisanceSet] = None
    second_stage: Optional[FittedRegressor] = None
    v_model: Optional[VModel] = None
    weights_mode: str = "estimated"
    diagnostics: dict = field(default_factory=dict)

    def predict(self, features) -> np.ndarray:
        """Predict the target at encoded histories (rows of ``features(0)``)."""
        if self.kind not in ("PI-HA", "PI-RA"):
            return self.second_stage.predict(features)
        if self.kind == "PI-HA":
            if self.target == "capo":
                return self.nuisances.delta_features("a", features)
            pair = [self.nuisances.history_models[arm] for arm in ("a", "b")]
        else:
            models = self.nuisances.response_models
            if self.target == "capo":
                return models["a"][0].predict(features)
            pair = [models[arm][0] for arm in ("a", "b")]
        # the two arms' models draw one (W, b): map the rows once
        out_a, out_b = predict_many(pair, features)
        return out_a - out_b


def fit_meta(kind: str, panel: Panel, pair: InterventionPair,
             nuisances: NuisanceSet,
             second_stage_spec: Optional[RegressorSpec] = None,
             weights_mode: str = "estimated", *, target: str = "cate",
             v_spec: RegressorSpec = DEFAULT_V_SPEC, v_floor: float = 1.0,
             table: Optional[RowTable] = None) -> CateModel:
    """Fit one meta-learner for the intervention pair on pooled panel rows.

    Second-stage kinds regress their pseudo-outcomes on encoded H_t over the
    pseudo-outcome fold of the nuisance split plan; the inverse-variance kind
    additionally fits (or, in "realized" mode, directly inverts) the variance
    statistic and reweights rows by stabilized 1/V-hat with empirical mean 1.
    Uniform-weight ridge fits (RA, IPW, DR, the variance model) solve on the
    set's held :meth:`~tvcate.nuisance.NuisanceSet.second_stage_design`;
    IVW-DR releases it before its weighted fit maps the rows again.
    Plug-in kinds close over fitted nuisance models; oracle sets are rejected.
    """
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}; choose from {LEARNER_KINDS}")
    if target not in ("cate", "capo"):
        raise ValueError("target must be 'cate' or 'capo'")
    if pair.tau != nuisances.pair.tau or pair != nuisances.pair:
        raise ValueError("nuisance set was built for a different intervention pair")
    if second_stage_spec is None:
        second_stage_spec = DEFAULT_SECOND_STAGE
    if weights_mode not in ("estimated", "realized"):
        raise ValueError("weights_mode must be 'estimated' or 'realized'")
    tau = pair.tau
    codec = nuisances.codec
    model = CateModel(kind=kind, target=target, pair=pair, tau=tau, codec=codec,
                      weights_mode=weights_mode)

    if kind in ("PI-HA", "PI-RA"):
        family = "history" if kind == "PI-HA" else "response"
        if nuisances.oracle_mode or getattr(nuisances, f"{family}_models") is None:
            raise ValueError(f"{kind} needs fitted {family} models to predict on encoded "
                             "rows; oracle surfaces need full histories")
        model.nuisances = nuisances
        model.diagnostics = {"plug_in": True}
        return model

    if table is None:
        table = build_row_table(panel, tau, codec)
    # a disabled split plan trains every stage on all trajectories
    po_mask = (table.traj_mask(nuisances.split.fold("po"))
               if nuisances.split.enabled else None)
    rows = build_pseudo_rows(table, nuisances, pair, kind if kind != "IVW-DR" else "DR",
                             target=target, row_mask=po_mask)
    diagnostics = {"n_pseudo_rows": int(rows.value.size),
                   "clip_fraction": rows.clip_fraction}

    weight = None
    if kind == "IVW-DR":
        if weights_mode == "estimated":
            design = _held_design(nuisances, v_spec, table, rows)
            if design is None:
                model.v_model = fit_v_model(rows, v_spec, v_floor)
                v_hat = model.v_model.predict(rows.features)
            else:
                model.v_model = VModel(design.fit(v_spec, rows.v_realized), v_floor)
                v_hat = np.maximum(design.predict(model.v_model.model), v_floor)
        else:
            v_hat = np.maximum(rows.v_realized, v_floor)
        # the weighted fit below maps these rows again: never beside a held map
        nuisances.release_design()
        inv = 1.0 / v_hat
        weight = inv / inv.mean()          # stabilized: empirical mean 1
        diagnostics["weights"] = {
            "min": float(weight.min()), "max": float(weight.max()),
            "mean": float(weight.mean()), "sd": float(weight.std()),
        }
    design = None if weight is not None else _held_design(
        nuisances, second_stage_spec, table, rows)
    if design is None:
        model.second_stage = fit_regressor(second_stage_spec, rows.features, rows.value,
                                           weight, codec=codec)
    else:
        model.second_stage = design.fit(second_stage_spec, rows.value, codec)
    model.diagnostics = diagnostics
    return model


def _held_design(nuisances: NuisanceSet, spec: RegressorSpec, table: RowTable,
                 rows: PseudoRows):
    """The set's uniform-weight design of the second-stage rows, for ridge specs."""
    if spec.kind != "ridge-random-features":
        return None
    return nuisances.second_stage_design(spec, table, rows.features)


# -- bundles -----------------------------------------------------------------

_MODEL_KEYS = ("kind", "target", "pair", "tau", "codec", "weights_mode", "diagnostics",
               "nuisances", "second_stage", "v_model")


def cate_model_to_dict(model: CateModel) -> dict:
    state = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "kind": model.kind,
        "target": model.target,
        "pair": {"a_seq": list(model.pair.a_seq), "b_seq": list(model.pair.b_seq)},
        "tau": model.tau,
        "codec": model.codec.__dict__,
        "weights_mode": model.weights_mode,
        "diagnostics": model.diagnostics,
        "nuisances": None if model.nuisances is None
        else nuisances_to_dict(model.nuisances),
        "second_stage": None if model.second_stage is None
        else model.second_stage.to_dict(),
        "v_model": None if model.v_model is None else model.v_model.to_dict(),
    }
    return state


def cate_model_from_dict(state: dict) -> CateModel:
    check_bundle(state, "model", _MODEL_KEYS)
    pair = InterventionPair(tuple(state["pair"]["a_seq"]), tuple(state["pair"]["b_seq"]))
    return CateModel(
        kind=state["kind"],
        target=state["target"],
        pair=pair,
        tau=int(state["tau"]),
        codec=FeatureCodec(**state["codec"]),
        weights_mode=state["weights_mode"],
        diagnostics=state["diagnostics"],
        nuisances=None if state["nuisances"] is None
        else nuisances_from_dict(state["nuisances"]),
        second_stage=None if state["second_stage"] is None
        else FittedRegressor.from_dict(state["second_stage"]),
        v_model=None if state["v_model"] is None else VModel.from_dict(state["v_model"]),
    )


def save_cate_model(model: CateModel, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(cate_model_to_dict(model), fh)


def load_cate_model(path) -> CateModel:
    import json
    with open(path) as fh:
        return cate_model_from_dict(json.load(fh))
