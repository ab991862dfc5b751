"""Meta-learners for the CATE contrast of an intervention pair over pooled
history rows.

Six learner kinds share one interface; each estimates E[Y(a) - Y(b) | H_t]:

* ``PI-HA`` — plug-in difference of history-adjustment regressions.
* ``PI-RA`` — plug-in difference of iterative regression-adjustment surfaces.
* ``RA`` — second-stage regression on regression-adjustment pseudo-outcomes.
* ``IPW`` — second-stage regression on inverse-propensity-weighted
  pseudo-outcomes.
* ``DR`` — second-stage regression on doubly robust pseudo-outcomes that
  combine both nuisance families.
* ``IVW-DR`` — the DR second stage reweighted by stabilized inverse-variance
  weights 1/V-hat, where V-hat estimates the conditional scale factor
  E[V | H_t] of the pseudo-outcome variance.

Pseudo-outcome construction is vectorized over a :class:`~tvcate.nuisance.
RowTable` and runs one pass per row block (:func:`~tvcate._blocks.
_table_blocks`): the block's propensities give each level's ratio
1{A_k = a_k}/pi-hat_k at its rows, a running product of the ratios gives
the inverse-propensity weights, and products and sums run in level order;
IPW and DR blocks take arm a, then arm b: only their contrast is table-sized.
Every propensity enters through the nuisance set's clipping, and the
fraction of clipped queries is reported per learner.  Every learner
predicts from encoded histories H_t, the rows of ``RowTable.features(0)``,
or from rows of a row map of a panel's encoded positions.

A model bundle (format 3) holds the models a learner predicts from: a
plug-in kind's two arm models, or a second stage and, for IVW-DR, its
variance model; each stores its cosine map as a digest
(:mod:`tvcate.learners`).  Format-1 and format-2 bundles still load and
predict their old bits; format 1 embedded a plug-in's whole nuisance
bundle.  Loading reads each field through the
reader of :mod:`tvcate.learners`, which names a bad field's path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import add, isub, mul
from typing import Optional

import numpy as np

from ._blocks import _table_array, _table_blocks
from .learners import (FittedRegressor, RegressorSpec, RowMap, _Fields, fit_regressor, map_key,
                       predict_many)
from .nuisance import (
    BUNDLE_FORMAT_VERSION,
    NuisanceSet,
    RowTable,
    build_row_table,
    bundle_pair,
    check_bundle,
    response_levels,
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
#: kinds that predict the difference of their two arms' nuisance models; the
#: others regress a contrast pseudo-outcome in a second stage
PLUG_IN_KINDS = ("PI-HA", "PI-RA")
#: the nuisance families each kind reads; every second stage's rows carry
#: :func:`ivw_realized`, so every second stage reads the propensities
LEARNER_NUISANCES = {"PI-HA": ("history",), "PI-RA": ("response",), "IPW": ("propensity",),
                     **dict.fromkeys(("RA", "DR", "IVW-DR"), ("response", "propensity"))}

# second-stage fits see noisy pseudo-outcomes, so their default penalty is
# heavier than the nuisance-stage default
DEFAULT_SECOND_STAGE = RegressorSpec(ridge_lambda=1e-2)
DEFAULT_V_SPEC = RegressorSpec(ridge_lambda="auto")


def _level(nuisances: NuisanceSet, table: RowTable, seq, k: int, rows, squared=False):
    """One arm's level-k weight 1{A_k = a_k}/pi-hat_k (over pi-hat_k^2 when
    ``squared``) at ``rows``, and the count of its clipped pi-hat."""
    cl, raw = nuisances.propensity(k, seq[k], table, rows)
    return ((table.a_obs[rows, k] == seq[k]) / (cl ** 2 if squared else cl),
            int(np.count_nonzero(cl != raw)))


def _arm_block(nuisances, table, seq, side, dr, rows):
    """Arm ``side``'s ("a" or "b") IPW pseudo-outcome at ``rows`` (DR's when ``dr``)
    and its clip count; products and sums run in level order."""
    levels = [_level(nuisances, table, seq, k, rows) for k in range(nuisances.tau + 1)]
    ratios = [ratio for ratio, _ in levels]
    value = reduce(mul, ratios) * table.panel.Y[table.positions(table.tau, rows)]
    for k in range(len(ratios) if dr else 0):
        # the product of the strictly earlier levels' ratios, 1 at level 0
        prefix = reduce(mul, ratios[:k], 1.0)
        value += nuisances.mu(side, k, table, rows) * (1.0 - ratios[k]) * prefix
    return value, sum(n for _, n in levels)


def _arm_value(nuisances, table, dr, *arms):
    """The first of ``arms``, (seq, "a" or "b") pairs, less the others (DR when ``dr``), in
    one pass of row blocks computing them in order; also every arm's clip and query counts."""
    nuisances, nclip = nuisances.at(table), []   # blocks gather fitted values held whole

    def block(rows):
        values = [_arm_block(nuisances, table, seq, side, dr, rows) for seq, side in arms]
        nclip.append(sum(n for _, n in values))
        return reduce(isub, (value for value, _ in values))
    value = _table_array(table.n_rows, block)
    return value, sum(nclip), len(arms) * table.n_rows * (nuisances.tau + 1)


def _contrast(table, nuisances, pair, dr):
    """Arm a less arm b of the IPW (DR when ``dr``) pseudo-outcome, and counts."""
    return _arm_value(nuisances, table, dr, (pair.a_seq, "a"), (pair.b_seq, "b"))


def pseudo_ipw(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Inverse-propensity-weighted pseudo-outcomes (contrast form only).

    Each arm's value is the product over levels of 1{A = a}/pi-hat times
    the terminal outcome; clipping upstream bounds every factor.
    """
    return _contrast(table, nuisances, pair, dr=False)[0]


def pseudo_dr(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Doubly robust pseudo-outcomes (contrast form only).

    Each arm's value is its IPW term plus, per level k, mu-hat_k *
    (1 - 1{A_k=a_k}/pi-hat_k) times the inverse-propensity product of the
    strictly earlier levels (empty product = 1).
    """
    return _contrast(table, nuisances, pair, dr=True)[0]


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

    def block(rows):
        ind_a = table.a_obs[rows, 0] == a0
        ind_b = table.a_obs[rows, 0] == b0
        neither = ~(ind_a | ind_b)
        value = np.where(ind_a, cont_a[rows] - mu_b0[rows], 0.0)
        value = value + np.where(ind_b & ~ind_a, mu_a0[rows] - cont_b[rows], 0.0)
        return value + np.where(neither, mu_a0[rows] - mu_b0[rows], 0.0)
    return _table_array(table.n_rows, block)


def ivw_realized(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair):
    """Realized inverse-variance statistics (V for arm a, V for the pair).

    V per arm is the sum over levels k of the product over earlier-or-equal
    levels of 1{A = a}/pi-hat^2; the pair statistic is the sum of both arms.
    """
    nuisances, v_a, v_ab = nuisances.at(table), np.empty(table.n_rows), np.empty(table.n_rows)

    def block(rows):
        v = [reduce(add, accumulate((_level(nuisances, table, seq, k, rows, squared=True)[0]
                                     for k in range(nuisances.tau + 1)), mul))
             for seq in (pair.a_seq, pair.b_seq)]
        v_a[rows] = v[0]
        np.add(*v, out=v_ab[rows])
    _table_blocks(table.n_rows, block)
    return v_a, v_ab


@dataclass(frozen=True)
class PseudoRows:
    """Columnar pseudo-outcome rows: one per pooled (trajectory, t) position."""

    features: np.ndarray
    value: np.ndarray
    v_realized: np.ndarray
    clip_fraction: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ValueError("non-finite pseudo-outcome")
        if np.any(self.v_realized < 0):
            raise ValueError("negative realized variance statistic")


def build_pseudo_rows(table: RowTable, nuisances: NuisanceSet, pair: InterventionPair,
                      kind: str, row_mask: Optional[np.ndarray] = None) -> PseudoRows:
    """Construct the contrast pseudo-outcome rows a second-stage learner trains on.

    Every kind also carries the pair's realized variance statistic
    (:func:`ivw_realized`), so every kind queries the propensities.
    """
    if kind not in LEARNER_KINDS or kind in PLUG_IN_KINDS:
        raise ValueError(f"no pseudo-outcomes for learner kind {kind!r}")
    nclip = nquery = 0
    if kind == "RA":
        value = pseudo_ra(table, nuisances, pair)
    else:
        value, nclip, nquery = _contrast(table, nuisances, pair, dr=kind != "IPW")
    _, v = ivw_realized(table, nuisances, pair)
    columns = (table.features(0), np.asarray(value), np.asarray(v))
    if row_mask is not None:
        columns = (c[row_mask] for c in columns)
    return PseudoRows(*columns, clip_fraction=0.0 if nquery == 0 else nclip / nquery)


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
    def from_dict(state: dict, version: int = BUNDLE_FORMAT_VERSION, codec=None) -> "VModel":
        fields = _Fields(state, "v_model")
        return VModel(FittedRegressor.from_dict(fields["model"], "v_model.model", version, codec),
                      fields.real("v_floor"))


def fit_v_model(rows: PseudoRows) -> VModel:
    """Regress the realized variance statistic V on history features.

    The fit is ``DEFAULT_V_SPEC`` (ridge, GCV-chosen penalty); predictions
    are floored at 1.0.
    """
    return VModel(fit_regressor(DEFAULT_V_SPEC, rows.features, rows.v_realized))


@dataclass
class CateModel:
    """A fitted CATE estimator with a uniform predict interface.

    Plug-in kinds hold their two arms' nuisance models, ``arm_models``
    ``{"a", "b"}`` (PI-HA the history adjustments, PI-RA the level-0
    response surfaces), and predict their difference; second-stage kinds
    carry a fitted regressor of the contrast pseudo-outcome.  Both predict
    from encoded histories H_t.  IVW-DR also keeps its variance model.
    """

    kind: str
    pair: InterventionPair
    tau: int
    codec: FeatureCodec
    arm_models: Optional[dict] = None
    second_stage: Optional[FittedRegressor] = None
    v_model: Optional[VModel] = None
    diagnostics: dict = field(default_factory=dict)

    def predict(self, features, rows=None) -> np.ndarray:
        """Predict the CATE at encoded histories (rows of ``features(0)``).

        ``features`` may instead be a :class:`~tvcate.learners.RowMap` of
        encoded positions that the models read, and ``rows`` the positions
        to predict at (all when None).
        """
        models = ([self.arm_models[arm] for arm in ("a", "b")]
                  if self.kind in PLUG_IN_KINDS else [self.second_stage])
        outs = (features.predict(models, rows) if isinstance(features, RowMap)
                else predict_many(models, features))
        return outs[0] if len(outs) == 1 else outs[0] - outs[1]


def fit_meta(kind: str, panel: Panel, pair: InterventionPair,
             nuisances: NuisanceSet,
             second_stage_spec: Optional[RegressorSpec] = None, *,
             positions: Optional[RowMap] = None) -> CateModel:
    """Fit one CATE meta-learner for the intervention pair on pooled panel rows.

    Second-stage kinds regress their contrast pseudo-outcomes on encoded H_t
    over the pseudo-outcome fold of the nuisance split plan; IVW-DR also
    regresses the realized variance statistic on H_t (ridge, GCV penalty,
    predictions floored at 1.0) and reweights rows by stabilized 1/V-hat
    with empirical mean 1.  Each fit reads the pseudo-outcome rows from a
    row map: ``positions``, a map of ``panel.encoded(nuisances.codec)``,
    when it reads the spec's map (its uniform-weight fits of one row set
    share the design the map holds), otherwise a map of the rows' encoded
    histories alone.
    Plug-in kinds keep their two arms' fitted nuisance models; oracle sets
    are rejected.
    """
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}; choose from {LEARNER_KINDS}")
    if pair.tau != nuisances.pair.tau or pair != nuisances.pair:
        raise ValueError("nuisance set was built for a different intervention pair")
    if second_stage_spec is None:
        second_stage_spec = DEFAULT_SECOND_STAGE
    tau = pair.tau
    codec = nuisances.codec
    model = CateModel(kind=kind, pair=pair, tau=tau, codec=codec)

    if kind in PLUG_IN_KINDS:
        family, = LEARNER_NUISANCES[kind]
        if nuisances.oracle_mode or getattr(nuisances, f"{family}_models") is None:
            raise ValueError(f"{kind} needs fitted {family} models to predict on encoded "
                             "rows; oracle surfaces need full histories")
        model.arm_models = (dict(nuisances.history_models) if kind == "PI-HA" else
                            {arm: nuisances.response_models[arm][0] for arm in ("a", "b")})
        model.diagnostics = {"plug_in": True}
        return model

    table = build_row_table(panel, tau, codec)
    nuisances = nuisances.at(table)        # one evaluation per model, then gathers
    # a disabled split plan trains every stage on all trajectories
    po_mask = (table.traj_mask(nuisances.split.fold("po"))
               if nuisances.split.enabled else None)
    rows = build_pseudo_rows(table, nuisances, pair, kind if kind != "IVW-DR" else "DR",
                             row_mask=po_mask)
    diagnostics = {"n_pseudo_rows": int(rows.value.size),
                   "clip_fraction": rows.clip_fraction}

    at = table.positions(0) if po_mask is None else table.positions(0)[po_mask]
    held = {}

    def mapped(spec):
        """A map that reads the rows for ``spec``, and their indices in it."""
        key = map_key(spec, codec.width)
        if key not in held:
            held.clear()                   # hold one map at a time
            held[key] = ((positions, at) if positions is not None and positions.key == key
                         else (RowMap(spec, rows.features), None))
        return held[key]

    weight = None
    if kind == "IVW-DR":
        raw, on = mapped(DEFAULT_V_SPEC)
        model.v_model = VModel(raw.fit(DEFAULT_V_SPEC, rows.v_realized, rows=on))
        v_hat = np.maximum(raw.predict([model.v_model.model], on)[0],
                           model.v_model.v_floor)
        raw = None                         # the next map frees this one
        inv = 1.0 / v_hat
        weight = inv / inv.mean()          # stabilized: empirical mean 1
        diagnostics["weights"] = {
            "min": float(weight.min()), "max": float(weight.max()),
            "mean": float(weight.mean()), "sd": float(weight.std()),
        }
    raw, on = mapped(second_stage_spec)
    model.second_stage = raw.fit(second_stage_spec, rows.value, weight, on)
    model.diagnostics = diagnostics
    return model


# -- bundles -----------------------------------------------------------------

#: where a plug-in bundle keeps its arm models: format 1 embedded the whole
#: nuisance bundle, formats 2 and 3 hold the two models
_PLUG_IN_KEY = {1: "nuisances", 2: "arm_models", 3: "arm_models"}


def cate_model_to_dict(model: CateModel) -> dict:
    # "target" and "weights_mode" are fixed keys: every model is a CATE model
    # with estimated IVW weights
    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "kind": model.kind,
        "target": "cate",
        "pair": {"a_seq": list(model.pair.a_seq), "b_seq": list(model.pair.b_seq)},
        "tau": model.tau,
        "codec": dict(model.codec.__dict__),
        "weights_mode": "estimated",
        "diagnostics": model.diagnostics,
        "arm_models": None if model.arm_models is None
        else {arm: m.to_dict() for arm, m in model.arm_models.items()},
        "second_stage": None if model.second_stage is None
        else model.second_stage.to_dict(),
        "v_model": None if model.v_model is None else model.v_model.to_dict(),
    }


def cate_model_from_dict(state: dict) -> CateModel:
    """Load a model bundle whose ``kind`` holds the models it predicts
    from; ``weights_mode`` is read and ignored."""
    fields = _Fields(state, "model bundle")
    kind = fields["kind"]
    if kind not in LEARNER_KINDS:
        raise ValueError(f"model bundle has kind {kind!r}; choose from {LEARNER_KINDS}")
    version = check_bundle(fields)
    if fields["target"] != "cate":
        raise ValueError(f"model bundle has target {fields['target']!r}; "
                         "only 'cate' models load")
    fields["weights_mode"]                # read and ignored
    codec = fields.obj("codec").build(FeatureCodec)
    pair, tau = bundle_pair(fields, codec.treatment_arity)
    fields.layout, arm_models = f" (format_version {version})", None
    family = f"{LEARNER_NUISANCES[kind][0]}_models"
    if fields[_PLUG_IN_KEY[version]] is not None:
        held, level0 = fields.obj(_PLUG_IN_KEY[version]), False
        if version == 1:              # read the kind's two models out of the nuisance bundle
            check_bundle(held)
            held, level0 = held[family] and held.obj(family), family == "response_models"
        arm_models = {} if not held else {arm: FittedRegressor.from_dict(
            response_levels(held, arm, tau)[0] if level0 else held[arm],
            held.inner + arm + ("[0]" if level0 else ""), version, codec) for arm in held.state}
    if kind in PLUG_IN_KINDS and (arm_models is None or set(arm_models) != {"a", "b"}):
        raise ValueError(f"model bundle of kind {kind!r} needs {_PLUG_IN_KEY[version]} for "
                         "arms 'a' and 'b'" + (f" in {family}" if version == 1 else ""))
    second_stage, v_model = fields["second_stage"], fields["v_model"]
    for key, need in (("second_stage", kind not in PLUG_IN_KINDS), ("v_model", kind == "IVW-DR")):
        if need and fields[key] is None:
            raise ValueError(f"model bundle of kind {kind!r} needs {key}")
    return CateModel(
        kind=kind, pair=pair, tau=tau, codec=codec,
        diagnostics=fields.obj("diagnostics").state, arm_models=arm_models,
        second_stage=None if second_stage is None
        else FittedRegressor.from_dict(second_stage, "second_stage", version, codec),
        v_model=None if v_model is None else VModel.from_dict(v_model, version, codec),
    )


def save_cate_model(model: CateModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(cate_model_to_dict(model), fh)


def load_cate_model(path) -> CateModel:
    with open(path) as fh:
        return cate_model_from_dict(json.load(fh))
