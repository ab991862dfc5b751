"""Reproducible benchmark experiments over the synthetic DGP families.

An :class:`ExperimentConfig` pins one experiment completely: generator,
horizons, sample sizes, seed list, learner set, nuisance and second-stage
hyper-parameters.  Given the same config, :func:`run_experiment` and
:func:`overlap_sweep` produce byte-identical result files on every run,
under every ``workers`` setting, CPU count and BLAS thread setting, because
all randomness flows through seeds derived from the config, rows are
assembled in a fixed order, work split over CPUs keeps the bits of one CPU,
and fits hold OpenBLAS at one thread (see :mod:`tvcate._blocks`).
Measured wall times are the one intentionally non-reproducible quantity,
so the ``walltime_s`` column (a learner's ``fit_meta`` plus its test
prediction) is written as ``0.0`` unless ``record_walltime`` is switched
on.  A seed job runs in phases, so that at most one row map of the
training positions is held at a time: the
propensity classifier (without a split, one fit and one evaluation at every
position serve every horizon); every horizon's nuisances, from one
regressor map of the training positions; every horizon's learners, from
one second-stage map, on which a horizon's uniform-weight second stages
reuse the design of the first (a map keeps the design of its last uniform
fit for fits of the same rows); and the test predictions, from one map of
the test positions per spec.  Without a split, every response level and
uniform second stage takes its gram from (time, arm) group sums that each
training map makes once.  The timed parts exclude those maps and the nuisance fits;
a learner's time includes the design (and the sums) when it is its
horizon's first uniform second stage (RA in the default order), so the
per-learner times depend on the learner order.

Configs travel as flat ``key = value`` text files (:func:`config_to_text`,
:func:`parse_config_text`); every field can also be overridden from a
``--key=value`` command-line flag via :func:`config_with_overrides`.  The
default output directory is taken from the ``TVCATE_OUTPUT_DIR`` environment
variable when a config leaves ``output_dir`` empty.

Both experiment kinds go through one job runner: a run is a grid of one
point, the config's generator, and a sweep has one d3 point per gamma; every
point is checked before any job starts.  Both return an
:class:`ExperimentResult`, whose :class:`ResultRow` entries carry a ``gamma``
in a sweep only, and both write through one writer that formats every file
before it writes the first.  Result files per experiment: a row-level CSV
(``learner,tau,seed,rmse,walltime_s,clip_fraction``, reals at 17 significant
digits), a JSON mirror of the same rows plus the config (less
``output_dir``: the bytes do not depend on where they go), and a
per-(learner, tau) summary CSV with mean and standard deviation of RMSE
across seeds.  The overlap sweep prepends a
``gamma`` column and emits a plot-data JSON with per-gamma mean curves.
Evaluation predicts on the encoded test histories pooled over every valid
decision time; the ``eval_t`` field restricts it to one fixed time instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .dgp import StructuralDGP, get_dgp, benchmark_pair, simulate_panel
from .learners import ClassifierSpec, RegressorSpec, RowMap
from .meta import LEARNER_KINDS, LEARNER_NUISANCES, PLUG_IN_KINDS, fit_meta
from .nuisance import (build_row_table, default_codec, fit_nuisances,
                       fit_propensities, make_split, position_map,
                       propensities_at_positions)

__all__ = [
    "OUTPUT_DIR_ENV", "RESULT_FIELDS", "SWEEP_FIELDS", "ExperimentConfig",
    "ResultRow", "ExperimentResult", "default_sweep_config", "config_to_dict",
    "config_to_text", "parse_config_text", "config_with_overrides",
    "run_experiment", "overlap_sweep", "summarize", "format_results_csv",
    "format_summary_csv", "format_summary_table",
    "results_to_json_dict", "sweep_to_json_dict",
    "emit_results", "emit_sweep", "resolve_output_dir", "spearman",
]

#: Environment variable consulted when a config leaves ``output_dir`` empty.
OUTPUT_DIR_ENV = "TVCATE_OUTPUT_DIR"

#: Column order of the row-level result CSV.
RESULT_FIELDS = ("learner", "tau", "seed", "rmse", "walltime_s", "clip_fraction")

#: Column order of the overlap-sweep CSV.
SWEEP_FIELDS = ("gamma",) + RESULT_FIELDS


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one benchmark experiment.

    Parameters
    ----------
    dgp : str
        Generator name from the registry, e.g. ``"d1"`` or ``"d3:gamma=4"``.
        Experiments need a generator with closed-form effects, so the
        discrete enumeration generator is not runnable here.
    taus : tuple of int
        Horizons to evaluate, without repeats; each uses its preregistered
        intervention pair.
    n_train, n_test : int
        Trajectories simulated for fitting and for evaluation.
    seeds : tuple of int
        One independent replication per seed; all stage seeds derive from it.
    learners : tuple of str
        Learner kinds to fit, each a member of ``LEARNER_KINDS``.
    regressor_features, regressor_bandwidth, regressor_ridge
        Random-feature ridge settings for the response and
        history-adjustment regressions (benchmark-tuned defaults).
    classifier_cosine : bool
        Pass the propensity classifier inputs through the random cosine map
        (set False for a plain-feature logistic fit).
    classifier_l2 : float or "auto"
        Propensity classifier penalty; "auto" picks it by held-out log-loss.
    second_stage_features, second_stage_bandwidth, second_stage_ridge
        Pseudo-outcome regression settings.  The heavy default ridge is the
        grid-chosen value for the benchmark generators, whose effects are
        constant in history; library callers pick their own spec.
    clip_eps : float
        Propensity clipping level for the weighting learners.
    split_enabled : bool
        Cross-fit nuisances on disjoint folds instead of the full panel.
    eval_t : int or None
        Evaluate at one fixed decision time instead of pooling all valid t.
    gammas : tuple of float
        Overlap-knob grid for :func:`overlap_sweep`, without repeats
        (ignored by plain runs).
    fast : bool
        Shrink both sample sizes tenfold for quick smoke runs.
    record_walltime : bool
        Write measured per-fit wall times instead of the deterministic 0.0.
    workers : int
        Worker processes for seed-level (and gamma-level) parallelism.
        Results are byte-identical for every value, CPU count and BLAS
        thread setting.
    output_dir : str
        Where emit functions write files; empty means "TVCATE_OUTPUT_DIR or
        ``results``".
    """

    dgp: str = "d1"
    taus: Tuple[int, ...] = (0, 1, 2)
    n_train: int = 5000
    n_test: int = 1000
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    learners: Tuple[str, ...] = LEARNER_KINDS
    regressor_features: int = 256
    regressor_bandwidth: float = 1.5
    regressor_ridge: float = 1e-2
    classifier_cosine: bool = True
    classifier_l2: Union[float, str] = "auto"
    second_stage_features: int = 256
    second_stage_bandwidth: float = 1.0
    second_stage_ridge: float = 1.0
    clip_eps: float = 0.03
    split_enabled: bool = False
    eval_t: Optional[int] = None
    gammas: Tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0)
    fast: bool = False
    record_walltime: bool = False
    workers: int = 1
    output_dir: str = ""

    def __post_init__(self):
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be a non-empty tuple without repeats")
        if not self.taus or any(t < 0 for t in self.taus):
            raise ValueError("taus must be a non-empty tuple of horizons >= 0")
        if len(set(self.taus)) != len(self.taus):
            raise ValueError("taus must not repeat")
        if not self.learners:
            raise ValueError("learners must name at least one learner kind")
        for kind in self.learners:
            if kind not in LEARNER_KINDS:
                raise ValueError(f"unknown learner kind {kind!r}; "
                                 f"choose from {LEARNER_KINDS}")
        if len(set(self.learners)) != len(self.learners):
            raise ValueError("learners must not repeat")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if not 0.0 < self.clip_eps < 0.5:
            raise ValueError("clip_eps must lie in (0, 0.5)")
        if self.eval_t is not None and self.eval_t < 1:
            raise ValueError("eval_t counts decision times from 1")
        if not self.gammas:
            raise ValueError("gammas must be a non-empty tuple")
        if len(set(self.gammas)) != len(self.gammas):
            raise ValueError("gammas must not repeat")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # each spec checks its own fields; name the config field at fault
        for name, spec, param in _SPEC_FIELDS:
            try:
                spec(**{param: getattr(self, name)})
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc


#: config fields that only fill a spec: (field, spec class, spec parameter)
_SPEC_FIELDS = (
    ("regressor_features", RegressorSpec, "feature_count"),
    ("regressor_bandwidth", RegressorSpec, "bandwidth"),
    ("regressor_ridge", RegressorSpec, "ridge_lambda"),
    ("classifier_l2", ClassifierSpec, "l2"),
    ("second_stage_features", RegressorSpec, "feature_count"),
    ("second_stage_bandwidth", RegressorSpec, "bandwidth"),
    ("second_stage_ridge", RegressorSpec, "ridge_lambda"),
)


def default_sweep_config() -> ExperimentConfig:
    """Overlap-sweep preset: the regime where weight variance dominates.

    Small training sets, a light second-stage ridge, tight clipping and a
    plain-feature propensity fit (the overlap knob's assignment logit is
    linear in history, and the bounded cosine map attenuates its tails) let
    the weighting learners actually feel the vanishing overlap.
    """
    return ExperimentConfig(
        dgp="d3", taus=(1,), n_train=2000, learners=("DR", "IVW-DR"),
        classifier_cosine=False, classifier_l2=1e-4,
        second_stage_ridge=1e-2, clip_eps=0.01,
    )


# --------------------------------------------------------------------------
# config serialization

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _value_to_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_value_to_str(v) for v in value)
    if isinstance(value, float):
        return repr(value)                # reads back to the same float
    return str(value)


def _parse_value(kind: type, raw: str):
    """One value of type ``kind``, the type of a field's default."""
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind is str:
        return raw.strip()
    return kind(raw)                      # int or float: their errors name the text


def _coerce_field(name: str, raw: str):
    raw = raw.strip()
    if name not in _CONFIG_FIELDS:
        raise ValueError(f"unknown config key {name!r}; valid keys: "
                         + ", ".join(sorted(_CONFIG_FIELDS)))
    default = _CONFIG_FIELDS[name].default
    try:
        if name == "eval_t":
            return None if raw.lower() in ("none", "") else int(raw)
        if name == "classifier_l2":
            return "auto" if raw.lower() == "auto" else float(raw)
        if isinstance(default, tuple):    # comma-separated, typed by the first entry
            return tuple(_parse_value(type(default[0]), v)
                         for v in raw.split(",") if v.strip() != "")
        return _parse_value(type(default), raw)
    except ValueError as exc:
        raise ValueError(f"bad value for config key {name!r}: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> Dict[str, object]:
    """JSON-ready mapping of every config field (tuples become lists)."""
    out = {}
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def config_to_text(cfg: ExperimentConfig) -> str:
    """Render the config as a ``key = value`` file that parses back equal."""
    lines = [f"{name} = {_value_to_str(getattr(cfg, name))}"
             for name in _CONFIG_FIELDS]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping.

    Blank lines and ``#`` comments are skipped; a repeated key keeps the
    last assignment.  Values stay strings here so command-line overrides and
    file entries share one coercion path (:func:`config_with_overrides`).
    """
    items: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', "
                             f"got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        items[key.strip()] = value.strip()
    return items


def config_with_overrides(base: Optional[ExperimentConfig],
                          items: Mapping[str, str]) -> ExperimentConfig:
    """Apply raw string assignments on top of ``base`` (or the defaults)."""
    cfg = base if base is not None else ExperimentConfig()
    coerced = {name: _coerce_field(name, raw) for name, raw in items.items()}
    return dataclasses.replace(cfg, **coerced) if coerced else cfg


# --------------------------------------------------------------------------
# running experiments

@dataclass(frozen=True)
class ResultRow:
    """One (learner, horizon, seed) evaluation; sweep rows also carry gamma."""

    learner: str
    tau: int
    seed: int
    rmse: float
    walltime_s: float
    clip_fraction: float
    gamma: Optional[float] = None


@dataclass(frozen=True)
class ExperimentResult:
    """All rows of one experiment or sweep plus any fit advisories."""

    config: ExperimentConfig
    rows: Tuple[ResultRow, ...]
    advisories: Tuple[str, ...] = ()


def _experiment_dgp(name: str) -> StructuralDGP:
    dgp = get_dgp(name)
    if not isinstance(dgp, StructuralDGP) or dgp.response_form is None:
        raise ValueError(f"generator {name!r} has no closed-form effects; "
                         "experiments need one of the structural families")
    return dgp


def _effective_sizes(cfg: ExperimentConfig) -> Tuple[int, int]:
    if not cfg.fast:
        return cfg.n_train, cfg.n_test
    return max(cfg.n_train // 10, 50), max(cfg.n_test // 10, 50)


def _specs(cfg: ExperimentConfig):
    regressor = RegressorSpec(feature_count=cfg.regressor_features,
                              bandwidth=cfg.regressor_bandwidth,
                              ridge_lambda=cfg.regressor_ridge)
    classifier = ClassifierSpec(use_random_features=cfg.classifier_cosine,
                                l2=cfg.classifier_l2)
    second_stage = RegressorSpec(feature_count=cfg.second_stage_features,
                                 bandwidth=cfg.second_stage_bandwidth,
                                 ridge_lambda=cfg.second_stage_ridge)
    return regressor, classifier, second_stage


def _validate_horizons(cfg: ExperimentConfig) -> None:
    dgp = _experiment_dgp(cfg.dgp)
    for tau in cfg.taus:
        benchmark_pair(tau)         # raises for horizons without a pair
        if tau >= dgp.horizon:
            raise ValueError(f"tau={tau} needs horizon > {tau}, generator "
                             f"{dgp.name!r} has horizon {dgp.horizon}")
        if cfg.eval_t is not None and cfg.eval_t > dgp.horizon - tau:
            raise ValueError(f"eval_t={cfg.eval_t} is past the last valid "
                             f"decision time {dgp.horizon - tau} for tau={tau}")


@contextlib.contextmanager
def _failing(what: str, tau: int, seed: int):
    """Re-raise any error as a RuntimeError naming the stage, tau and seed."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{what} failed at tau={tau} seed={seed}: {exc}") from exc


def _seed_job(cfg: ExperimentConfig, seed: int):
    """Fit and evaluate every (tau, learner) cell for one seed, in phases."""
    dgp = _experiment_dgp(cfg.dgp)
    n_train, n_test = _effective_sizes(cfg)
    regressor, classifier, second_stage = _specs(cfg)
    need = {family for kind in cfg.learners for family in LEARNER_NUISANCES[kind]}
    pairs = {tau: benchmark_pair(tau) for tau in cfg.taus}
    spec_of = {kind: regressor if kind in PLUG_IN_KINDS else second_stage
               for kind in cfg.learners}
    models, seconds = {}, {}                      # by (tau, kind)
    rows: List[ResultRow] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train = simulate_panel(dgp, n_train, seed=[seed, 10])
        test = simulate_panel(dgp, n_test, seed=[seed, 11])
        codec = default_codec(train)
        # without a split the propensity model trains on every (trajectory,
        # time) whatever tau, so one fit serves every horizon; with one, its
        # "pi" fold depends on tau and each horizon fits its own
        shared = {}
        with _failing("nuisance fit", cfg.taus[0], seed):
            if "propensity" in need and not cfg.split_enabled:
                model = shared["propensity_model"] = fit_propensities(train, classifier)
                shared["propensities"] = propensities_at_positions(model, train, codec)
            if "response" in need or "history" in need:
                shared["response_map"] = position_map(regressor, train, codec)
        nuisances = {}
        for tau in cfg.taus:
            split = make_split(train, tau, enabled=cfg.split_enabled,
                               seed=[seed, 12])
            with _failing("nuisance fit", tau, seed):
                nuisances[tau] = fit_nuisances(
                    train, pairs[tau], regressor_spec=regressor,
                    classifier_spec=classifier, split=split,
                    clip_eps=cfg.clip_eps, need=need, **shared)
        shared = None
        stage_map = (position_map(second_stage, train, codec)
                     if second_stage in spec_of.values() else None)
        for tau in cfg.taus:
            for kind in cfg.learners:
                start = time.perf_counter()
                with _failing(f"learner {kind!r}", tau, seed):
                    models[tau, kind] = fit_meta(kind, train, pairs[tau], nuisances[tau],
                                                 second_stage_spec=second_stage,
                                                 positions=stage_map)
                seconds[tau, kind] = time.perf_counter() - start
        stage_map = None
        test_maps = {spec: RowMap(spec, test.encoded(codec))
                     for spec in set(spec_of.values())}
        for tau in cfg.taus:
            truth = dgp.response_form.cate(pairs[tau])
            table = build_row_table(test, tau, codec)
            at = table.positions(0)        # H_t; at one decision time with eval_t
            if cfg.eval_t is not None:
                at = at[table.t == cfg.eval_t]
            for kind in cfg.learners:
                model = models[tau, kind]
                start = time.perf_counter()
                with _failing(f"learner {kind!r}", tau, seed):
                    preds = model.predict(test_maps[spec_of[kind]], at)
                seconds[tau, kind] += time.perf_counter() - start
                rows.append(ResultRow(
                    learner=kind, tau=tau, seed=seed,
                    rmse=float(np.sqrt(np.mean((preds - truth) ** 2))),
                    walltime_s=seconds[tau, kind] if cfg.record_walltime else 0.0,
                    clip_fraction=float(
                        model.diagnostics.get("clip_fraction", 0.0))))
    notes = sorted({str(w.message) for w in caught})
    return rows, notes


def _point(cfg: ExperimentConfig, gamma: Optional[float]) -> ExperimentConfig:
    """One sweep point's config (``repr`` keeps gamma's digits); None is a run's."""
    return cfg if gamma is None else dataclasses.replace(cfg, dgp=f"d3:gamma={gamma!r}")


def _sweep_job(cfg: ExperimentConfig, gamma: Optional[float], seed: int):
    """:func:`_seed_job` at one sweep point, its rows carrying ``gamma``."""
    rows, notes = _seed_job(_point(cfg, gamma), seed)
    return [dataclasses.replace(r, gamma=gamma) for r in rows], notes


def _run(cfg: ExperimentConfig, gammas: Tuple[Optional[float], ...]) -> ExperimentResult:
    """Every (point, seed) job, rows in a fixed, seed-free order.

    Every point's generator and horizons are checked before any job starts;
    every panel comes from ``simulate_panel``, whose constructor checks it.
    """
    for gamma in gammas:
        _validate_horizons(_point(cfg, gamma))
    jobs = [(gamma, seed) for gamma in gammas for seed in cfg.seeds]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs))) as pool:
            outputs = list(pool.map(_sweep_job, repeat(cfg), *zip(*jobs)))
    else:
        outputs = [_sweep_job(cfg, gamma, seed) for gamma, seed in jobs]
    rows = [row for job_rows, _ in outputs for row in job_rows]
    rows.sort(key=lambda r: (gammas.index(r.gamma), cfg.learners.index(r.learner),
                             r.tau, cfg.seeds.index(r.seed)))
    advisories = sorted({note for _, notes in outputs for note in notes})
    return ExperimentResult(cfg, tuple(rows), tuple(advisories))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full seed grid and return rows in a fixed, seed-free order."""
    return _run(cfg, (None,))


def overlap_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the gamma grid x seed grid at the single sweep horizon."""
    if cfg.dgp.split(":", 1)[0] != "d3":
        raise ValueError("the overlap sweep runs on the d3 family; set "
                         "dgp=d3 (the gamma grid comes from the config)")
    if len(cfg.taus) != 1:
        raise ValueError("the overlap sweep uses a single tau")
    return _run(cfg, cfg.gammas)


# --------------------------------------------------------------------------
# summaries and serialization

def _fields(result: ExperimentResult) -> Tuple[str, ...]:
    """Sweep rows carry a gamma; run rows leave it None and omit the column."""
    sweep = result.rows and result.rows[0].gamma is not None
    return SWEEP_FIELDS if sweep else RESULT_FIELDS


def _mean_sd(values: Sequence[float]) -> Tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def summarize(result: ExperimentResult) -> List[Dict[str, object]]:
    """Mean and standard deviation of RMSE across seeds.

    One entry per (learner, tau) for a run, per (gamma, learner) for a sweep.
    """
    cfg = result.config
    if _fields(result) == SWEEP_FIELDS:
        cells = [{"gamma": g, "learner": k} for g in cfg.gammas for k in cfg.learners]
    else:
        cells = [{"learner": k, "tau": t} for k in cfg.learners for t in cfg.taus]
    out = []
    for cell in cells:
        values = [r.rmse for r in result.rows
                  if all(getattr(r, key) == v for key, v in cell.items())]
        mean, sd = _mean_sd(values)
        out.append({**cell, "mean_rmse": mean, "sd_rmse": sd})
    return out


def _real(x: float) -> str:
    return "%.17g" % float(x)


def _row_dict(result: ExperimentResult, row: ResultRow) -> Dict[str, object]:
    return {name: getattr(row, name) for name in _fields(result)}


def _csv(records: Sequence[Dict[str, object]], header: Sequence[str]) -> str:
    """CSV of ``records`` under ``header``, reals at 17 significant digits."""
    lines = [",".join(header)]
    for record in records:
        lines.append(",".join(_real(v) if isinstance(v, float) else str(v)
                              for v in record.values()))
    return "\n".join(lines) + "\n"


def format_results_csv(result: ExperimentResult) -> str:
    """Row-level CSV of a run (``RESULT_FIELDS``) or a sweep (``SWEEP_FIELDS``)."""
    return _csv([_row_dict(result, r) for r in result.rows], _fields(result))


def format_summary_csv(result: ExperimentResult) -> str:
    """Summary CSV: :func:`summarize`'s cell keys (``learner,tau`` for a
    run, ``gamma,learner`` for a sweep), then ``mean_rmse,sd_rmse``."""
    summary = summarize(result)
    return _csv(summary, summary[0])


def results_to_json_dict(result: ExperimentResult) -> Dict[str, object]:
    """JSON mirror of the result CSV plus the config (less ``output_dir``,
    which says where the files went, not what ran) and advisories."""
    return {
        "config": {k: v for k, v in config_to_dict(result.config).items() if k != "output_dir"},
        "rows": [_row_dict(result, r) for r in result.rows],
        "summary": summarize(result),
        "advisories": list(result.advisories),
    }


def sweep_to_json_dict(sweep: ExperimentResult) -> Dict[str, object]:
    """Sweep rows plus per-gamma mean curves ready for plotting."""
    payload = results_to_json_dict(sweep)
    summary = payload.pop("summary")
    curves = {kind: {stat: [r[stat] for r in summary if r["learner"] == kind]
                     for stat in ("mean_rmse", "sd_rmse")}
              for kind in sweep.config.learners}
    return {**payload, "gamma_grid": list(sweep.config.gammas),
            "tau": sweep.config.taus[0], "curves": curves}


#: summary-table format of each cell key: (header, value)
_CELL_FORMATS = {"gamma": ("{:>6}", "{:>6g}"), "learner": ("{:10}", "{:10}"),
                 "tau": ("{:>3}", "{:>3}")}


def format_summary_table(result: ExperimentResult, scale: float = 1.0) -> str:
    """Human-readable summary of a run or a sweep, one line per
    :func:`summarize` cell; ``scale=10`` matches tables reported x10."""
    suffix = "" if scale == 1.0 else f" (x{scale:g})"
    summary = summarize(result)
    keys = [key for key in summary[0] if key in _CELL_FORMATS]
    lines = [" ".join(_CELL_FORMATS[key][0].format(key) for key in keys)
             + f"  {'mean_rmse' + suffix:>16} {'sd_rmse' + suffix:>16}"]
    for row in summary:
        lines.append(" ".join(_CELL_FORMATS[key][1].format(row[key]) for key in keys)
                     + f"  {row['mean_rmse'] * scale:16.4f} {row['sd_rmse'] * scale:16.4f}")
    return "\n".join(lines)


def resolve_output_dir(cfg: ExperimentConfig) -> str:
    """Config value, else the environment default, else ``results``."""
    return cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV, "") or "results"


def _json_text(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(result: ExperimentResult, output_dir: Optional[str],
          files: Dict[str, Tuple[str, str]]) -> Dict[str, str]:
    """Write ``{key: (file name, text)}`` into ``output_dir`` (the config's
    when None) and return ``{key: path}``.  Callers format every text
    before the call, so a failing formatter writes no file."""
    outdir = output_dir if output_dir is not None else resolve_output_dir(result.config)
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = os.path.join(outdir, name)
        with open(paths[key], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return paths


def emit_results(result: ExperimentResult, output_dir: Optional[str] = None,
                 stem: str = "results") -> Dict[str, str]:
    """Write ``<stem>.csv``, ``<stem>.json`` and ``<stem>_summary.csv``."""
    return _emit(result, output_dir, {
        "csv": (f"{stem}.csv", format_results_csv(result)),
        "json": (f"{stem}.json", _json_text(results_to_json_dict(result))),
        "summary": (f"{stem}_summary.csv", format_summary_csv(result))})


def emit_sweep(sweep: ExperimentResult, output_dir: Optional[str] = None,
               stem: str = "sweep") -> Dict[str, str]:
    """Write ``<stem>.csv`` and the plot-data ``<stem>.json``."""
    return _emit(sweep, output_dir, {
        "csv": (f"{stem}.csv", format_results_csv(sweep)),
        "json": (f"{stem}.json", _json_text(sweep_to_json_dict(sweep)))})


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks on ties)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("spearman needs two equal-length 1-D arrays, n >= 2")
    import scipy.stats          # its only user; importing it costs half of `import tvcate`
    return float(scipy.stats.spearmanr(x, y).statistic)
