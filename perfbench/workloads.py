"""The benchmark's four workloads: inputs, the timed job, and output checks.

Each workload is a :class:`Workload` whose ``job(seed, workdir, tiny,
tracer)`` runs the program once and returns an :class:`Outcome`, and whose
``check(outcome, tiny)`` returns a list of problems (empty when the outputs
are right).  ``tiny=True`` shrinks the inputs so the benchmark's own tests
can run every check in a second or two; the ceilings then become the loose
``TINY_CEILING``.

Checks compare against quantities derived here, apart from the program,
or against properties the method must have:

* the structural CATE of the d1/d3 generators, derived from their outcome
  equation (see :func:`derived_cate`);
* per-(learner, tau) RMSE ceilings, set at roughly three times the largest
  RMSE seen over many seeds (see README.md);
* clip fractions inside [0, 1], and DR error rising from full overlap
  (gamma = 0) to weak overlap (gamma = 8);
* the verification suites' own calibrated tolerances;
* CSV files parsed by this module's own reader and compared bit for bit
  with the panels ``simulate_panel`` draws for the same generator and seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: Coefficient of the arm in the d1/d3 outcome equation
#: Y_t = cos(X_t) + 0.5 * (A_t - 0.5) + noise.
ARM_EFFECT = 0.5

#: Ceiling on every cell's RMSE when the workloads run at their tiny size.
TINY_CEILING = 3.0

D1_CEILINGS = {
    ("PI-HA", 0): 0.4, ("PI-HA", 1): 0.4, ("PI-HA", 2): 2.0,
    ("PI-RA", 0): 0.4, ("PI-RA", 1): 0.2, ("PI-RA", 2): 0.3,
    ("RA", 0): 0.25, ("RA", 1): 0.12, ("RA", 2): 0.25,
    ("IPW", 0): 0.6, ("IPW", 1): 0.3, ("IPW", 2): 2.0,
    ("DR", 0): 0.2, ("DR", 1): 0.15, ("DR", 2): 0.7,
    ("IVW-DR", 0): 0.2, ("IVW-DR", 1): 0.12, ("IVW-DR", 2): 0.7,
}
D3_CEILINGS = {("DR", 1): 0.5, ("IVW-DR", 1): 0.3}
CLI_CEILINGS = {("DR", 1): 0.4, ("PI-RA", 1): 0.25, ("PI-HA", 1): 0.4}

#: Suites in oracle-verify.  ivw-variance (3 x 10^6 trajectories) is left
#: out: alone it took 29 s of a 44 s job, more than the run budget holds.
ORACLE_SUITES = ("double-robust", "ipw-unbiased")
#: Checks each suite reports.
ORACLE_CHECKS = {"double-robust": 3, "ipw-unbiased": 2}
#: Pooled (trajectory, t) rows per unit of budget in the row tables each
#: suite scores: double-robust 4 (d2, horizon 5, tau = 1); ipw-unbiased
#: 5 + 4 (tau = 0 and tau = 1 panels).
ORACLE_ROWS_PER_BUDGET = {"double-robust": 4, "ipw-unbiased": 9}
ORACLE_TINY_BUDGETS = {"double-robust": 50_000, "ipw-unbiased": 20_000}

CLI_DGP = "d1"
CLI_TAU = 1
CLI_LEARNERS = ("DR", "PI-RA", "PI-HA")
CLI_SIZES = {False: (2000, 20000), True: (800, 200)}    # tiny -> (train, test)


def derived_cate(pair) -> float:
    """Structural CATE of d1/d3 for an intervention pair.

    X_{t+1} = 0.5 X_t + noise does not depend on the arm, so the arms before
    the last leave the final outcome's law unchanged; only the last arm
    enters, through the outcome equation's arm coefficient.
    """
    return ARM_EFFECT * (pair.a_seq[-1] - pair.b_seq[-1])


@dataclass
class Outcome:
    """What one job produced, for the metrics and for the checks."""

    attempted: int
    failed: int = 0
    score_rows: int = 0              # test rows scored against the truth
    score_s: Optional[float] = None  # seconds they took; None = whole job
    bundle_bytes: int = 0            # bytes of the artefacts the job saved
    rmse: Dict[str, float] = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    job: Callable[..., Outcome]
    check: Callable[[Outcome, bool], List[str]]


def _bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _bad_rmse(value, ceiling) -> bool:
    return not (math.isfinite(value) and 0.0 <= value < ceiling)


# --------------------------------------------------------------------------
# d1-study and d3-sweep: the harness seed job

def d1_config(seed: int, tiny: bool):
    from tvcate import ExperimentConfig
    cfg = ExperimentConfig(seeds=(seed,), workers=1)
    if tiny:
        cfg = dataclasses.replace(cfg, n_train=600, n_test=60, taus=(0, 1))
    return cfg


def d3_config(seed: int, tiny: bool):
    from tvcate.harness import default_sweep_config
    cfg = dataclasses.replace(default_sweep_config(), seeds=(seed,), workers=1)
    if tiny:
        cfg = dataclasses.replace(cfg, n_train=400, n_test=100)
    return cfg


def _cell_dgp(cfg, row) -> str:
    gamma = row.get("gamma")
    return cfg.dgp if gamma is None else f"d3:gamma={gamma:g}"


def _study_job(cfg, workdir, run, emit, gammas=(None,)) -> Outcome:
    """Run one harness job, save its result files, and collect its cells."""
    from tvcate import benchmark_pair, get_dgp
    out = Outcome(attempted=len(cfg.learners) * len(cfg.taus) * len(gammas))
    try:
        result = run(cfg)
        paths = emit(result, output_dir=workdir)
    except Exception as exc:        # a failed job counts all its cells
        out.failed = out.attempted
        out.errors.append(repr(exc))
        return out
    rows = [dataclasses.asdict(r) for r in result.rows]
    for r in rows:
        out.score_rows += cfg.n_test * (get_dgp(_cell_dgp(cfg, r)).horizon
                                        - r["tau"])
        out.rmse[_cell_name(r)] = r["rmse"]
    out.bundle_bytes = _bytes(paths.values())
    # the truth the harness scores each cell against
    names = {_cell_dgp(cfg, r) for r in rows}
    truths = {f"{name}|{tau}": float(get_dgp(name).response_form.cate(
        benchmark_pair(tau))) for name in sorted(names) for tau in cfg.taus}
    out.data = {"rows": rows, "truths": truths, "learners": list(cfg.learners),
                "taus": list(cfg.taus), "gammas": list(gammas)}
    return out


def _cell_name(row) -> str:
    gamma = row.get("gamma")
    prefix = "" if gamma is None else f"gamma={gamma:g} "
    return f"{prefix}{row['learner']} tau={row['tau']}"


def d1_job(seed, workdir, tiny=False, tracer=None) -> Outcome:
    from tvcate.harness import emit_results, run_experiment
    return _study_job(d1_config(seed, tiny), workdir, run_experiment,
                      emit_results)


def d3_job(seed, workdir, tiny=False, tracer=None) -> Outcome:
    from tvcate.harness import emit_sweep, overlap_sweep
    cfg = d3_config(seed, tiny)
    return _study_job(cfg, workdir, overlap_sweep, emit_sweep, cfg.gammas)


def _check_study(out: Outcome, tiny: bool, ceilings) -> List[str]:
    from tvcate import benchmark_pair
    problems = list(out.errors)
    if out.failed:
        return problems
    d = out.data
    for key, value in d["truths"].items():
        want = derived_cate(benchmark_pair(int(key.rsplit("|", 1)[1])))
        if value != want:
            problems.append(f"{key}: harness truth {value!r} != structural "
                            f"CATE {want!r}")
    want_cells = [(g, k, t) for g in d["gammas"] for k in d["learners"]
                  for t in d["taus"]]
    cells = {(r.get("gamma"), r["learner"], r["tau"]): r for r in d["rows"]}
    if len(d["rows"]) != len(want_cells) or set(cells) != set(want_cells):
        problems.append(f"rows cover {sorted(cells, key=repr)}, "
                        f"want {want_cells}")
        return problems
    for (_, kind, tau), r in cells.items():
        ceiling = TINY_CEILING if tiny else ceilings[(kind, tau)]
        if _bad_rmse(r["rmse"], ceiling):
            problems.append(f"{_cell_name(r)}: RMSE {r['rmse']!r} not in "
                            f"[0, {ceiling})")
        if not 0.0 <= r["clip_fraction"] <= 1.0:
            problems.append(f"{_cell_name(r)}: clip_fraction "
                            f"{r['clip_fraction']!r} outside [0, 1]")
    return problems


def d1_check(out: Outcome, tiny: bool = False) -> List[str]:
    return _check_study(out, tiny, D1_CEILINGS)


def d3_check(out: Outcome, tiny: bool = False) -> List[str]:
    """Sweep cells, plus DR error rising from full to weak overlap."""
    problems = _check_study(out, tiny, D3_CEILINGS)
    if problems or out.failed or tiny:
        return problems
    rmse = {(r["gamma"], r["learner"]): r["rmse"] for r in out.data["rows"]}
    lo, hi = rmse[(0.0, "DR")], rmse[(8.0, "DR")]
    if not hi > lo:
        problems.append(f"DR RMSE at gamma=8 ({hi!r}) is not above gamma=0 "
                        f"({lo!r})")
    return problems


# --------------------------------------------------------------------------
# oracle-verify: two verification suites at their calibrated budgets

def oracle_job(seed, workdir, tiny=False, tracer=None) -> Outcome:
    """Run the suites at their preregistered seeds.

    The suites' tolerances are calibrated at their own seeds (the
    double-robust negative control in particular), so the benchmark seed
    does not enter; at another seed a 3-standard-error check would become
    a random failure.
    """
    from tvcate.verify import DEFAULT_BUDGETS, format_report, run_suite
    out = Outcome(attempted=sum(ORACLE_CHECKS.values()))
    reports, paths = [], []
    for name in ORACLE_SUITES:
        budget = ORACLE_TINY_BUDGETS[name] if tiny else DEFAULT_BUDGETS[name]
        try:
            report = run_suite(name, budget=budget)
            text = format_report(report)
        except Exception as exc:
            out.failed += ORACLE_CHECKS[name]
            out.errors.append(f"{name}: {exc!r}")
            continue
        path = os.path.join(workdir, f"verify-{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        paths.append(path)
        out.score_rows += ORACLE_ROWS_PER_BUDGET[name] * budget
        reports.append({"suite": name, "checks": [
            {"name": c.name, "passed": c.passed, "statistic": c.statistic,
             "tolerance": c.tolerance} for c in report.checks]})
    out.bundle_bytes = _bytes(paths)
    out.data = {"reports": reports}
    return out


def oracle_check(out: Outcome, tiny: bool = False) -> List[str]:
    problems = list(out.errors)
    for rep in out.data.get("reports", []):
        want = ORACLE_CHECKS[rep["suite"]]
        if len(rep["checks"]) != want:
            problems.append(f"{rep['suite']}: {len(rep['checks'])} checks, "
                            f"want {want}")
        for c in rep["checks"]:
            if not c["passed"]:
                problems.append(f"{rep['suite']}: {c['name']} failed "
                                f"({c['statistic']!r} vs {c['tolerance']!r})")
    return problems


# --------------------------------------------------------------------------
# cli-score: the library user's pipeline through ``tvcate.cli.main``

def cli_commands(seed: int, tiny: bool, workdir: str):
    """(label, argv) per command; the labels name the CLI subcommand."""
    n_train, n_test = CLI_SIZES[tiny]
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    tau = str(CLI_TAU)
    cmds = [
        ("simulate", ["simulate", "--dgp", CLI_DGP, "--n", str(n_train),
                      "--seed", str(2 * seed), "--out", p("train.csv")]),
        ("simulate", ["simulate", "--dgp", CLI_DGP, "--n", str(n_test),
                      "--seed", str(2 * seed + 1), "--out", p("test.csv")]),
        ("fit", ["fit", "--panel", p("train.csv"), "--tau", tau,
                 "--out", p("nuisances.json")]),
    ]
    cmds += [("train", ["train", "--panel", p("train.csv"), "--tau", tau,
                        "--learner", k, "--nuisances", p("nuisances.json"),
                        "--out", p(f"model-{k}.json")]) for k in CLI_LEARNERS]
    cmds += [("evaluate", ["evaluate", "--model", p(f"model-{k}.json"),
                           "--panel", p("test.csv"), "--dgp", CLI_DGP,
                           "--out", p(f"report-{k}.json")])
             for k in CLI_LEARNERS]
    return cmds


def cli_job(seed, workdir, tiny=False, tracer=None) -> Outcome:
    from tvcate.cli import main
    cmds = cli_commands(seed, tiny, workdir)
    out = Outcome(attempted=len(cmds), score_s=0.0)
    sink = io.StringIO()
    for label, argv in cmds:
        span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sink):
                code = main(argv)
        except (Exception, SystemExit) as exc:
            code = exc
        elapsed = time.perf_counter() - start
        if code not in (0, None):
            out.failed += 1
            out.errors.append(f"{argv[0]}: {code!r}")
        if label == "evaluate":
            out.score_s += elapsed
    reports = {}
    for k in CLI_LEARNERS:
        path = os.path.join(workdir, f"report-{k}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                reports[k] = json.load(fh)
    out.score_rows = sum(int(r.get("n_rows", 0)) for r in reports.values())
    bundles = [os.path.join(workdir, "nuisances.json")] + [
        os.path.join(workdir, f"model-{k}.json") for k in CLI_LEARNERS]
    out.bundle_bytes = _bytes(p for p in bundles if os.path.exists(p))
    out.rmse = {f"{k} tau={CLI_TAU}": r["rmse"] for k, r in reports.items()}
    out.data = {"seed": seed, "workdir": workdir, "reports": reports}
    return out


def read_panel_csv(path):
    """Parse a panel CSV with this module's own reader into (X, A, Y).

    Demands trajectory ids 0..n-1 and times 1..T with every row present
    once, and returns dense arrays of shape (n, T, d), (n, T), (n, T).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        d = len(header) - 4
        recs = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    ids = np.array([int(r[0]) for r in recs])
    ts = np.array([int(r[1]) for r in recs])
    n, T = int(ids.max()) + 1, int(ts.max())
    if len(recs) != n * T or ts.min() != 1 or \
            np.unique(ids * T + ts - 1).size != n * T:
        raise ValueError(f"{path}: rows do not form {n} x {T} (id, t) cells")
    X = np.empty((n, T, d))
    A = np.empty((n, T), dtype=int)
    Y = np.empty((n, T))
    for r, i, t in zip(recs, ids, ts):
        X[i, t - 1] = [float(v) for v in r[2:2 + d]]
        A[i, t - 1] = int(r[2 + d])
        Y[i, t - 1] = float(r[3 + d])
    return X, A, Y


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def cli_check(out: Outcome, tiny: bool = False) -> List[str]:
    from tvcate import benchmark_pair, get_dgp, simulate_panel
    problems = list(out.errors)
    if out.failed:
        return problems
    d = out.data
    n_train, n_test = CLI_SIZES[tiny]
    dgp = get_dgp(CLI_DGP)
    for name, n, seed in (("train.csv", n_train, 2 * d["seed"]),
                          ("test.csv", n_test, 2 * d["seed"] + 1)):
        try:
            got = read_panel_csv(os.path.join(d["workdir"], name))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        want = simulate_panel(dgp, n, seed=seed).dense()
        for label, g, w in zip("XAY", got, want):
            if not _same_bits(g, np.asarray(w, dtype=g.dtype)):
                problems.append(f"{name}: {label} read back differs from "
                                f"simulate_panel(seed={seed})")
    truth = derived_cate(benchmark_pair(CLI_TAU))
    for k in CLI_LEARNERS:
        rep = d["reports"].get(k)
        if rep is None:
            problems.append(f"evaluate {k}: no report")
            continue
        ceiling = TINY_CEILING if tiny else CLI_CEILINGS[(k, CLI_TAU)]
        if rep.get("n_rows") != n_test * (dgp.horizon - CLI_TAU):
            problems.append(f"evaluate {k}: n_rows {rep.get('n_rows')} != "
                            f"{n_test} * ({dgp.horizon} - {CLI_TAU})")
        if rep.get("truth") != truth:
            problems.append(f"evaluate {k}: truth {rep.get('truth')!r} != "
                            f"structural CATE {truth!r}")
        if rep.get("kind") != k or _bad_rmse(rep.get("rmse", math.nan), ceiling):
            problems.append(f"evaluate {k}: kind {rep.get('kind')!r}, RMSE "
                            f"{rep.get('rmse')!r} not in [0, {ceiling})")
    return problems


WORKLOADS = {
    "d1-study": Workload(d1_job, d1_check),
    "d3-sweep": Workload(d3_job, d3_check),
    "oracle-verify": Workload(oracle_job, oracle_check),
    "cli-score": Workload(cli_job, cli_check),
}


def warm_up() -> None:
    """Small fit-and-predict pass through every layer the jobs use."""
    from tvcate import (ClassifierSpec, benchmark_pair, build_row_table,
                        fit_meta, fit_nuisances, make_d1, simulate_panel)
    panel = simulate_panel(make_d1(), 200, seed=[0, 99])
    pair = benchmark_pair(0)
    nuisances = fit_nuisances(panel, pair,
                              classifier_spec=ClassifierSpec(l2=1e-3),
                              need=("response", "propensity"))
    model = fit_meta("DR", panel, pair, nuisances)
    model.predict(build_row_table(panel, 0, nuisances.codec).features(0))
