"""Command-line entry point: ``tvcate <subcommand>``.

Subcommands
-----------
simulate
    Draw a panel from a registered generator and write it as CSV.
fit
    Fit the nuisance collection for one intervention pair on a panel CSV
    and save it as a JSON bundle.
train
    Fit one treatment-effect learner on a panel CSV (reusing a saved
    nuisance bundle if given) and save the model as a JSON bundle.
evaluate
    Score a saved model on a test panel against a known constant effect.
run
    Run a full benchmark experiment from a config file and emit result
    files (CSV, JSON, summary CSV).
sweep
    Run the overlap sweep over the gamma grid and emit sweep files.
verify
    Run the statistical verification suites and print their reports.

``run`` and ``sweep`` read an optional ``key = value`` config file; every
config field can be overridden on the command line as ``--key=value``
(for example ``--n_train=1000 --learners=DR,IVW-DR``).

A subcommand that raises ``ValueError`` (a bad input), ``OSError`` (a file
it cannot read or write, named in the message) or ``RuntimeError`` (a
failing seed job) exits with status 1 and its message on one line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, Optional, Sequence

import numpy as np

from .dgp import StructuralDGP, get_dgp, benchmark_pair, simulate_panel
from .harness import (ExperimentConfig, config_with_overrides,
                      default_sweep_config, emit_results, emit_sweep,
                      format_summary_table, overlap_sweep,
                      parse_config_text, run_experiment)
from .learners import ClassifierSpec, RegressorSpec
from .meta import (LEARNER_KINDS, fit_meta, load_cate_model, save_cate_model)
from .nuisance import (build_row_table, fit_nuisances, load_nuisances,
                       make_split, save_nuisances)
from .panel import InterventionPair, panel_from_csv, panel_to_csv
from .verify import DEFAULT_BUDGETS, SUITE_NAMES, format_report, run_suite

_OVERRIDE_RE = re.compile(r"^--([A-Za-z_][A-Za-z_0-9]*)=(.*)$", re.S)


def _parse_overrides(extras: Sequence[str]) -> Dict[str, str]:
    items: Dict[str, str] = {}
    for token in extras:
        match = _OVERRIDE_RE.match(token)
        if match is None:
            raise SystemExit(f"unrecognized argument {token!r}; config "
                             "overrides take the form --key=value")
        items[match.group(1)] = match.group(2)
    return items


def _load_config(args, base: ExperimentConfig,
                 extras: Sequence[str]) -> ExperimentConfig:
    cfg = base
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = config_with_overrides(cfg, parse_config_text(fh.read()))
    cfg = config_with_overrides(cfg, _parse_overrides(extras))
    if args.fast:
        cfg = config_with_overrides(cfg, {"fast": "true"})
    if args.out is not None:
        cfg = config_with_overrides(cfg, {"output_dir": args.out})
    return cfg


def _arm(text: Optional[str], tau: int, default: Sequence[int]) -> tuple:
    if text is None:
        return tuple(default)
    arm = tuple(int(v) for v in text.split(",") if v.strip() != "")
    if len(arm) != tau + 1:
        raise SystemExit(f"an intervention for tau={tau} fixes {tau + 1} "
                         f"arms, got {arm}")
    return arm


def _pair_from_args(args) -> InterventionPair:
    default = benchmark_pair(args.tau)
    return InterventionPair(_arm(args.arm_a, args.tau, default.a_seq),
                            _arm(args.arm_b, args.tau, default.b_seq))


def _nuisances_from_flags(args, panel, pair):
    """The nuisance flags' split and fit on ``panel`` (``fit`` and ``train``)."""
    regressor = RegressorSpec(feature_count=args.regressor_features,
                              bandwidth=args.regressor_bandwidth,
                              ridge_lambda=args.regressor_ridge)
    l2 = "auto" if args.classifier_l2 == "auto" else float(args.classifier_l2)
    classifier = ClassifierSpec(use_random_features=not args.classifier_plain,
                                l2=l2)
    split = make_split(panel, args.tau, enabled=args.split, seed=args.split_seed)
    return fit_nuisances(panel, pair, regressor_spec=regressor,
                         classifier_spec=classifier, split=split,
                         clip_eps=args.clip_eps)


def _add_panel_flags(parser: argparse.ArgumentParser, role: str) -> None:
    parser.add_argument("--panel", required=True, help=f"{role} panel CSV")
    parser.add_argument("--arity", type=int, default=2,
                        help="number of treatment arms in the panel")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    """The intervention pair and the nuisance fit (``fit`` and ``train``)."""
    parser.add_argument("--tau", type=int, required=True,
                        help="steps ahead; determines the intervention pair")
    parser.add_argument("--arm-a", default=None,
                        help="comma-separated arms for the first sequence")
    parser.add_argument("--arm-b", default=None,
                        help="comma-separated arms for the second sequence")
    parser.add_argument("--regressor-features", type=int, default=256,
                        help="random-feature count for response regressions")
    parser.add_argument("--regressor-bandwidth", type=float, default=1.5,
                        help="kernel bandwidth for response regressions")
    parser.add_argument("--regressor-ridge", type=float, default=1e-2,
                        help="ridge penalty for response regressions")
    parser.add_argument("--classifier-l2", default="auto",
                        help="propensity penalty (number or 'auto')")
    parser.add_argument("--classifier-plain", action="store_true",
                        help="fit the propensity model on plain features")
    parser.add_argument("--clip-eps", type=float, default=0.01,
                        help="propensity clipping level")
    parser.add_argument("--split", action="store_true",
                        help="cross-fit nuisances on disjoint folds")
    parser.add_argument("--split-seed", type=int, default=0,
                        help="seed for the fold assignment")


def _cmd_simulate(args) -> int:
    dgp = get_dgp(args.dgp)
    if isinstance(dgp, StructuralDGP):
        panel = simulate_panel(dgp, args.n, seed=args.seed, x1=args.x1)
    else:
        if args.x1 is not None:
            raise SystemExit("--x1 applies to the structural generators only")
        panel = dgp.simulate(args.n, seed=args.seed)
    panel_to_csv(panel, args.out)
    print(f"wrote {panel.n} trajectories "
          f"({args.dgp}, seed {args.seed}) to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    panel = panel_from_csv(args.panel, treatment_arity=args.arity)
    pair = _pair_from_args(args)
    nuisances = _nuisances_from_flags(args, panel, pair)
    save_nuisances(nuisances, args.out)
    print(f"fit nuisances for pair {pair.a_seq} vs {pair.b_seq} "
          f"on {panel.n} trajectories; saved to {args.out}")
    return 0


def _cmd_train(args) -> int:
    panel = panel_from_csv(args.panel, treatment_arity=args.arity)
    pair = _pair_from_args(args)
    nuisances = (load_nuisances(args.nuisances) if args.nuisances is not None
                 else _nuisances_from_flags(args, panel, pair))
    second_stage = RegressorSpec(feature_count=args.second_stage_features,
                                 bandwidth=args.second_stage_bandwidth,
                                 ridge_lambda=args.second_stage_ridge)
    model = fit_meta(args.learner, panel, pair, nuisances,
                     second_stage_spec=second_stage)
    save_cate_model(model, args.out)
    print(f"trained {args.learner} (tau={args.tau}) "
          f"on {panel.n} trajectories; saved to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    if (args.truth is None) == (args.dgp is None):
        raise SystemExit("pass exactly one of --truth or --dgp")
    model = load_cate_model(args.model)
    panel = panel_from_csv(args.panel, treatment_arity=args.arity)
    if args.truth is not None:
        truth = float(args.truth)
    else:
        dgp = get_dgp(args.dgp)
        if not isinstance(dgp, StructuralDGP) or dgp.response_form is None:
            raise SystemExit(f"generator {args.dgp!r} has no closed-form "
                             "effect; pass --truth instead")
        truth = dgp.response_form.cate(model.pair)
    table = build_row_table(panel, model.tau, model.codec)
    features = table.features(0)
    if args.eval_t is not None:
        keep = table.t == args.eval_t
        if not keep.any():
            raise SystemExit(f"no rows at decision time t={args.eval_t}")
        features = features[keep]
    preds = model.predict(features)
    rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
    scale = 10.0 if args.display_x10 else 1.0
    label = " (x10)" if args.display_x10 else ""
    print(f"rmse{label}: {rmse * scale:.6g}  "
          f"({preds.size} pooled test histories, truth {truth:g})")
    if args.out is not None:
        payload = {"rmse": rmse, "n_rows": preds.size, "truth": truth,
                   "kind": model.kind, "tau": model.tau}
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_experiment(args, extras: Sequence[str], base: ExperimentConfig,
                    run, emit) -> int:
    """``run`` (an experiment or a sweep) from ``base`` and the flags; write
    its files with ``emit`` and print its summary."""
    result = run(_load_config(args, base, extras))
    paths = emit(result, stem=args.stem)
    for note in result.advisories:
        print(f"advisory: {note}", file=sys.stderr)
    print(format_summary_table(result, scale=10.0 if args.display_x10 else 1.0))
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failed = False
    for name in names:
        budget = args.budget
        if budget is None and args.fast:
            budget = max(DEFAULT_BUDGETS[name] // 10, 1)
        report = run_suite(name, budget=budget, seed=args.seed)
        print(format_report(report))
        failed = failed or not report.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvcate",
        description="Treatment-effect meta-learners over discrete time: "
                    "simulate, fit, train, evaluate, run, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a panel and write CSV")
    p.add_argument("--dgp", default="d1", help="generator name, e.g. d1 or "
                   "d3:gamma=4")
    p.add_argument("--n", type=int, default=1000, help="trajectories to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x1", type=float, default=None,
                   help="pin the first covariate instead of drawing it")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("fit", help="fit nuisances and save a bundle")
    _add_panel_flags(p, "training")
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="output bundle path (JSON)")

    p = sub.add_parser("train", help="fit one learner and save a model")
    _add_panel_flags(p, "training")
    p.add_argument("--learner", required=True, choices=list(LEARNER_KINDS))
    _add_fit_flags(p)
    p.add_argument("--nuisances", default=None,
                   help="reuse a saved nuisance bundle instead of refitting")
    p.add_argument("--second-stage-features", type=int, default=256)
    p.add_argument("--second-stage-bandwidth", type=float, default=1.0)
    p.add_argument("--second-stage-ridge", type=float, default=1e-2)
    p.add_argument("--out", required=True, help="output model path (JSON)")

    p = sub.add_parser("evaluate", help="score a saved model on a panel")
    p.add_argument("--model", required=True, help="saved model bundle")
    _add_panel_flags(p, "test")
    p.add_argument("--truth", type=float, default=None,
                   help="constant true effect to score against")
    p.add_argument("--dgp", default=None,
                   help="generator name supplying the closed-form effect")
    p.add_argument("--eval-t", type=int, default=None,
                   help="fixed decision time instead of pooling all t")
    p.add_argument("--display-x10", action="store_true",
                   help="print RMSE multiplied by 10")
    p.add_argument("--out", default=None, help="optional JSON report path")

    for name, help_text in (("run", "full experiment from a config"),
                            ("sweep", "overlap sweep over the gamma grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="key = value config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output_dir)")
        p.add_argument("--stem", default="results" if name == "run"
                       else "sweep", help="basename for result files")
        p.add_argument("--fast", action="store_true",
                       help="shrink sample sizes tenfold")
        p.add_argument("--display-x10", action="store_true",
                       help="print the summary multiplied by 10")

    p = sub.add_parser("verify", help="run statistical verification suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + list(SUITE_NAMES))
    p.add_argument("--budget", type=int, default=None,
                   help="override the suite's trajectory budget")
    p.add_argument("--seed", type=int, default=None,
                   help="override the suite's base seed")
    p.add_argument("--fast", action="store_true",
                   help="shrink the default budgets tenfold")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras and args.command not in ("run", "sweep"):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    commands = {"simulate": _cmd_simulate, "fit": _cmd_fit, "train": _cmd_train,
                "evaluate": _cmd_evaluate, "verify": _cmd_verify,
                "run": lambda a: _cmd_experiment(a, extras, ExperimentConfig(),
                                                 run_experiment, emit_results),
                "sweep": lambda a: _cmd_experiment(a, extras, default_sweep_config(),
                                                   overlap_sweep, emit_sweep)}
    try:
        return commands[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        # a failing input, file or seed job is one line on stderr, exit status 1
        raise SystemExit(f"tvcate {args.command}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
